"""Dyads, dyadic decompositions, stabilizer Kraus operators and channels.

A channel is decomposed into a probabilistic mixture of Clifford circuits
plus weighted Kraus operators of the fixed form 2^{h/2} U Pi with U Clifford
and Pi a stabilizer projector of h generators.  That shape keeps trace-norm
transition probabilities exactly computable during sampling.  All types are
immutable after construction and validated when built, at every width:
dyadic decompositions from stabilizer overlaps, and a channel's Kraus
completeness exactly from stabilizer projections of a Bell state.  A circuit
entry of a run document is read by circuits, which builds no channel.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence

import numpy as np

from . import decompositions, monotones
from . import stab_core as sc
from .circuits import ChannelError, builtin_branches, check_circuit, read_entry

DEFAULT_MAX_TERMS = 64

_ATOL = 1e-8
# bound on ||rho - rho^dag||^2 / (2 ||rho||^2): about 1e-5 in the HS norm, far
# above the rounding of the overlap sums
_HERMITIAN_RTOL = 1e-10


class Dyad:
    """Outer product |L><R| of two stabilizer states (weight lives outside)."""

    __slots__ = ("L", "R")

    def __init__(self, L: sc.StabState, R: sc.StabState):
        if L.n != R.n:
            raise ChannelError("dyad sides have different widths")
        if L.null or R.null:
            raise ChannelError("dyad sides must be non-null")
        self.L = L
        self.R = R

    @property
    def n(self) -> int:
        return self.L.n


class DyadicDecomposition:
    """Weighted dyad expansion rho = sum_j alpha_j |L_j><R_j|, kept as a
    tensor product of factors.

    DyadicDecomposition(terms) is a one-factor expansion; product() joins
    decompositions without expanding them.  l1, the unit phases and the
    sampling weights multiply over the factors, dense() is dense_oracle's
    matrix, for the tests, and terms is the lazy sequence of joint
    terms, each tensored when it is read.  With validate set, unit trace and
    Hermiticity are checked from overlaps, at every width (_check_density).  Builders whose factors were
    validated already, such as products of 1-qubit decompositions, pass
    validate=False or join the validated factors with product().
    """

    __slots__ = ("factors", "terms", "n", "l1", "_sampling")

    def __init__(self, terms, validate: bool = True):
        terms = tuple((complex(a), d) for a, d in terms)
        if not terms:
            raise ChannelError("decomposition needs at least one term")
        n = terms[0][1].n
        if any(d.n != n for _, d in terms):
            raise ChannelError("mixed widths in decomposition")
        self._join((terms,), float(sum(abs(a) for a, _ in terms)))
        if validate:
            _check_density(terms)

    @classmethod
    def product(cls, decomps) -> "DyadicDecomposition":
        """Tensor product of decompositions, the first one's qubits first.

        Products of Hermitian unit-trace factors are Hermitian with unit
        trace, so nothing is checked again.
        """
        decomps = list(decomps)
        if not decomps:
            raise ChannelError("product needs at least one factor")
        out = cls.__new__(cls)
        out._join(tuple(f for d in decomps for f in d.factors), math.prod(d.l1 for d in decomps))
        return out

    def _join(self, factors, l1: float) -> None:
        if l1 < 1.0 - 1e-9:
            raise ChannelError("dyadic l1 weight below 1")
        self.factors = factors
        self.terms = _JointTerms(factors)
        self.n = sum(f[0][1].n for f in factors)
        self.l1 = l1
        self._sampling = None

    def dense(self) -> np.ndarray:
        from .dense_oracle import dyadic_matrix

        return dyadic_matrix(self)

    def sampling_arrays(self) -> list:
        """Per factor: cumulative |alpha| distribution and unit phases, cached.

        The phases are Python complex numbers, so a joint phase is the same
        left-to-right product wherever it is formed.
        """
        if self._sampling is None:
            self._sampling = []
            for f in self.factors:
                cum = np.cumsum([abs(a) for a, _ in f])
                self._sampling.append((cum / cum[-1], [a / abs(a) for a, _ in f]))
        return self._sampling


class _JointTerms(Sequence):
    """The joint terms (alpha, Dyad) of a product of factors.

    The first factor's index is outermost.  An item is tensored when it is
    read and not kept, so len() costs nothing at any width.
    """

    __slots__ = ("factors", "_len")

    def __init__(self, factors):
        self.factors = factors
        self._len = math.prod(len(f) for f in factors)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("joint term index out of range")
        idx = []
        for f in reversed(self.factors):
            i, j = divmod(i, len(f))
            idx.append(j)
        return self.joint(idx[::-1])

    def joint(self, idx) -> tuple[complex, Dyad]:
        """The term with index idx[f] in factor f."""
        picked = [f[j] for f, j in zip(self.factors, idx)]
        if len(picked) == 1:
            return picked[0]
        alpha = functools.reduce(operator.mul, (a for a, _ in picked))
        L = sc.tensor(*(d.L for _, d in picked))
        if all(d.R is d.L for _, d in picked):
            return alpha, Dyad(L, L)
        return alpha, Dyad(L, sc.tensor(*(d.R for _, d in picked)))


def _check_density(terms) -> None:
    """Refuse rho = sum_j a_j |L_j><R_j| unless it has unit trace and is Hermitian.

    Both checks read stabilizer overlaps only, so they hold at every width:
    Tr rho = sum_j a_j <R_j|L_j>, and ||rho - rho^dag||_HS^2 = 2 ||rho||^2 -
    2 Re Tr rho^2 with ||rho||^2 = sum_jk conj(a_j) a_k <L_j|L_k><R_k|R_j>
    and Tr rho^2 = sum_jk a_j a_k <R_j|L_k><R_k|L_j>, compared with
    2 ||rho||^2.  Each state's amplitude form is read once.
    """
    forms = {}
    for _, d in terms:
        for s in (d.L, d.R):
            if id(s) not in forms:
                forms[id(s)] = sc.amplitude_form(s)
    Ls = [forms[id(d.L)] for _, d in terms]
    Rs = [forms[id(d.R)] for _, d in terms]
    a = np.array([x for x, _ in terms])
    RL = _gram(Rs, Ls)
    trace = complex(a @ RL.diagonal())
    if abs(trace - 1.0) > _ATOL:
        raise ChannelError(f"decomposition trace is {trace:.6g}, expected 1")
    # unit trace makes ||rho||_HS positive, so the relative defect is defined
    norm = float(np.real(np.conj(a) @ (_gram(Ls, Ls) * _gram(Rs, Rs).T) @ a))
    square = complex(a @ (RL * RL.T) @ a)
    if max(norm - square.real, 0.0) / norm > _HERMITIAN_RTOL:
        raise ChannelError("decomposition is not Hermitian")


def _gram(bras, kets) -> np.ndarray:
    """[<bra_j|ket_k>]; a Hermitian Gram matrix when bras is kets."""
    out = np.empty((len(bras), len(kets)), dtype=complex)
    for j, b in enumerate(bras):
        for k, ket in enumerate(kets):
            if bras is kets and k < j:
                out[j, k] = np.conj(out[k, j])
            else:
                out[j, k] = sc.overlap(b, ket)
    return out


class StabKraus:
    """Kraus operator 2^{h/2} U Pi with Clifford U and h-generator Pi."""

    __slots__ = ("h", "proj", "circuit")

    def __init__(self, h: int, proj: sc.StabProjector, circuit):
        if h != len(proj.generators):
            raise ChannelError("h must match the generator count")
        circuit = tuple(tuple(g) for g in circuit)
        check_circuit(circuit, proj.n)
        self.h = int(h)
        self.proj = proj
        self.circuit = circuit

    @property
    def n(self) -> int:
        return self.proj.n


class SimulableChannel:
    """Mixture of Clifford unitaries plus stabilizer Kraus operators.

    unitary_part holds (p_r, circuit) with p_r >= 0, kraus_part holds
    (q_s, StabKraus).  Completeness sum p_r I + sum q_s 2^h Pi_s = I is
    checked exactly at every width: the channel is refused when the RMS
    eigenvalue deviation of the left side from I passes _ATOL
    (_completeness_defect).  A channel with neither part is rejected too:
    every sample through it would abort.
    """

    __slots__ = ("n", "unitary_part", "kraus_part", "P_U", "P_K")

    def __init__(self, n: int, unitary_part, kraus_part):
        unitary_part = tuple((float(p), tuple(tuple(g) for g in gates)) for p, gates in unitary_part)
        kraus_part = tuple((float(q), k) for q, k in kraus_part)
        if not unitary_part and not kraus_part:
            raise ChannelError("channel has neither unitary nor kraus part")
        if len(unitary_part) + len(kraus_part) > DEFAULT_MAX_TERMS:
            raise ChannelError("channel decomposition exceeds the term budget")
        if any(p < 0 for p, _ in unitary_part) or any(q < 0 for q, _ in kraus_part):
            raise ChannelError("negative channel weights")
        for _, gates in unitary_part:
            check_circuit(gates, n)
        for _, k in kraus_part:
            if k.n != n:
                raise ChannelError("Kraus width differs from channel width")
        self.n = int(n)
        self.unitary_part = unitary_part
        self.kraus_part = kraus_part
        self.P_U = float(sum(p for p, _ in unitary_part))
        self.P_K = 1.0 - self.P_U
        if not -1e-12 <= self.P_U <= 1.0 + 1e-12:
            raise ChannelError("unitary weight outside [0, 1]")
        defect = _completeness_defect(self.n, unitary_part, kraus_part)
        if defect > _ATOL:
            raise ChannelError(f"Kraus completeness violated by {defect:.3g}")


def _completeness_defect(n: int, unitary_part, kraus_part) -> float:
    """RMS eigenvalue deviation sqrt(D) of E = sum_r p_r I + sum_s q_s K_s^dag K_s
    from I, with D = ||E - I||_HS^2 / 2^n, exact at every width.

    K_s^dag K_s = 2^{h_s} Pi_s and Tr Pi_s = 2^{n - h_s}, so with P = sum_r p_r
    - 1, D = P^2 + 2 P sum_s q_s + sum_st q_s q_t 2^{h_s + h_t} tau_st, where
    tau_st = Tr[Pi_s Pi_t] / 2^n = ||(Pi_s (x) Pi_t^T)|Phi>||^2 for the Bell
    state |Phi> on 2n qubits.  Pi_t^T has Pi_t's generators with one sign flip
    per Y, as (X^x Z^z)^T = (-1)^{x.z} X^x Z^z, and tau_st is 0 or 2^-m after
    m halving projections, the drop in p2.  D is summed over Fractions of the
    float weights; only a Kraus part needs that.
    """
    if not kraus_part:
        return abs(math.fsum(p for p, _ in unitary_part) - 1.0)
    from fractions import Fraction

    def doubled(proj, transpose: bool) -> sc.StabProjector:
        # Pi on the first n of 2n qubits, or Pi^T on the last n
        lo = n if transpose else 0
        gens = []
        for op, sign in proj.generators:
            if transpose and (op.x & op.z).bit_count() & 1:
                sign = -sign
            gens.append((sc.PauliOp(2 * n, op.x << lo, op.z << lo, op.k), sign))
        return sc.StabProjector(2 * n, gens)

    bell = sc.apply_circuit(sc.zero_state(2 * n), [g for q in range(n) for g in (("H", q), ("CX", q, q + n))])
    q = [Fraction(w) for w, _ in kraus_part]
    h = [k.h for _, k in kraus_part]
    rights = [doubled(k.proj, True) for _, k in kraus_part]
    P = sum((Fraction(p) for p, _ in unitary_part), Fraction(-1))
    D = P * P + 2 * P * sum(q)
    for s, (_, k) in enumerate(kraus_part):
        left, _ = sc.project_stab(bell, doubled(k.proj, False))
        for t in range(s, len(kraus_part)):
            both, _ = sc.project_stab(left, rights[t])
            if not both.null:
                # tau_st = tau_ts, so each pair off the diagonal counts twice
                D += (1 if s == t else 2) * q[s] * q[t] * Fraction(2) ** (h[s] + h[t] + both.p2 - bell.p2)
    return math.sqrt(D)


def _kraus(n: int, branches) -> list:
    return [(q, StabKraus(h, sc.StabProjector(n, gens), gates)) for q, h, gens, gates in branches]


def builtin_channel(name: str, qubits, n: int, params: dict | None = None) -> SimulableChannel:
    """A builtin channel at global width n, as circuits.builtin_branches reads it."""
    unitary, kraus = builtin_branches(name, qubits, n, params)
    return SimulableChannel(n, unitary, _kraus(n, kraus))


def channel_from_json(obj: dict, n: int) -> SimulableChannel:
    """The channel of one circuit entry, as circuits.read_entry reads it."""
    unitary, kraus = read_entry(obj, n)
    return SimulableChannel(n, unitary, _kraus(n, kraus))


def dyadic_decompose_product(states) -> DyadicDecomposition:
    """Optimal dyadic decomposition of a product of single-qubit states.

    Each factor is expanded through its equimagical decomposition and the
    extent-optimal stabilizer expansions of the pure parts, so the total
    l1 weight is the product of the single-qubit monotone values.  Each
    distinct factor is built and validated once as a 1-qubit decomposition,
    and the factors are joined without expanding the product.
    """
    states = list(states)
    if not states:
        raise ChannelError("need at least one qubit")
    built = {}
    factors = []
    for rho in states:
        if not isinstance(rho, monotones.BlochState):
            rho = monotones.BlochState(*rho)
        key = rho.as_tuple()
        if key not in built:
            _, parts = decompositions.decompose_1q_state(rho)
            built[key] = DyadicDecomposition([
                (weight * cl * np.conj(cr), Dyad(stl, str_))
                for weight, _, terms in parts
                for cl, stl in terms
                for cr, str_ in terms
            ])
        factors.append(built[key])
    return DyadicDecomposition.product(factors)
