"""Dyads, dyadic decompositions, stabilizer Kraus operators and channels.

A channel is decomposed into a probabilistic mixture of Clifford circuits
plus weighted Kraus operators of the fixed form 2^{h/2} U Pi with U Clifford
and Pi a stabilizer projector of h generators.  That shape keeps trace-norm
transition probabilities exactly computable during sampling.  All types are
immutable after construction and validated when built, at every width:
dyadic decompositions from stabilizer overlaps, and a channel's Kraus
completeness exactly from stabilizer projections of a Bell state.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence

import numpy as np

from . import decompositions, monotones
from . import dense_oracle as do
from . import stab_core as sc

DEFAULT_MAX_TERMS = 64

_ATOL = 1e-8
# bound on ||rho - rho^dag||^2 / (2 ||rho||^2): about 1e-5 in the HS norm, far
# above the rounding of the overlap sums
_HERMITIAN_RTOL = 1e-10


class ChannelError(ValueError):
    pass


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

    def dense(self) -> np.ndarray:
        return np.outer(do.expand(self.L), np.conj(do.expand(self.R)))


class DyadicDecomposition:
    """Weighted dyad expansion rho = sum_j alpha_j |L_j><R_j|, kept as a
    tensor product of factors.

    DyadicDecomposition(terms) is a one-factor expansion; product() joins
    decompositions without expanding them.  l1, the unit phases and the
    sampling weights multiply over the factors, dense() is the Kronecker
    product of the factors' matrices, and terms is the lazy sequence of joint
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
        if self.n > do.MAX_DENSE_QUBITS:
            raise ChannelError("dense expansion capped")
        return functools.reduce(np.kron, [sum(a * d.dense() for a, d in f) for f in self.factors])

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
        _check_circuit(circuit, proj.n)
        self.h = int(h)
        self.proj = proj
        self.circuit = circuit

    @property
    def n(self) -> int:
        return self.proj.n

    def dense(self) -> np.ndarray:
        return do.kraus_matrix(self)


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
            _check_circuit(gates, n)
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
            x, z = np.zeros(2 * n, dtype=bool), np.zeros(2 * n, dtype=bool)
            x[lo:lo + n], z[lo:lo + n] = op.x, op.z
            if transpose and np.count_nonzero(op.x & op.z) & 1:
                sign = -sign
            gens.append((sc.PauliOp(x, z, op.k), sign))
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


def _check_circuit(gates, n: int) -> None:
    for g in gates:
        try:
            sc.check_gate(g, n)
        except ValueError as exc:
            raise ChannelError(str(exc)) from None


def _letters_at(n: int, positions: dict[int, str]) -> sc.PauliOp:
    word = "".join(positions.get(q, "I") for q in range(n))
    return sc.PauliOp.from_letters(word)


def _check_targets(qubits, n: int, expect: int | None = None) -> list[int]:
    if (not isinstance(qubits, (list, tuple))
            or any(isinstance(q, bool) or not isinstance(q, (int, np.integer)) for q in qubits)):
        raise ChannelError(f"bad channel entry qubits={qubits!r}; expected array of integers")
    qs = [int(q) for q in qubits]
    if expect is not None and len(qs) != expect:
        raise ChannelError(f"channel needs exactly {expect} target qubit(s)")
    if len(set(qs)) != len(qs):
        raise ChannelError("duplicate target qubits")
    if any(not (0 <= q < n) for q in qs):
        raise ChannelError("target qubit out of range")
    return qs


def builtin_channel(name: str, qubits, n: int, params: dict | None = None) -> SimulableChannel:
    """Built-in channel library, embedded at global width n.

    clifford_mix: params {"terms": [[p, gates], ...]} with local qubit
    indices into `qubits`.  depolarizing: params {"lambda": l} on one qubit.
    t_gadget: qubits = [data, ancilla].  pauli_measure_and_forward: params
    {"pauli": letters} over `qubits`.
    """
    params = _json_value({} if params is None else params, "object", "params")
    if name == "depolarizing":
        (q,) = _check_targets(qubits, n, expect=1)
        key = "lambda" if "lambda" in params else "p"
        lam = float(_json_value(params.get(key, 0.0), "number", key))
        if not 0.0 <= lam <= 1.0:
            raise ChannelError("depolarizing strength must lie in [0, 1]")
        raw = [
            (1.0 - 0.75 * lam, ()),
            (0.25 * lam, (("X", q),)),
            (0.25 * lam, (("Y", q),)),
            (0.25 * lam, (("Z", q),)),
        ]
        unitary = [(p, gates) for p, gates in raw if p > 0.0]
        return SimulableChannel(n, unitary, [])
    if name == "clifford_mix":
        qs = _check_targets(qubits, n)
        terms = _json_value(params.get("terms", []), "array", "terms")
        if not terms:
            raise ChannelError("clifford_mix needs a nonempty terms list")
        unitary = []
        for entry in terms:
            p, gates = _json_entry(entry, "number", "array")
            local = gates_from_json(gates)
            _check_circuit(local, len(qs))
            unitary.append((float(p), tuple((g[0], *(qs[t] for t in g[1:])) for g in local)))
        return SimulableChannel(n, unitary, [])
    if name == "t_gadget":
        d, a = _check_targets(qubits, n, expect=2)
        zz = _letters_at(n, {d: "Z", a: "Z"})
        kraus = []
        for sign, circuit in ((+1, (("CX", d, a),)), (-1, (("CX", d, a), ("S", d)))):
            proj = sc.StabProjector(n, [(zz, sign)])
            kraus.append((0.5, StabKraus(1, proj, circuit)))
        return SimulableChannel(n, [], kraus)
    if name == "pauli_measure_and_forward":
        qs = _check_targets(qubits, n)
        if not qs:
            raise ChannelError("pauli_measure_and_forward needs at least one target qubit")
        letters = _json_value(params.get("pauli", "Z" * len(qs)), "string", "pauli")
        if len(letters) != len(qs) or any(c not in "XYZ" for c in letters):
            raise ChannelError("pauli string must give X, Y or Z per target")
        op = _letters_at(n, dict(zip(qs, letters)))
        kraus = [
            (0.5, StabKraus(1, sc.StabProjector(n, [(op, +1)]), ())),
            (0.5, StabKraus(1, sc.StabProjector(n, [(op, -1)]), ())),
        ]
        return SimulableChannel(n, [], kraus)
    raise ChannelError(f"unknown channel {name!r}")


def gates_from_json(spec) -> tuple:
    """Gate list [[name, targets...], ...] as (NAME, targets...) tuples.

    Checks the shape only; sc.check_gate checks names, arities and targets.
    """
    if not isinstance(spec, (list, tuple)):
        raise ChannelError(f"gate list must be an array, got {spec!r}")
    for g in spec:
        if (not isinstance(g, (list, tuple)) or not g or not isinstance(g[0], str)
                or any(isinstance(t, bool) or not isinstance(t, (int, np.integer)) for t in g[1:])):
            raise ChannelError(f"bad gate spec {g!r}; expected [name, integer targets...]")
    return tuple((g[0].upper(), *(int(t) for t in g[1:])) for g in spec)


_JSON_KINDS = {"number": (int, float), "integer": (int,), "string": (str,), "array": (list, tuple),
               "object": (dict,)}


def _json_value(value, kind: str, what: str):
    """value as a JSON value of that kind, else ChannelError naming it."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ChannelError(f"bad channel entry {what}={value!r}; expected {kind}")
    return value


def _json_entry(entry, *kinds: str):
    """entry as a JSON array of len(kinds) values of those kinds, else ChannelError."""
    if (not isinstance(entry, (list, tuple)) or len(entry) != len(kinds)
            or any(isinstance(v, bool) or not isinstance(v, _JSON_KINDS[k])
                   for v, k in zip(entry, kinds))):
        raise ChannelError(f"bad channel entry {entry!r}; expected [{', '.join(kinds)}]")
    return entry


def channel_from_json(obj: dict, n: int) -> SimulableChannel:
    """Channel spec: {"type", "qubits", "params"} or explicit unitary/kraus.

    An explicit unitary entry is [p, gates] and a Kraus entry is
    [q, h, generators, gates] with generators [[word, sign], ...].
    """
    if "type" in obj:
        return builtin_channel(obj["type"], obj.get("qubits", []), n, obj.get("params"))
    unitary_spec, kraus_spec = obj.get("unitary", []), obj.get("kraus", [])
    if not isinstance(unitary_spec, (list, tuple)) or not isinstance(kraus_spec, (list, tuple)):
        raise ChannelError("explicit 'unitary' and 'kraus' parts must be arrays")
    unitary = []
    for entry in unitary_spec:
        p, gates = _json_entry(entry, "number", "array")
        unitary.append((float(p), gates_from_json(gates)))
    kraus = []
    for entry in kraus_spec:
        q, h, generators, gates = _json_entry(entry, "number", "integer", "array", "array")
        ops = []
        for generator in generators:
            word, sign = _json_entry(generator, "string", "integer")
            ops.append((sc.PauliOp.from_letters(word), sign))
        kraus.append((float(q), StabKraus(h, sc.StabProjector(n, ops), gates_from_json(gates))))
    return SimulableChannel(n, unitary, kraus)


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
