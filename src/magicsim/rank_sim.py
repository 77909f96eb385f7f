"""Mixed-state stabilizer-rank simulator: sparsification and bit sampling.

A pure state with a known stabilizer expansion is approximated by a random
k-term vector whose terms are drawn from the expansion's l1 distribution.
Bit strings are then sampled through a chain of conditional probabilities,
each estimated either by a randomized norm sketch over equatorial stabilizer
states (Bravyi et al., arXiv:1808.00128) or, with norm_backend="exact", by
exact Gram-matrix norms.  Up to six qubits the sketch reads dense amplitudes
filled from the terms' amplitude forms, and a draw is one integer naming an
equatorial state.  Mixed inputs are ensembles of pure decompositions sampled
per string.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import decompositions, monotones
from . import stab_core as sc
from ._util import MAX_DENSE_QUBITS, Stream, sample_rng

_ATOL = 1e-8

NORM_BACKENDS = ("fastnorm", "exact")

# stabilizer overlaps a `sample` run may be predicted to need; at the 30 to
# 100 us an overlap costs, this is half a minute to two minutes of work
MAX_SAMPLE_OVERLAPS = 10**6


class RankSimError(ValueError):
    pass


def _as_generator(seed) -> Stream:
    """sample_rng(seed, 0) for an integer seed; any other object is the generator."""
    if isinstance(seed, (int, np.integer)):
        return sample_rng(int(seed), 0)
    return seed


class _TermSet:
    """Fixed tuple of stabilizer terms with cached Gram data and projections.

    Entries may be None after a projection annihilates a term; their Gram
    rows and columns are zero.  Sharing one _TermSet across every
    sparsification of the same decomposition lets all norm computations for
    a given measurement prefix reuse one Gram matrix.
    """

    __slots__ = ("terms", "n", "_gram", "_children", "_dense")

    def __init__(self, terms, n: int | None = None):
        self.terms = tuple(terms)
        if n is None:
            n = next(t.n for t in self.terms if t is not None)
        self.n = n
        self._gram = None
        self._children = {}
        self._dense = None

    def gram(self) -> np.ndarray:
        if self._gram is None:
            kk = len(self.terms)
            g = np.zeros((kk, kk), dtype=complex)
            forms = [None if t is None else sc.amplitude_form(t) for t in self.terms]
            for j, fj in enumerate(forms):
                if fj is None:
                    continue
                g[j, j] = abs(self.terms[j].scalar()) ** 2
                for l in range(j + 1, kk):
                    if forms[l] is not None:
                        g[j, l] = sc.overlap(fj, forms[l])
                        g[l, j] = np.conj(g[j, l])
            self._gram = g
        return self._gram

    def child(self, qubit: int, bit: int) -> "_TermSet":
        key = (qubit, bit)
        out = self._children.get(key)
        if out is None:
            pauli = sc.PauliOp.single(self.n, qubit, "Z")
            sign = 1 if bit == 0 else -1
            projected = []
            for t in self.terms:
                if t is None:
                    projected.append(None)
                    continue
                pt, rel = sc.project_pauli(t, pauli, sign)
                projected.append(None if rel == 0.0 else pt)
            out = _TermSet(projected, self.n)
            self._children[key] = out
        return out

    def dense_matrix(self) -> np.ndarray:
        """Dense amplitudes of the terms, one row each (zero for None), each
        filled in one pass over its amplitude form's support y = Y (w, 1):
        c i^((L.y + 2 y^T T y) mod 4) at index sum_q y_q 2^(n-1-q)."""
        if self._dense is None:
            if self.n > MAX_DENSE_QUBITS:
                raise RankSimError("too wide for dense expansion")
            rows = np.zeros((len(self.terms), 2**self.n), dtype=complex)
            place = 1 << np.arange(self.n - 1, -1, -1)
            for j, t in enumerate(self.terms):
                if t is not None:
                    f = sc.amplitude_form(t)
                    k = f.Y.shape[1]  # the rows of w1 are (w, 1) over all w
                    w1 = np.arange(2 ** (k - 1), 2**k)[:, None] >> np.arange(k) & 1
                    y = (w1 @ f.Y.T) & 1
                    expo = y @ f.L + 2 * np.sum((y @ f.T) * y, axis=1)
                    rows[j, y @ place] = f.c * np.take(sc._I_POW, expo & 3)
            self._dense = rows
        return self._dense


class SparseDecomposition:
    """Stabilizer expansion psi = sum_j c_j |phi_j> of a normalized state.

    Norms, C and sparsification all read one term set,
    the phase-absorbed terms (c_j/|c_j|)|phi_j>, weighted by |c_j|.
    """

    __slots__ = ("coeffs", "terms", "n", "l1", "_mags", "_probs", "_termset", "_norm_sq", "_C")

    def __init__(self, coeffs, terms):
        coeffs = np.asarray([complex(c) for c in coeffs], dtype=complex)
        terms = tuple(terms)
        if coeffs.shape[0] != len(terms):
            raise RankSimError("coefficient and term counts differ")
        keep = np.abs(coeffs) > 1e-14
        terms = tuple(t for t, kept in zip(terms, keep) if kept)
        if len(terms) == 0:
            raise RankSimError("decomposition needs a nonzero term")
        if any(t.n != terms[0].n or t.null for t in terms):
            raise RankSimError("terms must be non-null states of equal width")
        self._store(coeffs[keep], terms)
        self._norm_sq = float(np.real(self._mags @ self._termset.gram() @ self._mags))
        self._C = None
        if abs(self._norm_sq - 1.0) > _ATOL:
            raise RankSimError(f"decomposition norm^2 is {self._norm_sq}, expected 1")

    @classmethod
    def product(cls, factors) -> "SparseDecomposition":
        """Tensor product of decompositions, the first one's qubits outermost.

        Joint term j_1..j_m is c_j1 ... c_jm |phi_j1> (x) ... (x) |phi_jm>,
        the first factor's index outermost.  The norm and C are the products
        of the factors', so no Gram matrix is built here; the exact backend
        builds one from overlaps when it first reads it.  The factors were
        checked when they were built, so nothing is checked again.
        """
        factors = list(factors)
        if not factors:
            raise RankSimError("product needs at least one factor")
        joint = list(itertools.product(*(list(zip(f.coeffs, f.terms)) for f in factors)))
        out = cls.__new__(cls)
        out._store(np.array([functools.reduce(operator.mul, (c for c, _ in combo)) for combo in joint]),
                   tuple(sc.tensor(*(t for _, t in combo)) for combo in joint))
        out._norm_sq = math.prod(f.norm_sq() for f in factors)
        out._C = math.prod(f.C for f in factors)
        return out

    def _store(self, coeffs: np.ndarray, terms: tuple) -> None:
        mags = np.abs(coeffs)
        self.coeffs = coeffs
        self.terms = terms
        self.n = terms[0].n
        self.l1 = float(np.sum(mags))
        self._mags = mags
        self._probs = mags / np.sum(mags)
        # terms with the unit coefficient phases folded into their scalars
        self._termset = _TermSet(sc.multiply_phase(t, c / m) for c, m, t in zip(coeffs, mags, terms))

    def termset(self) -> _TermSet:
        return self._termset

    def sampling_probs(self) -> np.ndarray:
        return self._probs

    def norm_sq(self) -> float:
        return self._norm_sq

    @property
    def C(self) -> float:
        # C = ||c||_1 sum_j |c_j| |<psi|phi_j>|^2, via the Gram matrix
        if self._C is None:
            overlaps = self._mags @ self._termset.gram()
            self._C = float(self.l1 * np.sum(self._mags * np.abs(overlaps) ** 2))
        return self._C


class SparseVector:
    """Random k-term approximation Omega = (||c||_1/k) sum_a |omega_a>.

    Internally the k draws are collapsed to multiplicity counts over the
    decomposition's term set (coefficient phases absorbed), so norms reduce
    to a quadratic form in the shared Gram matrix, and an equatorial
    overlap is a count-weighted sum of one stab_core.overlap per distinct
    drawn term.
    """

    __slots__ = ("k", "prefactor", "counts", "_termset")

    def __init__(self, termset: _TermSet, counts, k: int, prefactor: float):
        self._termset = termset
        self.counts = np.asarray(counts, dtype=float)
        if self.counts.shape[0] != len(termset.terms):
            raise RankSimError("count vector does not match term set")
        self.k = int(k)
        self.prefactor = float(prefactor)

    @property
    def n(self) -> int:
        return self._termset.n

    def norm_sq(self) -> float:
        g = self._termset.gram()
        return self.prefactor**2 * float(np.real(self.counts @ g @ self.counts))

    def dense(self) -> np.ndarray:
        return self.prefactor * (self.counts @ self._termset.dense_matrix())

    def project_basis_bit(self, qubit: int, bit: int) -> "SparseVector":
        return SparseVector(self._termset.child(qubit, bit), self.counts, self.k, self.prefactor)

    def equatorial_overlap(self, A: np.ndarray) -> complex:
        """<phi_A|Omega> for the equatorial state indexed by A."""
        phi = sc.equatorial_form(A)
        drawn = [(t, m) for t, m in zip(self._termset.terms, self.counts) if t is not None and m]
        return self.prefactor * sum((m * sc.overlap(phi, sc.amplitude_form(t)) for t, m in drawn), 0j)


def sparsify(d: SparseDecomposition, k: int, seed) -> SparseVector:
    """Draw k i.i.d. terms (c_j/|c_j|)|phi_j> with probability |c_j|/||c||_1."""
    if k < 1:
        raise RankSimError("k must be at least 1")
    rng = _as_generator(seed)
    counts = rng.multinomial(k, d.sampling_probs())
    return SparseVector(d.termset(), counts, k, d.l1 / k)


_NEG_I_POW = np.array([1.0, -1.0j, -1.0, 1.0j])


@functools.lru_cache(maxsize=None)
def _equatorial_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """uint8 tables of the exponent x^T A x over basis labels x, qubit 0 first.

    Row sum_q d_q 4^q of the first table holds sum_q d_q x_q for the diagonal
    d in {0..3}^n.  Row sum_p o_p 2^p of the second holds 2 sum_p o_p x_j x_l
    for the off-diagonal bits o, pairs p = (j, l), j < l, in lexicographic
    order.  Their sum is at most 3n + n(n-1) <= 48 for n <= 6.
    """
    labels = np.arange(2**n)
    bits = np.array([(labels >> (n - 1 - q)) & 1 for q in range(n)], dtype=np.uint8)
    pair_bits = np.array([bits[j] * bits[l] for j, l in itertools.combinations(range(n), 2)],
                         dtype=np.uint8).reshape(-1, 2**n)

    def digits(base: int, width: int) -> np.ndarray:
        return (np.arange(base**width)[:, None] // base ** np.arange(width) % base).astype(np.uint8)

    # every partial sum stays below 256, so the products run in uint8 throughout
    return digits(4, n) @ bits, 2 * (digits(2, len(pair_bits)) @ pair_bits)


def _equatorial_etas(diag_table: np.ndarray, off_table: np.ndarray, vdense: np.ndarray) -> np.ndarray:
    """|sum_x (-i)^{x^T A x} v(x)|^2 for every equatorial A, at row d*no + o.

    Built in blocks of whole diagonal rows of about 2048 entries in all.
    """
    no = len(off_table)
    right = (_NEG_I_POW.take(off_table & 3) * vdense).T
    out = np.empty(len(diag_table) * no)
    step = max(1, 2048 // no)
    for lo in range(0, len(diag_table), step):
        amps = _NEG_I_POW.take(diag_table[lo : lo + step] & 3) @ right
        out[lo * no : lo * no + amps.size] = (np.abs(amps) ** 2).ravel()
    return out


def _median(values) -> float:
    """np.median of a nonempty sequence, without np.median's import of numpy.ma."""
    s = np.sort(values)
    k = len(s) // 2
    return float(s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2)


def fast_norm(v: SparseVector, eps_fn: float, p_fn: float, seed) -> float:
    """Multiplicative norm-squared sketch over random equatorial states.

    Returns eta with (1-eps_fn)||v||^2 <= eta <= (1+eps_fn)||v||^2 with
    probability at least 1-p_fn: the median of ceil(8 ln(2/p_fn)) batch
    means, each batch averaging ceil(4/eps_fn^2) draws of the unbiased
    single-state estimate eta_A = 2^n |<phi_A|v>|^2.

    For n <= 6 a draw is one uniform integer a < nd*no, naming row
    d = a // no of the nd-row diagonal and row o = a % no of the no-row
    off-diagonal _equatorial_grid table.  Each batch is drawn in one call
    and only its draws are held; nd*no is a power of two, so a draw is the
    stream's next quarter- or half-word, however the draws are split.  A
    call that makes at least nd*no draws, one per equatorial state, first
    tabulates every state's eta as one product of the two phase tables,
    (-i)^diag times ((-i)^off * v)^T, exact as (-i)^(a+b) = (-i)^a (-i)^b,
    and a batch mean averages the entries its draws name.  A call with fewer
    draws sums each draw's exponents x^T A x from rows d and o and
    multiplies the dense vector by row slices of at most 32768 phases.
    Wider vectors draw A's digits and bits in blocks of up to 32768, keep
    every draw's eta and take one SparseVector.equatorial_overlap per draw,
    an exponential sum per distinct drawn term.
    """
    if not 0.0 < eps_fn <= 0.2:
        raise RankSimError("eps_fn must lie in (0, 1/5]")
    if not 0.0 < p_fn < 1.0:
        raise RankSimError("p_fn must lie in (0, 1)")
    rng = _as_generator(seed)
    n = v.n
    batch, nbatches = _sketch_shape(eps_fn, p_fn)
    total = batch * nbatches
    if n <= MAX_DENSE_QUBITS:
        diag_table, off_table = _equatorial_grid(n)
        nd, no = len(diag_table), len(off_table)
        vdense = v.dense()
        table = _equatorial_etas(diag_table, off_table, vdense) if total >= nd * no else None
        means = []
        for _ in range(nbatches):
            a = rng.integers(0, nd * no, batch)
            if table is not None:
                means.append(table.take(a).mean())
                continue
            # eta_A = |sum_x (-i)^{x^T A x} v(x)|^2; the 2^n prefactor
            # cancels against the equatorial amplitude normalization.
            d, o = np.divmod(a, no)
            etas = np.empty(batch)
            # rows per product, so that no complex temporary passes 32768 entries
            step = max(1, 32768 >> n)
            for lo in range(0, batch, step):
                # take copies whole rows, several times faster than fancy indexing
                expo = diag_table.take(d[lo : lo + step], axis=0)
                expo += off_table.take(o[lo : lo + step], axis=0)
                etas[lo : lo + step] = np.abs(_NEG_I_POW.take(expo & 3) @ vdense) ** 2
            means.append(etas.mean())
        return _median(means)
    pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]
    etas = np.empty(total)
    for lo in range(0, total, 32768):
        m = min(32768, total - lo)
        diags = rng.integers(0, 4, size=(m, n))
        offs = rng.integers(0, 2, size=(m, len(pairs)))
        for r in range(m):
            A = np.diag(diags[r])
            for idx, (j, l) in enumerate(pairs):
                A[j, l] = A[l, j] = offs[r, idx]
            etas[lo + r] = 2.0**n * abs(v.equatorial_overlap(A)) ** 2
    return _median([row.mean() for row in etas.reshape(nbatches, batch)])


def _sketch_shape(eps_fn: float, p_fn: float) -> tuple[int, int]:
    """(draws per batch, batches) of one fast_norm call."""
    return math.ceil(4.0 / eps_fn**2), math.ceil(8.0 * math.log(2.0 / p_fn))


class MixedInput:
    """Ensemble rho = sum_j p_j |psi_j><psi_j| of decomposed pure states."""

    __slots__ = ("ensemble", "n", "Xi_tilde", "equimagical")

    def __init__(self, ensemble):
        ensemble = tuple((float(p), d) for p, d in ensemble)
        if not ensemble:
            raise RankSimError("ensemble needs at least one part")
        if any(p < -1e-12 for p, _ in ensemble):
            raise RankSimError("ensemble weights must be nonnegative")
        total = sum(p for p, _ in ensemble)
        if abs(total - 1.0) > _ATOL:
            raise RankSimError(f"ensemble weights sum to {total}, expected 1")
        n = ensemble[0][1].n
        if any(d.n != n for _, d in ensemble):
            raise RankSimError("mixed widths in ensemble")
        self.ensemble = ensemble
        self.n = n
        self.Xi_tilde = float(sum(p * d.l1**2 for p, d in ensemble))
        l1sq = [d.l1**2 for _, d in ensemble]
        self.equimagical = max(l1sq) - min(l1sq) <= _ATOL

    def dense(self) -> np.ndarray:
        from .dense_oracle import mixed_matrix

        return mixed_matrix(self)


def mixed_input_product(states) -> MixedInput:
    """Equimagical product input from single-qubit Bloch factors.

    Each factor decomposes into pure parts of equal extent whose optimal
    stabilizer expansions are checked one qubit at a time and joined by
    SparseDecomposition.product, so every ensemble member shares the same
    l1 weight and the sampler's per-string term count is deterministic.
    """
    states = list(states)
    if not states:
        raise RankSimError("need at least one qubit")
    per_qubit = []
    for rho in states:
        if not isinstance(rho, monotones.BlochState):
            rho = monotones.BlochState(*rho)
        per_qubit.append([(w, SparseDecomposition([c for c, _ in terms], [t for _, t in terms]))
                          for w, _, terms in decompositions.decompose_1q_state(rho)[1]])
    ensemble = []
    for combo in itertools.product(*per_qubit):
        weight = math.prod(w for w, _ in combo)
        if weight <= 1e-14:
            continue
        ensemble.append((weight, SparseDecomposition.product(d for _, d in combo)))
    total = sum(p for p, _ in ensemble)
    ensemble = [(p / total, d) for p, d in ensemble]
    return MixedInput(ensemble)


def _check_run(n: int, w: int, delta: float, p_fail: float, count: int, norm_backend: str) -> None:
    if w < 1 or w > n:
        raise RankSimError("w must lie in 1..n")
    if not 0.0 < delta < 1.0:
        raise RankSimError("delta must lie in (0, 1)")
    if not 0.0 < p_fail < 1.0:
        raise RankSimError("p_fail must lie in (0, 1)")
    if count < 1:
        raise RankSimError("count must be at least 1")
    if norm_backend not in NORM_BACKENDS:
        raise RankSimError(f"unknown norm backend {norm_backend!r}")


def _norm_budget(w: int, delta: float, p_fail: float) -> tuple[float, float]:
    """(eps_fn, p_fn) of every norm estimate: eps = 2 delta/3 over 3w, p_fail over 2w."""
    return min(2.0 * delta / (9.0 * w), 0.2), p_fail / (2.0 * w)


def check_sample_cost(states, w: int, delta: float, p_fail: float, count: int,
                      norm_backend: str = "fastnorm") -> int:
    """Predicted overlap count of a sample run, refused above MAX_SAMPLE_OVERLAPS.

    Read from the per-qubit decompositions alone, before anything is built.
    The build is counted as the Gram entries of mixed_input_product's parts,
    sum over parts of terms^2, which is prod_q sum_p t_qp^2 for t_qp terms
    in part p of qubit q.  The fastnorm backend computes none of them, but
    their count still sizes the input: each part's joint terms are built,
    and the exact backend fills a Gram matrix of that size by overlaps for
    every term set it reads.  Above the dense cap every fast_norm
    draw sums one overlap per drawn term, so the sketch adds count x (2w+1)
    x draws per call x k, with k at least the standard rule's
    ceil(12 l1^2 / delta).
    """
    states = list(states)
    n, w = len(states), int(w)
    _check_run(n, w, delta, p_fail, count, norm_backend)
    parts = [decompositions.decompose_1q_state(
        rho if isinstance(rho, monotones.BlochState) else monotones.BlochState(*rho))[1]
        for rho in states]
    work = math.prod(sum(len(terms) ** 2 for _, _, terms in qubit) for qubit in parts)
    if norm_backend == "fastnorm" and n > MAX_DENSE_QUBITS:
        l1 = math.prod(max(sum(abs(c) for c, _ in terms) for _, _, terms in qubit) for qubit in parts)
        batch, nbatches = _sketch_shape(*_norm_budget(w, delta, p_fail))
        work += count * (2 * w + 1) * batch * nbatches * math.ceil(12.0 * l1 * l1 / delta)
    if work > MAX_SAMPLE_OVERLAPS:
        raise RankSimError(f"the run is predicted to need {work} stabilizer overlaps, "
                           f"above the ceiling of {MAX_SAMPLE_OVERLAPS}")
    return work


@dataclass(frozen=True)
class RuntimeReport:
    """Per-run cost accounting for the bit-string sampler."""

    count: int
    w: int
    delta: float
    p_fail: float
    seed: int
    norm_backend: str
    regime: str
    ks: np.ndarray  # int64 term count per string
    fastnorm_calls: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "w": self.w,
            "delta": self.delta,
            "p_fail": self.p_fail,
            "seed": self.seed,
            "norm_backend": self.norm_backend,
            "regime": self.regime,
            "k_min": int(self.ks.min()),
            "k_max": int(self.ks.max()),
            "k_mean": float(self.ks.mean()),
            "fastnorm_calls": self.fastnorm_calls,
            "wall_time_s": self.wall_time_s,
        }


def sample_bitstrings(
    inp: MixedInput,
    w: int,
    delta: float,
    p_fail: float,
    count: int,
    seed: int,
    norm_backend: str = "fastnorm",
    prefix=(),
) -> tuple[list[str], RuntimeReport]:
    """Sample w-bit measurement strings from qubits 0..w-1 of the input.

    Per string: an ensemble part is drawn, sparsified to k terms, and the
    bits are sampled through a chain of conditional probabilities using at
    most 2w+1 norm estimates; whichever branch's direct estimate would fall
    below 1/2 is obtained by complementation instead of a second estimate.
    The term count follows the standard rule k = ceil(12 l1^2 / delta)
    unless delta < 24 max_j (C_j - 1)/l1_j^2, where the sharpened rule
    k = ceil(4 l1^2 (D/delta_S^2 + 1/delta_S)) with delta_S = delta/3 takes
    over.  The error budget splits as delta_S = delta/3, eps = 2 delta/3,
    eps_fn = eps/(3w), p_fn = p_fail/(2w).  An optional Clifford prefix is
    applied to the state before measurement.
    """
    w = int(w)
    _check_run(inp.n, w, delta, p_fail, count, norm_backend)
    start = time.perf_counter()
    termsets = [d.termset() for _, d in inp.ensemble]
    prefix = tuple(tuple(g) for g in prefix)
    if prefix:
        termsets = [_TermSet((sc.apply_circuit(t, prefix) for t in ts.terms), ts.n) for ts in termsets]
    cumw = np.cumsum([p for p, _ in inp.ensemble])
    cumw[-1] = 1.0

    l1sq = np.array([d.l1**2 for _, d in inp.ensemble])
    D = max(max((d.C - 1.0) / d.l1**2 for _, d in inp.ensemble), 0.0)
    delta_s = delta / 3.0
    if delta < 24.0 * D:
        regime = "sharpened"
        ks_by_part = np.ceil(4.0 * l1sq * (D / delta_s**2 + 1.0 / delta_s)).astype(np.int64)
    else:
        regime = "standard"
        ks_by_part = np.ceil(12.0 * l1sq / delta).astype(np.int64)
    eps_fn, p_fn = _norm_budget(w, delta, p_fail)
    calls = 0

    def norm(v: SparseVector, rng: Stream) -> float:
        nonlocal calls
        if norm_backend == "exact":
            return v.norm_sq()
        calls += 1
        return fast_norm(v, eps_fn, p_fn, rng)

    strings = []
    ks = np.empty(count, dtype=np.int64)
    for i in range(count):
        rng = sample_rng(seed, i)
        j = int(np.searchsorted(cumw, rng.random(), side="right"))
        d = inp.ensemble[j][1]
        k = int(ks_by_part[j])
        ks[i] = k
        counts = rng.multinomial(k, d.sampling_probs())
        vec = SparseVector(termsets[j], counts, k, d.l1 / k)

        level = norm(vec, rng)
        bits = []
        for b in range(w):
            v0 = vec.project_basis_bit(b, 0)
            if level <= 0.0:
                p0 = 0.5
            else:
                p0 = norm(v0, rng) / level
                if p0 >= 0.5:
                    p0 = 1.0 - norm(vec.project_basis_bit(b, 1), rng) / level
            p0 = min(max(p0, 0.0), 1.0)
            bit = 0 if rng.random() < p0 else 1
            bits.append(bit)
            vec = v0 if bit == 0 else vec.project_basis_bit(b, 1)
            level *= p0 if bit == 0 else 1.0 - p0
        strings.append("".join(map(str, bits)))

    report = RuntimeReport(
        count,
        w,
        delta,
        p_fail,
        seed,
        norm_backend,
        regime,
        ks,
        calls,
        time.perf_counter() - start,
    )
    return strings, report
