"""Dyadic frame quasiprobability simulator.

A Born probability Tr[Pi E(rho)] is estimated by Monte Carlo over dyads: an
initial dyad is drawn from the quasiprobability weights, then propagated
through each channel by sampling one unitary or Kraus branch.  Kraus branches
are chosen with trace-norm probabilities, which keeps every propagated dyad at
unit amplitude and caps each sample at the decomposition's l1 weight exactly;
the shortfall of the branch probabilities is an abort that contributes zero.

The input is a product of factors, and an initial dyad is drawn factor by
factor: one uniform per factor, whose terms are picked with probability
|alpha_j| / l1 of that factor.  A joint dyad is tensored only when a sample
first draws it.  Dyads are propagated only up to the last channel with a
Kraus part.  Every later branch is a Clifford unitary U, and
Tr[E U|L><R|U^dag] = <R|U^dag E U|L>, so the measurement E is pulled back
through the sampled tail instead (Heisenberg picture) and evaluated on the
dyad where the Kraus part ends.  With no Kraus part at all and a Pauli
measurement, a product of one-qubit factors is evaluated qubit by qubit and
no joint dyad is built (_qubit_tables).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import stab_core as sc
from ._util import kahan_sum, run_chunked, sample_rng
from .channels import ChannelError, Dyad, DyadicDecomposition, SimulableChannel

_P0_TOL = 1e-12
_I_POW = (1, 1j, -1, -1j)
# refused before any sampling: at ~16 us per sample this is still over four hours
MAX_SAMPLES = 10**9
# roots kept per process with their trees; a root drawn past this many is
# built for its sample and dropped, so a wide product's walk stays bounded
MAX_CACHED_ROOTS = 1024


@dataclass(frozen=True)
class EstimateReport:
    mu_hat: float
    epsilon: float
    p_fail: float
    M: int
    seed: int
    per_sample_bound: float
    aborted: int = 0

    def to_dict(self) -> dict:
        return {
            "mu_hat": self.mu_hat,
            "epsilon": self.epsilon,
            "p_fail": self.p_fail,
            "M": self.M,
            "seed": self.seed,
            "per_sample_bound": self.per_sample_bound,
            "aborted": self.aborted,
        }


def required_samples(l1: float, epsilon: float, p_fail: float) -> int:
    """Hoeffding count for samples bounded by the l1 weight."""
    if epsilon <= 0 or not 0 < p_fail < 1:
        raise ValueError("need epsilon > 0 and p_fail in (0, 1)")
    return int(math.ceil(2.0 * l1 * l1 * epsilon**-2 * math.log(2.0 / p_fail)))


def _unit(state: sc.StabState) -> sc.StabState:
    out, _ = sc.with_unit_amplitude(state)
    return out


def _cumulative(probs: list[float]) -> list[float]:
    total = sum(probs)
    if total > 1.0 + _P0_TOL * max(1, len(probs)):
        raise ChannelError(f"branch probabilities sum to {total}")
    return list(accumulate(probs))


def _tail_start(chans) -> int:
    """Index after the last channel with a Kraus part; the rest is Clifford."""
    return max((l + 1 for l, chan in enumerate(chans) if chan.kraus_part), default=0)


def _pull_back(measurement, gates):
    """U^dag E U for the tail circuit U, as (cache key, operator, power of i).

    A Pauli i^k X^x Z^z is keyed by x and z and returned without its i^k,
    which multiplies the leaf value afterwards; a projector keeps its
    generators' phases and is keyed on them.  The gates are a channel
    branch's, checked when the channel was built.
    """
    if isinstance(measurement, sc.PauliOp):
        p = sc._conjugate_pauli_unchecked(measurement, gates)
        return (p.x.tobytes(), p.z.tobytes()), sc.PauliOp(p.x, p.z), p.k
    gens = [(sc._conjugate_pauli_unchecked(op, gates), sign) for op, sign in measurement.generators]
    key = tuple((op.x.tobytes(), op.z.tobytes(), (op.k + 1 - sign) % 4) for op, sign in gens)
    return key, sc.StabProjector(measurement.n, gens), 0


def _leaf_value(dyad: Dyad, op) -> complex:
    """Tr[op |L><R|] = <R|op|L>; a diagonal dyad under a Pauli needs no overlap."""
    if isinstance(op, sc.StabProjector):
        Lm, _ = sc.project_stab(dyad.L, op)
    elif dyad.R is dyad.L:
        return sc.pauli_expectation(dyad.L, op)
    else:
        Lm = sc.apply_pauli(dyad.L, op)
    return sc.inner_product(dyad.R, Lm)


class _Node:
    """Node of the trajectory tree: a dyad plus its branch distribution per channel.

    The tree covers the channels up to the last one with a Kraus part.  Its
    roots are the input's joint dyads, each tensored when a sample first
    draws it and cached by its index tuple (_root, _chunk_worker).  The
    branch path fully determines the dyad, so transition probabilities and
    leaf values are computed once and shared by every sample that walks the
    same path.  Unitary and Kraus branches share one joint distribution; the
    tail mass is the abort.  A Kraus child is built with its probability,
    which needs the projection anyway; a unitary child stays a gate list
    until a sample first walks into it.  A diagonal dyad, such as every
    sigma term or a joint dyad of diagonal factor terms, stays diagonal and
    is propagated once per branch.  A leaf keeps its values keyed by the
    content of the measurement pulled back through the Clifford tail.
    """

    __slots__ = ("dyad", "cum", "children", "values")

    def __init__(self, dyad: Dyad | None):
        self.dyad = dyad
        self.cum = None
        self.children = None
        self.values = {}

    def expand(self, chan: SimulableChannel) -> None:
        probs = [p for p, _ in chan.unitary_part]
        kids = [gates for _, gates in chan.unitary_part]
        L, R = self.dyad.L, self.dyad.R
        for q, k in chan.kraus_part:
            Lp, nl = sc.project_stab(L, k.proj)
            Rp, nr = (Lp, nl) if R is L else sc.project_stab(R, k.proj)
            pr = q * (2.0**k.h) * nl * nr
            if pr > 0.0:
                Lp = _unit(sc.apply_circuit(Lp, k.circuit))
                Rp = Lp if R is L else _unit(sc.apply_circuit(Rp, k.circuit))
                kids.append(_Node(Dyad(Lp, Rp)))
            else:
                kids.append(None)
            probs.append(pr)
        self.cum = _cumulative(probs)
        self.children = kids

    def child(self, j: int) -> _Node:
        kid = self.children[j]
        if isinstance(kid, tuple):
            L, R = self.dyad.L, self.dyad.R
            Lc = sc.apply_circuit(L, kid)
            kid = self.children[j] = _Node(Dyad(Lc, Lc if R is L else sc.apply_circuit(R, kid)))
        return kid


def _payload(decomp: DyadicDecomposition, chans, measurement, seed: int):
    """What each chunk reads: the inputs, an empty root cache and, when the
    per-qubit leaf rule applies, the factor tables of _qubit_tables."""
    per_qubit = (_tail_start(chans) == 0 and isinstance(measurement, sc.PauliOp)
                 and len(decomp.factors) == decomp.n)
    return decomp, chans, measurement, seed, {}, _qubit_tables(decomp) if per_qubit else None


def _qubit_tables(decomp: DyadicDecomposition) -> np.ndarray:
    """tab[q, j, 2x + z] = phase_j <R_j|X^x Z^z|L_j> over the terms j of qubit q.

    With no Kraus channel the trajectory tree is empty, and a Pauli pulled
    back through the tail, i^k X^x Z^z, meets a product dyad as
    i^k prod_q <R_q|X^{x_q} Z^{z_q}|L_q>.  Rows past a factor's last term
    are zero and never drawn; a factor shared by several qubits is read once.
    """
    paulis = [sc.PauliOp(np.array([x]), np.array([z])) for x in (0, 1) for z in (0, 1)]
    tab = np.zeros((decomp.n, max(len(f) for f in decomp.factors), 4), dtype=complex)
    rows = {}
    for q, (factor, (_, phases)) in enumerate(zip(decomp.factors, decomp.sampling_arrays())):
        if id(factor) not in rows:
            rows[id(factor)] = [[ph * _leaf_value(d, p) for p in paulis]
                                for (_, d), ph in zip(factor, phases)]
        tab[q, : len(factor)] = rows[id(factor)]
    return tab


def _root(decomp: DyadicDecomposition, idx: tuple) -> tuple[_Node, complex]:
    """The root with term idx[f] of factor f, and its unit phase."""
    phase = 1
    for (_, phases), j in zip(decomp.sampling_arrays(), idx):
        phase = phase * phases[j]
    return _Node(decomp.terms.joint(idx)[1]), phase


def _chunk_worker(payload, lo: int, hi: int):
    """Samples lo..hi-1: column f of the chunk's draws picks the term of
    factor f, and column F + l the branch at channel l, F being the factor
    count.

    A root is tensored when a sample first draws it and is cached by its
    index tuple, up to MAX_CACHED_ROOTS roots.  The trajectory tree is walked through the head channels
    only.  A tail channel's branches do not depend on the dyad, so each tail
    column is drawn for the whole chunk at once, and the measurement is
    pulled back once per distinct tail path: Tr[E U|L><R|U^dag] =
    <R|U^dag E U|L>.  With factor tables (see _qubit_tables) no root is
    built and a chunk's leaf values are one gather and product.
    """
    decomp, chans, measurement, seed, roots, tables = payload
    cut = _tail_start(chans)
    head, tail = chans[:cut], chans[cut:]
    nf = len(decomp.factors)
    draws = sample_rng(seed, lo).random((hi - lo, nf + len(chans)))
    picked = np.empty((hi - lo, nf), dtype=np.int64)
    for f, (cum, _) in enumerate(decomp.sampling_arrays()):
        picked[:, f] = np.minimum(np.searchsorted(cum, draws[:, f], side="right"), len(cum) - 1)
    picks = np.empty((hi - lo, len(tail)), dtype=np.int64)
    tail_aborts = np.zeros(hi - lo, dtype=bool)
    for l, chan in enumerate(tail):
        cum = _cumulative([p for p, _ in chan.unitary_part])
        picks[:, l] = np.searchsorted(cum, draws[:, nf + cut + l], side="right")
        tail_aborts |= picks[:, l] >= len(cum)
    # each distinct tail path of the chunk pulls the measurement back once
    path_ids = np.zeros(hi - lo, dtype=np.int64)
    pulled, seen = [], {}
    for i, (path, tail_abort) in enumerate(zip(picks.tolist(), tail_aborts.tolist())):
        if tail_abort:
            continue
        path = tuple(path)
        if path not in seen:
            seen[path] = len(pulled)
            gates = [g for chan, j in zip(tail, path) for g in chan.unitary_part[j][1]]
            pulled.append(_pull_back(measurement, gates))
        path_ids[i] = seen[path]
    bound = decomp.l1
    if tables is not None:
        return _qubit_leaves(tables, picked, pulled, path_ids, tail_aborts, bound, lo)
    values = []
    aborted = 0
    for index, idx, row, pid, tail_abort in zip(
        range(lo, hi), picked.tolist(), draws[:, nf : nf + cut].tolist(), path_ids.tolist(),
        tail_aborts.tolist()
    ):
        idx = tuple(idx)
        root = roots.get(idx)
        if root is None:
            root = _root(decomp, idx)
            if len(roots) < MAX_CACHED_ROOTS:
                roots[idx] = root
        node, phase = root
        for chan, u in zip(head, row):
            if node.children is None:
                node.expand(chan)
            j = bisect_right(node.cum, u)
            if j >= len(node.cum):
                node = None
                break
            node = node.child(j)
        if node is None or tail_abort:
            aborted += 1
            values.append(0.0)
            continue
        key, op, k = pulled[pid]
        value = node.values.get(key)
        if value is None:
            value = node.values[key] = _leaf_value(node.dyad, op)
        if k:
            value = value * _I_POW[k]
        # a leaf lies under one root only, so its phase is fixed with it
        mu = bound * float(np.real(phase * value))
        if abs(mu) > bound + 1e-9:
            raise RuntimeError(f"sample {index} exceeded the l1 bound: {mu}")
        values.append(mu)
    return kahan_sum(values), aborted


def _qubit_leaves(tables, picked, pulled, path_ids, tail_aborts, bound: float, lo: int):
    """A chunk's samples under the per-qubit leaf rule, summed in sample order."""
    n = tables.shape[0]
    # aborted samples read path 0 and are zeroed after; the spare row serves
    # a chunk in which every sample aborts
    codes = np.zeros((len(pulled) + 1, n), dtype=np.int64)
    ks = np.zeros(len(pulled) + 1, dtype=np.int64)
    for p, (_, op, k) in enumerate(pulled):
        codes[p] = 2 * op.x + op.z
        ks[p] = k
    leaves = tables[np.arange(n), picked, codes[path_ids]].prod(axis=1)
    mu = bound * np.real(np.asarray(_I_POW)[ks[path_ids]] * leaves)
    mu[tail_aborts] = 0.0
    over = np.flatnonzero(np.abs(mu) > bound + 1e-9)
    if over.size:
        raise RuntimeError(f"sample {lo + int(over[0])} exceeded the l1 bound: {mu[over[0]]}")
    return kahan_sum(mu.tolist()), int(tail_aborts.sum())


def estimate_born(
    decomp: DyadicDecomposition,
    circuit,
    measurement,
    epsilon: float,
    p_fail: float,
    seed: int,
    workers: int | None = None,
) -> EstimateReport:
    """Estimate Tr[Pi E(rho)] (or a Pauli expectation) to epsilon, p_fail.

    measurement is a StabProjector or a Hermitian PauliOp; the Pauli case
    evaluates both halves of E = Pi+ - Pi- in a single inner product.  The
    sampling loop is chunked so results are reproducible for a fixed seed at
    any worker count.
    """
    chans = list(circuit)
    for chan in chans:
        if chan.n != decomp.n:
            raise ValueError("channel width differs from the state width")
    if isinstance(measurement, sc.PauliOp):
        if measurement.n != decomp.n:
            raise ValueError("measurement width differs from the state width")
        if not measurement.is_hermitian():
            raise ValueError("Pauli observable must be Hermitian")
    elif measurement.n != decomp.n:
        raise ValueError("measurement width differs from the state width")
    M = required_samples(decomp.l1, epsilon, p_fail)
    if M > MAX_SAMPLES:
        raise ValueError(f"the run needs {M} samples, above the ceiling of {MAX_SAMPLES}")
    results = run_chunked(_chunk_worker, _payload(decomp, chans, measurement, seed), M, workers)
    mu_hat = kahan_sum([r[0] for r in results]) / M
    aborted = sum(r[1] for r in results)
    return EstimateReport(
        mu_hat=float(mu_hat),
        epsilon=float(epsilon),
        p_fail=float(p_fail),
        M=M,
        seed=int(seed),
        per_sample_bound=decomp.l1,
        aborted=aborted,
    )
