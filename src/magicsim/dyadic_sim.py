"""Dyadic frame quasiprobability simulator.

A Born probability Tr[Pi E(rho)] is estimated by Monte Carlo over dyads: an
initial dyad is drawn from the quasiprobability weights, then propagated
through each channel by sampling one unitary or Kraus branch.  Kraus branches
are chosen with trace-norm probabilities, which keeps every propagated dyad at
unit amplitude and caps each sample at the decomposition's l1 weight exactly;
the shortfall of the branch probabilities is an abort that contributes zero.

The input is a product of factors, and an initial dyad is drawn factor by
factor: one uniform per factor, whose terms are picked with probability
|alpha_j| / l1 of that factor.  Dyads are propagated only up to the last
channel with a Kraus part, the head.  Every later branch is a Clifford
unitary U, and Tr[E U|L><R|U^dag] = <R|U^dag E U|L>, so the measurement E
is pulled back through the sampled tail instead (Heisenberg picture) and
evaluated on the dyad where the head ends.

The qubits are split into independent blocks by one union-find over two
kinds of sets: each input factor's qubits, and each head channel's support
(the qubits of its unitary gates, Kraus circuits and projector generators).
No option selects the partition.  Each block walks its own trajectory tree
at its own width, through its head channels restricted to its qubits, from
roots that tensor the block's drawn factor terms.  A Pauli pulled back to
i^k P meets the product of the block dyads as i^k prod_b <R_b|P_b|L_b>, P_b
being P on block b's qubits, so a sample's value is a product of block leaf
values.  With no head channel, a product of one-qubit factors has one block
per qubit.  A projector of h generators is expanded into its 2^h signed
Pauli group elements of weight 2^-h, so every leaf is a Pauli leaf, the
partition ignores the measurement, and a sample reads 2^h leaf products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import stab_core as sc
from ._util import CHUNK, kahan_sum, run_chunked, sample_rng
from .channels import ChannelError, Dyad, DyadicDecomposition, StabKraus, _JointTerms
from .pauli import _I_POW, _set_bits

_P0_TOL = 1e-12
# refused before any sampling: at ~16 us per sample this is still over four hours
MAX_SAMPLES = 10**9
# roots kept per block and process with their trees; a root drawn past this
# many is walked in a tree that serves one chunk of samples, so a wide
# product's walk stays bounded
MAX_CACHED_ROOTS = 1024
# a projector of h generators costs 2^h leaf products per sample; more are refused
MAX_PROJECTOR_GENERATORS = 8
# (sample, term) values walked at once: a run's samples are walked in slices
# of at most this many, so a projector's 2^h terms hold little memory
_SLICE_VALUES = 1 << 15


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


def _pauli_terms(measurement) -> list[tuple[float, sc.PauliOp]]:
    """The measurement as (weight, Hermitian Pauli) terms: a Pauli is its own
    term, and a projector prod_i (1 + s_i g_i)/2 is 2^-h sum over subsets S
    of prod_{i in S} s_i g_i, each a product of commuting Hermitian Paulis.
    """
    if isinstance(measurement, sc.PauliOp):
        return [(1.0, measurement)]
    terms = [sc.PauliOp.identity(measurement.n)]
    for op, sign in measurement.generators:
        signed = sc.PauliOp(op.n, op.x, op.z, op.k + 1 - sign)
        terms += [t.mul(signed) for t in terms]
    return [(2.0**-measurement.h, t) for t in terms]


def _leaf_value(dyad: Dyad, op: sc.PauliOp) -> complex:
    """Tr[op |L><R|] = <R|op|L>; a diagonal dyad needs no overlap."""
    if dyad.R is dyad.L:
        return sc.pauli_expectation(dyad.L, op)
    return sc.inner_product(dyad.R, sc.apply_pauli(dyad.L, op))


class _Local(NamedTuple):
    """A head channel's branches on one block's qubits, in local indices."""

    unitary_part: tuple
    kraus_part: tuple


def _support(chan) -> set[int]:
    """Qubits of a channel's unitary gates, Kraus circuits and projector generators."""
    qubits = {t for _, gates in chan.unitary_part for g in gates for t in g[1:]}
    for _, k in chan.kraus_part:
        qubits.update(t for g in k.circuit for t in g[1:])
        for op, _ in k.proj.generators:
            qubits.update(_set_bits(op.x | op.z))
    return qubits


def _restrict(chan, qubits: list[int]):
    """chan on the listed qubits, numbered from 0 in that order.

    The channel's support lies inside them, so probabilities and branch
    dyads on a block are those of the joint walk.  Its gates were checked
    when it was built, and its completeness is the joint channel's.
    """
    if len(qubits) == chan.n:
        return chan
    local = {q: i for i, q in enumerate(qubits)}

    def relabel(gates):
        return tuple((g[0], *(local[t] for t in g[1:])) for g in gates)

    kraus = []
    for q, k in chan.kraus_part:
        gens = [(sc.PauliOp(len(qubits), _gather(op.x, qubits), _gather(op.z, qubits), op.k), sign)
                for op, sign in k.proj.generators]
        kraus.append((q, StabKraus(k.h, sc.StabProjector(len(qubits), gens), relabel(k.circuit))))
    return _Local(tuple((p, relabel(gates)) for p, gates in chan.unitary_part), tuple(kraus))


def _gather(mask: int, qubits: list[int]) -> int:
    """The bits of mask at the listed qubits, bit i taken from qubit qubits[i]."""
    return sum((mask >> q & 1) << i for i, q in enumerate(qubits))


class _Block:
    """An independent block: its qubits, its factors' numbers, its head
    channels on its qubits with their draw columns, and its trajectory tree."""

    __slots__ = ("qubits", "factors", "terms", "phases", "head", "cols", "tree")

    def __init__(self, decomp: DyadicDecomposition, qubits, factors, head):
        self.qubits = qubits
        self.factors = factors
        self.terms = _JointTerms(tuple(decomp.factors[f] for f in factors))
        self.phases = [decomp.sampling_arrays()[f][1] for f in factors]
        self.head = [_restrict(chan, qubits) for _, chan in head]
        self.cols = [col for col, _ in head]
        self.tree = _Tree(self)


def _blocks(decomp: DyadicDecomposition, chans) -> list[_Block]:
    """The independent blocks, ordered by their first qubit (see the module notes)."""
    n = decomp.n
    parent = list(range(n))

    def find(q: int) -> int:
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        return q

    def join(qubits) -> None:
        qubits = list(qubits)
        for q in qubits[1:]:
            parent[find(q)] = find(qubits[0])

    starts = list(accumulate((f[0][1].n for f in decomp.factors), initial=0))
    for lo, hi in zip(starts, starts[1:]):
        join(range(lo, hi))
    supports = [sorted(_support(chan)) for chan in chans[: _tail_start(chans)]]
    for qubits in supports:
        join(qubits)
    groups = {}
    for q in range(n):
        groups.setdefault(find(q), []).append(q)
    number = {root: b for b, root in enumerate(groups)}
    factors = [[] for _ in groups]
    for f, lo in enumerate(starts[:-1]):
        factors[number[find(lo)]].append(f)
    # a channel that touches no qubit branches the same on every dyad; the first block takes it
    head = [[] for _ in groups]
    for l, qubits in enumerate(supports):
        head[number[find(qubits[0])] if qubits else 0].append((len(decomp.factors) + l, chans[l]))
    return [_Block(decomp, qubits, fs, hs)
            for qubits, fs, hs in zip(groups.values(), factors, head)]


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d array of nonnegative integers, in sorted order:
    the index of one copy of each, and each row's number among them.

    The columns are packed into one integer per row, first column most
    significant; a prefix that would overflow is renumbered first.  Packed
    values in a range a few times the row count are numbered through a
    table, which is far cheaper than the sort in np.unique.
    """
    ids = np.zeros(len(a), dtype=np.int64)
    size = 1
    for col in a.T.astype(np.int64):
        radix = int(col.max()) + 1 if len(col) else 1
        if size * radix >= 2**62:
            _, ids = np.unique(ids, return_inverse=True)
            size = int(ids.max()) + 1
        ids = ids * radix + col
        size *= radix
    if size > 8 * len(ids) + 256:
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        return first, inverse
    where = np.full(size, -1, dtype=np.int64)
    where[ids] = np.arange(len(ids))
    present = where >= 0
    return where[present], (np.cumsum(present) - 1)[ids]


class _Level:
    """The nodes at one depth of a tree, by id, with the tables the walk reads.

    dyads[i] is node i's dyad; the branch path fully determines it, so
    branch probabilities and leaf values are computed once and shared by
    every sample that walks the same path.  cum[i] holds node i's cumulative
    branch probabilities, NaN until it is expanded (_expand), and kids[i, j]
    the id of its child j one level down, -1 until that child is built.  At
    the leaf level, values[i, key] caches node i's value under its block's
    part of a measurement term pulled back through the Clifford tail, keyed
    by that part's content.
    """

    __slots__ = ("dyads", "cum", "kids", "values")

    def __init__(self, branches: int):
        self.dyads = []
        self.cum = np.full((16, branches), np.nan)
        self.kids = np.full((16, branches), -1, dtype=np.int64)
        self.values = {}

    def add(self, dyad: Dyad) -> int:
        i = len(self.dyads)
        if i == len(self.cum):
            self.cum = np.concatenate([self.cum, np.full_like(self.cum, np.nan)])
            self.kids = np.concatenate([self.kids, np.full_like(self.kids, -1)])
        self.dyads.append(dyad)
        return i


def _expand(level: _Level, i: int, chan, below: _Level) -> None:
    """Expand node i of level through chan: write its cumulative branch
    probabilities and add each Kraus child of nonzero probability to below.

    Unitary and Kraus branches share one joint distribution; the tail mass
    is the abort.  A Kraus child is built with its probability, which needs
    the projection anyway; a unitary child is left to the walk, which
    applies its gates when a sample first reaches it.  A diagonal dyad,
    such as every sigma term or a joint dyad of diagonal factor terms,
    stays diagonal and is projected once per branch.
    """
    probs = [p for p, _ in chan.unitary_part]
    L, R = level.dyads[i].L, level.dyads[i].R
    for j, (q, k) in enumerate(chan.kraus_part, start=len(probs)):
        Lp, nl = sc.project_stab(L, k.proj)
        Rp, nr = (Lp, nl) if R is L else sc.project_stab(R, k.proj)
        pr = q * (2.0**k.h) * nl * nr
        if pr > 0.0:
            Lp = _unit(sc.apply_circuit(Lp, k.circuit))
            Rp = Lp if R is L else _unit(sc.apply_circuit(Rp, k.circuit))
            level.kids[i, j] = below.add(Dyad(Lp, Rp))
        probs.append(pr)
    level.cum[i] = _cumulative(probs)


class _Tree:
    """A block's trajectory tree, one _Level per head channel plus the leaves.

    Roots are the block's joint dyads, each tensored when a sample first
    draws it and keyed by the block's index tuple; phases[i] is root i's
    unit phase.  A tree that is not kept serves one walk and drops each
    level's dyads once the walk has passed it.
    """

    __slots__ = ("block", "keep", "roots", "phases", "levels")

    def __init__(self, block: _Block, keep: bool = True):
        self.block = block
        self.keep = keep
        self.roots = {}
        self.phases = []
        self.levels = [_Level(len(c.unitary_part) + len(c.kraus_part)) for c in block.head]
        self.levels.append(_Level(0))

    def add_root(self, idx: tuple) -> int:
        phase = 1
        for phases, j in zip(self.block.phases, idx):
            phase = phase * phases[j]
        self.phases.append(phase)
        self.roots[idx] = rid = self.levels[0].add(self.block.terms.joint(idx)[1])
        return rid

    def walk(self, ids: np.ndarray, draws: np.ndarray, key_ids: np.ndarray, keys: list):
        """Leaf values of samples that start at roots ids, and which reach a leaf.

        draws[s, d] is sample s's uniform at the block's head channel d, and
        keys[key_ids[s, t]] its (key, operator) for measurement term t on
        this block; the values have key_ids' shape.  Per depth, a node is
        expanded and a child built only for the distinct nodes that samples
        first reach.  The leaves are read once per distinct (leaf, key row)
        pair, a projector's samples sharing a few key rows, and a leaf
        value, phase * <R_b|P_b|L_b>, is computed once per leaf and key.
        """
        start, ids = ids, ids.copy()
        live = np.ones(len(ids), dtype=bool)
        levels = zip(self.block.head, self.levels, self.levels[1:])
        for d, (chan, level, below) in enumerate(levels):
            at = np.flatnonzero(live)
            here = ids[at]
            fresh = here[np.isnan(level.cum[here, 0])]
            if fresh.size:
                for i in fresh[_distinct_rows(fresh[:, None])[0]].tolist():
                    _expand(level, i, chan, below)
            # bisect_right on each node's cumulative probabilities
            j = (level.cum[here] <= draws[at, d, None]).sum(axis=1)
            going = j < level.cum.shape[1]
            live[at[~going]] = False
            at, here, j = at[going], here[going], j[going]
            kids = level.kids[here, j]
            new = kids < 0
            if new.any():
                # only unitary children are left to build: _expand adds every Kraus child
                pairs = np.stack([here[new], j[new]], axis=1)
                for i, b in pairs[_distinct_rows(pairs)[0]].tolist():
                    L, R = level.dyads[i].L, level.dyads[i].R
                    gates = chan.unitary_part[b][1]
                    Lc = sc.apply_circuit(L, gates)
                    level.kids[i, b] = below.add(Dyad(Lc, Lc if R is L else sc.apply_circuit(R, gates)))
                kids = level.kids[here, j]
            ids[at] = kids
            if not self.keep:
                level.dyads = None
        values = np.zeros(key_ids.shape, dtype=complex)
        at = np.flatnonzero(live)
        if at.size:
            terms = key_ids.shape[1]
            sel, of_sample = at, slice(None)
            if terms > 1:
                # a projector's samples share a few key rows: read each distinct (leaf, row) once
                rows = np.ascontiguousarray(key_ids[at])
                _, row_of = np.unique(rows.view(f"V{rows.itemsize * terms}")[:, 0], return_inverse=True)
                first, of_sample = _distinct_rows(np.stack([ids[at], row_of], axis=1))
                sel = at[first]
            pairs = np.stack([np.repeat(ids[sel], terms), key_ids[sel].ravel()], axis=1)
            first, pair = _distinct_rows(pairs)
            leaves = self.levels[-1]
            found = []
            # row f of pairs belongs to sample sel[f // terms]
            sel = sel[first // terms]
            for i, k, r in zip(pairs[first, 0].tolist(), pairs[first, 1].tolist(), start[sel].tolist()):
                key, op = keys[k]
                value = leaves.values.get((i, key))
                if value is None:
                    # a leaf lies under one root only, so its phase is fixed with it
                    value = leaves.values[i, key] = self.phases[r] * _leaf_value(leaves.dyads[i], op)
                found.append(value)
            values[at] = np.array(found, dtype=complex)[pair].reshape(-1, terms)[of_sample]
        return values, live


def _block_values(block: _Block, rows: np.ndarray, draws, key_ids, keys):
    """Block leaf values of a run's samples and which reach a leaf (_Tree.walk).

    rows[s] holds the terms sample s drew for the block's factors, and
    draws[s] its uniforms at the block's head channels.  Samples whose root
    is drawn past MAX_CACHED_ROOTS are walked a chunk at a time, each chunk
    in a tree that is not kept.
    """
    tree = block.tree
    first, inverse = _distinct_rows(rows)
    rids = np.full(len(first), -1, dtype=np.int64)
    for r, s in enumerate(first.tolist()):
        idx = tuple(rows[s].tolist())
        rid = tree.roots.get(idx)
        if rid is None and len(tree.roots) < MAX_CACHED_ROOTS:
            rid = tree.add_root(idx)
        if rid is not None:
            rids[r] = rid
    rids = rids[inverse]
    if rids.min(initial=0) >= 0:
        return tree.walk(rids, draws, key_ids, keys)
    values = np.empty(key_ids.shape, dtype=complex)
    live = np.empty(len(rows), dtype=bool)
    kept = np.flatnonzero(rids >= 0)
    values[kept], live[kept] = tree.walk(rids[kept], draws[kept], key_ids[kept], keys)
    rest = np.flatnonzero(rids < 0)
    for sel in np.split(rest, range(CHUNK, len(rest), CHUNK)):
        spill = _Tree(block, keep=False)
        first, inverse = _distinct_rows(rows[sel])
        ids = np.array([spill.add_root(tuple(rows[s].tolist())) for s in sel[first].tolist()])
        values[sel], live[sel] = spill.walk(ids[inverse], draws[sel], key_ids[sel], keys)
    return values, live


def _block_keys(blocks: list[_Block], pulled: list) -> list:
    """Per block: each pulled-back Pauli's key number, and the distinct (key, operator) pairs.

    A pulled-back Pauli i^k X^x Z^z gives block b the part X^x_b Z^z_b,
    keyed by its masks (x_b, z_b); i^k multiplies the product of the block
    values.  Keys are numbered in order of first appearance.
    """
    out = []
    for block in blocks:
        number: dict[tuple[int, int], int] = {}
        of_pulled = np.array([number.setdefault((_gather(p.x, block.qubits), _gather(p.z, block.qubits)),
                                                len(number)) for p in pulled], dtype=np.int64)
        keys = [(key, sc.PauliOp(len(block.qubits), *key)) for key in number]
        out.append((of_pulled, keys))
    return out


def _payload(decomp: DyadicDecomposition, chans, measurement, seed: int):
    """What each run of chunks reads: the inputs, the measurement terms and the blocks."""
    return decomp, chans, _pauli_terms(measurement), seed, _blocks(decomp, chans)


def _chunk_worker(payload, lo: int, hi: int) -> list:
    """(sum, aborts) of each chunk of the run lo..hi-1, in chunk order.

    Each chunk draws its own rows from its own stream: column f picks the
    term of factor f, and column F + l the branch at channel l, F being the
    factor count.  The run's samples are then walked together, block by
    block, in slices of at most _SLICE_VALUES (sample, term) values.  A
    tail channel's branches do not depend on the dyad, so its columns are
    read for the whole run at once, and each measurement term is pulled
    back once per distinct tail path.  A sample's value is l1 Re(sum_t w_t
    i^k_t prod_b v_b,t) over the terms t and blocks b, and each chunk's
    values are summed in sample order.
    """
    decomp, chans, terms, seed, blocks = payload
    cut = _tail_start(chans)
    tail = chans[cut:]
    nf = len(decomp.factors)
    chunks = [(a, min(a + CHUNK, hi)) for a in range(lo, hi, CHUNK)]
    draws = np.concatenate(
        [sample_rng(seed, a).random((b - a, nf + len(chans))) for a, b in chunks])
    picked = np.empty((hi - lo, nf), dtype=np.int64)
    for f, (cum, _) in enumerate(decomp.sampling_arrays()):
        picked[:, f] = np.minimum(np.searchsorted(cum, draws[:, f], side="right"), len(cum) - 1)
    picks = np.empty((hi - lo, len(tail)), dtype=np.int64)
    live = np.ones(hi - lo, dtype=bool)
    for l, chan in enumerate(tail):
        cum = _cumulative([p for p, _ in chan.unitary_part])
        picks[:, l] = np.searchsorted(cum, draws[:, nf + cut + l], side="right")
        live &= picks[:, l] < len(cum)
    at = np.flatnonzero(live)
    # each distinct tail path pulls each term back once, through gates checked with their channel
    first, path_ids = _distinct_rows(picks[at])
    paths = [[g for chan, j in zip(tail, path) for g in chan.unitary_part[j][1]]
             for path in picks[at[first]].tolist()]
    pulled = [sc._conjugate_pauli_unchecked(op, gates) for gates in paths for _, op in terms]
    picked, draws = picked[at], draws[at]
    keyed = _block_keys(blocks, pulled)
    coefs = np.array([w * _I_POW[p.k] for p, (w, _) in zip(pulled, terms * len(paths))]).reshape(-1, len(terms))
    bound = decomp.l1
    mu = np.zeros(hi - lo)
    step = max(1, _SLICE_VALUES // len(terms))
    for s in range(0, at.size, step):
        sel, paths_here = at[s : s + step], path_ids[s : s + step]
        acc = np.ones((sel.size, len(terms)), dtype=complex)
        for block, (key_of_pulled, keys) in zip(blocks, keyed):
            values, reached = _block_values(
                block, picked[s : s + step, block.factors], draws[s : s + step, block.cols],
                key_of_pulled.reshape(-1, len(terms))[paths_here], keys)
            acc *= values
            live[sel[~reached]] = False
        mu[sel] = bound * np.real((coefs[paths_here] * acc).sum(axis=1))
    mu[~live] = 0.0
    over = np.flatnonzero(np.abs(mu) > bound + 1e-9)
    if over.size:
        raise RuntimeError(f"sample {lo + int(over[0])} exceeded the l1 bound: {mu[over[0]]}")
    return [(kahan_sum(mu[a - lo : b - lo].tolist()), int(b - a - live[a - lo : b - lo].sum()))
            for a, b in chunks]


def estimate_born(
    decomp: DyadicDecomposition,
    circuit,
    measurement,
    epsilon: float,
    p_fail: float,
    seed: int,
    workers: int = 1,
) -> EstimateReport:
    """Estimate Tr[Pi E(rho)] (or a Pauli expectation) to epsilon, p_fail.

    measurement is a Hermitian PauliOp or a StabProjector of at most
    MAX_PROJECTOR_GENERATORS generators.  A Pauli leaf evaluates both
    halves of P = Pi+ - Pi- in a single inner product; a projector of h
    generators is expanded into its 2^h weighted Pauli terms, so each of
    its samples reads 2^h leaf products.  The sampling loop is chunked so
    results are reproducible for a fixed seed at any worker count.
    """
    chans = list(circuit)
    for chan in chans:
        if chan.n != decomp.n:
            raise ValueError("channel width differs from the state width")
    if measurement.n != decomp.n:
        raise ValueError("measurement width differs from the state width")
    if isinstance(measurement, sc.PauliOp):
        if not measurement.is_hermitian():
            raise ValueError("Pauli observable must be Hermitian")
    elif measurement.h > MAX_PROJECTOR_GENERATORS:
        raise ValueError(f"the projector has {measurement.h} generators, above the ceiling of "
                         f"{MAX_PROJECTOR_GENERATORS}; a sample reads 2^h leaf products")
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
