"""Dyadic frame quasiprobability simulator.

A Born probability Tr[Pi E(rho)] is estimated by Monte Carlo over dyads: an
initial dyad is drawn from the quasiprobability weights, then propagated
through each channel by sampling one unitary or Kraus branch.  Kraus branches
are chosen with trace-norm probabilities, which keeps every propagated dyad at
unit amplitude and caps each sample at the decomposition's l1 weight exactly;
the shortfall of the branch probabilities is an abort that contributes zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import stab_core as sc
from ._util import kahan_sum, run_chunked, sample_rng
from .channels import ChannelError, Dyad, DyadicDecomposition, SimulableChannel

_P0_TOL = 1e-12
# refused before any sampling: at ~50 us per sample this is already half a day
MAX_SAMPLES = 10**9


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


def _measure_value(dyad: Dyad, measurement) -> complex:
    if isinstance(measurement, sc.PauliOp):
        Lm = sc.apply_pauli(dyad.L, measurement)
    else:
        Lm, _ = sc.project_stab(dyad.L, measurement)
    return sc.inner_product(dyad.R, Lm)


class _Node:
    """Node of the trajectory tree: a dyad plus its branch distribution per channel.

    The branch path fully determines the dyad, so transition probabilities
    and leaf inner products are computed once and shared by every sample
    that walks the same path.  Unitary and Kraus branches share one joint
    distribution; the tail mass is the abort.  A Kraus child is built with
    its probability, which needs the projection anyway; a unitary child
    stays a gate list until a sample first walks into it.
    """

    __slots__ = ("dyad", "cum", "children", "value")

    def __init__(self, dyad: Dyad | None):
        self.dyad = dyad
        self.cum = None
        self.children = None
        self.value = None

    def expand(self, chan: SimulableChannel) -> None:
        probs = [p for p, _ in chan.unitary_part]
        kids = [gates for _, gates in chan.unitary_part]
        L, R = self.dyad.L, self.dyad.R
        for q, k in chan.kraus_part:
            Lp, nl = sc.project_stab(L, k.proj)
            Rp, nr = sc.project_stab(R, k.proj)
            pr = q * (2.0**k.h) * nl * nr
            if pr > 0.0:
                Lp = _unit(sc.apply_circuit(Lp, k.circuit))
                Rp = _unit(sc.apply_circuit(Rp, k.circuit))
                kids.append(_Node(Dyad(Lp, Rp)))
            else:
                kids.append(None)
            probs.append(pr)
        total = sum(probs)
        if total > 1.0 + _P0_TOL * max(1, len(probs)):
            raise ChannelError(f"branch probabilities sum to {total}")
        self.cum = np.cumsum(probs).tolist()
        self.children = kids

    def child(self, j: int) -> _Node:
        kid = self.children[j]
        if isinstance(kid, tuple):
            L, R = self.dyad.L, self.dyad.R
            Lc = sc.apply_circuit(L, kid)
            # a diagonal dyad, such as every sigma term, stays diagonal
            kid = self.children[j] = _Node(Dyad(Lc, Lc if R is L else sc.apply_circuit(R, kid)))
        return kid


def _walk_value(roots, cum0, phases, chans, measurement, l1, row) -> tuple[float, bool]:
    """One sample: row[0] picks the root and row[1 + l] the branch at channel l."""
    r0 = min(bisect_right(cum0, row[0]), len(roots) - 1)
    node = roots[r0]
    for chan, u in zip(chans, row[1:]):
        if node.children is None:
            node.expand(chan)
        j = bisect_right(node.cum, u)
        if j >= len(node.cum):
            return 0.0, True
        node = node.child(j)
    if node.value is None:
        # a leaf lies under one root only, so its phase is fixed with it
        node.value = l1 * float(np.real(phases[r0] * _measure_value(node.dyad, measurement)))
    return node.value, False


def _chunk_worker(payload, lo: int, hi: int):
    decomp, chans, measurement, seed, bound, roots = payload
    cum0, phases = decomp.sampling_arrays()
    cum0 = cum0.tolist()
    rows = sample_rng(seed, lo).random((hi - lo, len(chans) + 1)).tolist()
    values = []
    aborted = 0
    for index, row in enumerate(rows, lo):
        mu, did_abort = _walk_value(roots, cum0, phases, chans, measurement, bound, row)
        if did_abort:
            aborted += 1
        if abs(mu) > bound + 1e-9:
            raise RuntimeError(f"sample {index} exceeded the l1 bound: {mu}")
        values.append(mu)
    return kahan_sum(values), aborted


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
    roots = [_Node(d) for _, d in decomp.terms]
    payload = (decomp, chans, measurement, seed, decomp.l1, roots)
    results = run_chunked(_chunk_worker, payload, M, workers)
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
