"""Deterministic RNG streams, compensated summation, and worker processes.

Monte Carlo results must be byte-identical for a given seed no matter how many
worker processes run the sampling loop.  Three conventions enforce that:

* samples are grouped into fixed-size chunks regardless of worker count,
* every chunk owns an RNG stream keyed by (master seed, first sample index),
* partial results are reduced in chunk order with compensated summation.

A worker call evaluates a run of up to RUN consecutive chunks, so that it
can batch the run's samples; it still returns one result per chunk.  Each
process walks one contiguous span of runs against one copy of the payload,
so whatever the worker caches in the payload serves all of the span.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Sequence

import numpy as np

# Chunk size is part of the reproducibility contract: changing it reorders the
# compensated reduction and may flip low bits of reported means.
CHUNK = 256
# chunks per worker call; a run's chunks keep their own streams and sums, so
# this sets only batching, never the results
RUN = 8

_MASK64 = (1 << 64) - 1

MAX_DENSE_QUBITS = 6  # widest state the dense reference and the rank sketch expand


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index).

    Philox is counter-based, so keying it directly with (seed, index) gives
    non-overlapping streams at a fraction of the cost of seed-sequence hashing.
    """
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def kahan_sum(values: Sequence[float]) -> float:
    """Compensated sum; order-sensitive by design, so callers fix the order."""
    total = 0.0
    comp = 0.0
    for x in values:
        y = float(x) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _span(worker: Callable, payload, lo: int, hi: int) -> list:
    """Per-chunk results of worker over the samples [lo, hi), run by run."""
    step = RUN * CHUNK
    return [result for a in range(lo, hi, step) for result in worker(payload, a, min(a + step, hi))]


def run_chunked(worker: Callable, payload, n_samples: int, workers: int = 1) -> list:
    """Per-chunk results of worker(payload, lo, hi), in chunk order.

    Each call covers a run [lo, hi) of up to RUN chunks, with lo a multiple
    of CHUNK, and returns one result per chunk of the run
    (range(lo, hi, CHUNK)).  The runs are cut into min(workers, runs)
    contiguous spans of near-equal run counts, one per process.  The chunk
    grid depends only on n_samples, so the result list is the same for any
    worker count.  payload must be picklable when workers > 1; each process
    unpickles it once.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    step = RUN * CHUNK
    runs = -(-n_samples // step)
    nproc = min(workers, runs)
    if nproc <= 1:
        return _span(worker, payload, 0, n_samples)
    cuts = [min(runs * k // nproc * step, n_samples) for k in range(nproc + 1)]
    # imported here: a single-process run should not pay for the pool module
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=nproc) as pool:
        spans = pool.map(_span, repeat(worker), repeat(payload), cuts[:-1], cuts[1:])
        return [result for span in spans for result in span]
