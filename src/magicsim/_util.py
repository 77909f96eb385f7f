"""Deterministic RNG streams, compensated summation, and worker pools.

Monte Carlo results must be byte-identical for a given seed no matter how many
worker processes run the sampling loop.  Three conventions enforce that:

* samples are grouped into fixed-size chunks regardless of worker count,
* every chunk owns an RNG stream keyed by (master seed, first sample index),
* partial results are reduced in chunk order with compensated summation.

A worker call evaluates a run of up to RUN consecutive chunks, so that it
can batch the run's samples; it still returns one result per chunk.
"""

from __future__ import annotations

import os
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


def resolve_workers(workers: int | None) -> int:
    if workers is not None and workers > 0:
        return workers
    env = os.environ.get("MAGICSIM_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def run_chunked(
    worker: Callable,
    payload,
    n_samples: int,
    workers: int | None = None,
) -> list:
    """Per-chunk results of worker(payload, lo, hi), in chunk order.

    Each call covers a run [lo, hi) of up to RUN chunks, with lo a multiple
    of CHUNK, and returns one result per chunk of the run
    (range(lo, hi, CHUNK)).  The chunk grid depends only on n_samples, so
    single-process and pooled runs produce identical result lists; a pool
    task is one contiguous run.  payload must be picklable when workers > 1.
    """
    step = RUN * CHUNK
    los = range(0, n_samples, step)
    his = [min(lo + step, n_samples) for lo in los]
    nproc = resolve_workers(workers)
    if nproc <= 1 or len(los) <= 1:
        runs = list(map(worker, repeat(payload), los, his))
    else:
        # imported here: a single-process run should not pay for the pool module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nproc) as pool:
            runs = list(pool.map(worker, repeat(payload), los, his))
    return [result for run in runs for result in run]
