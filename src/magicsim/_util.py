"""Deterministic RNG streams, compensated summation, and worker processes.

Monte Carlo results must be byte-identical for a given seed no matter how many
worker processes run the sampling loop.  Three conventions enforce that:

* samples are grouped into fixed-size chunks regardless of worker count,
* every chunk owns a counter-based SplitMix64 stream (Stream), computed in
  numpy and keyed by (master seed, first sample index),
* partial results are reduced in chunk order with compensated summation.

A worker call evaluates a run of up to RUN consecutive chunks, so that it
can batch the run's samples; it still returns one result per chunk.  Each
process walks one contiguous span of runs against one copy of the payload,
so whatever the worker caches in the payload serves all of the span.
"""

from __future__ import annotations

import math
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


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the counter step gamma
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """SplitMix64's finalizer, on a Python int or a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Stream:
    """Counter-based SplitMix64 stream: the part of numpy's Generator API the
    simulators call.  Word i is mix64(start + i * gamma), on a np.arange of
    counters.  A double takes the top 53 bits of one word, an integer over a
    span of 2^b one 16-bit quarter-word (b <= 16) or 32-bit half-word (b <=
    32); the position is kept in quarter-words, so any split of a run of
    draws yields the same values.  S streams of L words overlap with
    probability at most about S^2 * L / 2^64.
    """

    __slots__ = ("start", "pos")

    def __init__(self, start: int):
        self.start, self.pos = start, 0

    def _words(self, lo: int, count: int) -> np.ndarray:
        return _mix64(np.arange(lo, lo + count, dtype=np.uint64) * _GAMMA + self.start)

    def _take(self, per: int, size) -> np.ndarray:
        """The next draws of per quarter-words each, flat, as unsigned ints."""
        q = -(-self.pos // per) * per  # the first quarter-word, aligned to a draw
        self.pos = q + per * (math.prod(size) if isinstance(size, tuple) else int(size))
        w = q // 4
        words = self._words(w, -(-self.pos // 4) - w).astype("<u8", copy=False)
        return words.view(f"<u{2 * per}")[(q - 4 * w) // per : (self.pos - 4 * w) // per]

    def random(self, size=None):
        if size is None:  # one word, in Python ints: a sampler's per-bit draw
            w = -(-self.pos // 4)
            self.pos = 4 * w + 4
            return (_mix64(self.start + w * _GAMMA & _MASK64) >> 11) * 2.0**-53
        return ((self._take(4, size) >> 11) * 2.0**-53).reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        span = int(high) - int(low)
        bits = max(span.bit_length() - 1, 0)
        if span != 1 << bits or bits > 32:
            raise ValueError(f"a stream draws integers over a span of 2^b, b <= 32, not {span}")
        per = 1 if bits <= 16 else 2
        return ((self._take(per, size).astype(np.int64) >> (16 * per - bits)) + low).reshape(size)

    def multinomial(self, n: int, pvals) -> np.ndarray:
        cum = np.cumsum(pvals)
        return np.bincount(np.searchsorted(cum[:-1], self.random(n), side="right"), minlength=len(cum))


def sample_rng(master_seed: int, index: int) -> Stream:
    """Independent stream keyed by (seed, index): start = mix64(mix64(seed) ^ index).

    Keys need no seed-sequence hashing; Stream gives the quarter-word draw
    protocol and the overlap bound.
    """
    return Stream(_mix64(_mix64(master_seed & _MASK64) ^ (index & _MASK64)))


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
