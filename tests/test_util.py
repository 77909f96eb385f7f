"""Chunked runs: the same per-chunk results at any worker count, one payload per span."""

import pytest

from magicsim._util import CHUNK, RUN, kahan_sum, run_chunked, sample_rng

# five runs of chunks, the last of three chunks and the last chunk ragged
N_SAMPLES = 4 * RUN * CHUNK + 2 * CHUNK + 41


def chunk_sums(seed, lo, hi):
    """Each chunk's compensated sum of its own stream's uniforms."""
    return [(kahan_sum(sample_rng(seed, a).random(min(a + CHUNK, hi) - a).tolist()), a)
            for a in range(lo, hi, CHUNK)]


def count_calls(payload, lo, hi):
    """Each chunk tagged with how many calls this copy of the payload has seen."""
    payload["calls"] += 1
    return [payload["calls"]] * len(range(lo, hi, CHUNK))


def chunks_of_runs(per_run):
    """Spread one value per run over that run's chunks."""
    step = RUN * CHUNK
    sizes = [len(range(lo, min(lo + step, N_SAMPLES), CHUNK)) for lo in range(0, N_SAMPLES, step)]
    assert len(sizes) == len(per_run)
    return [v for v, size in zip(per_run, sizes) for _ in range(size)]


def test_results_identical_for_any_worker_count():
    want = run_chunked(chunk_sums, 7, N_SAMPLES)
    assert [a for _, a in want] == list(range(0, N_SAMPLES, CHUNK))
    for workers in (2, 3, 7):
        assert run_chunked(chunk_sums, 7, N_SAMPLES, workers) == want


def test_each_span_walks_one_payload():
    # a span's runs share one unpickled payload: 5 runs over 2 processes are cut 2 + 3
    assert run_chunked(count_calls, {"calls": 0}, N_SAMPLES) == chunks_of_runs([1, 2, 3, 4, 5])
    assert run_chunked(count_calls, {"calls": 0}, N_SAMPLES, 2) == chunks_of_runs([1, 2, 1, 2, 3])


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_refused(workers):
    with pytest.raises(ValueError, match="workers"):
        run_chunked(chunk_sums, 7, N_SAMPLES, workers)
