"""Chunked runs: the same per-chunk results at any worker count, one payload per
span; and the counter-based SplitMix64 stream every chunk draws from."""

import math

import numpy as np
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


# -- the SplitMix64 stream ---------------------------------------------------------

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix_ref(z):
    """SplitMix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_words_equal_python_reference():
    # SplitMix64 seeded with 0 first returns mix(gamma) = 0xE220A8397B1DCDAF
    assert mix_ref(GAMMA) == 0xE220A8397B1DCDAF
    for seed, index in ((0, 0), (7, 2**40 + 3), (MASK, MASK)):
        start = mix_ref(mix_ref(seed) ^ index)
        want = [mix_ref((start + i * GAMMA) & MASK) for i in range(10**4)]
        assert sample_rng(seed, index)._words(0, 10**4).tolist() == want
        assert sample_rng(seed, index)._words(4321, 7).tolist() == want[4321:4328]


def test_random_any_split():
    whole = sample_rng(3, 11).random(1000)
    rng = sample_rng(3, 11)
    pieces = [rng.random(1), rng.random((3, 5)).ravel(), [rng.random()], rng.random(983)]
    assert np.array_equal(np.concatenate(pieces), whole)


def test_draws_take_aligned_pieces_of_words():
    # quarter-word 0, then half-word 1 (quarter-words 2-3), then all of word 1
    rng = sample_rng(4, 1)
    w = rng._words(0, 2).tolist()
    assert rng.integers(0, 8, 1)[0] == (w[0] & 0xFFFF) >> 13
    assert rng.integers(0, 2**20, 1)[0] == (w[0] >> 32) >> 12
    assert rng.random() == (w[1] >> 11) * 2.0**-53


@pytest.mark.parametrize("bits", [3, 14, 16, 20, 27])
def test_integers_any_split_with_random_interleaved(bits):
    def run(int_sizes, random_sizes):
        rng = sample_rng(5, 9)
        ints, doubles = [], []
        for ints_here, doubles_here in zip(int_sizes, random_sizes):
            ints += [rng.integers(0, 2**bits, size).ravel() for size in ints_here]
            doubles += [np.ravel(rng.random(size)) for size in doubles_here]
        return np.concatenate(ints), np.concatenate(doubles)

    want = run([[301], [699], [5]], [[7], [1], [None]])
    got = run([[1, 299, 1], [3, (2, 7), 682], [1, 1, 1, 1, 1]], [[3, 4], [None], [None]])
    assert all(np.array_equal(w, g) for w, g in zip(want, got))
    assert want[0].min() >= 0 and want[0].max() < 2**bits
    shifted = sample_rng(5, 9).integers(-4, 2**bits - 4, 301)
    assert np.array_equal(shifted + 4, want[0][:301])


def test_integers_refuse_other_spans():
    rng = sample_rng(1, 0)
    for low, high in ((0, 3), (0, 2**33), (5, 5), (2, 1)):
        with pytest.raises(ValueError, match="span"):
            rng.integers(low, high, 4)
    assert isinstance(rng.random(), float)


def test_doubles_in_unit_interval():
    u = sample_rng(2, 0).random(10**5)
    assert u.min() >= 0.0 and u.max() < 1.0
    # the top 53 bits of a word, so every double is a multiple of 2^-53
    assert np.array_equal(np.floor(u * 2.0**53), u * 2.0**53)


def test_distinct_keys_give_distinct_streams():
    keys = [(s, i) for s in (0, 1, 2, MASK) for i in (0, 1, CHUNK, 2**63)]
    words = [sample_rng(s, i)._words(0, 1000) for s, i in keys]
    assert len(np.unique(np.concatenate(words))) == 1000 * len(keys)


def test_sixteen_bit_draws_pass_chi_square():
    draws = sample_rng(8, 0).integers(0, 2**16, 2**20)
    counts = np.bincount(draws, minlength=2**16)
    expect = len(draws) / 2**16
    stat = float(((counts - expect) ** 2).sum() / expect)
    # two-sided at 1e-9, neither far from uniform nor too even: the chi^2
    # quantiles by Wilson-Hilferty's cube-root normal, z = 6.109 per tail
    dof = 2**16 - 1
    lo, hi = (dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3 for z in (-6.109, 6.109))
    assert lo < stat < hi


def test_multinomial_within_hoeffding_radius():
    p = np.array([0.0, 0.1, 0.25, 0.0, 0.4, 0.05, 0.2])
    k = 10**5
    counts = sample_rng(12, 3).multinomial(k, p)
    assert counts.sum() == k and len(counts) == len(p)
    assert counts[p == 0.0].sum() == 0
    radius = np.sqrt(np.log(2 * len(p) / 1e-9) / (2 * k))
    assert np.all(np.abs(counts / k - p) <= radius)
