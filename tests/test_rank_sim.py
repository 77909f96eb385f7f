"""Stabilizer-rank sampler: sparsification statistics, norm sketch, bit sampling."""

import functools
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

import magicsim.decompositions as dc
import magicsim.dense_oracle as do
import magicsim.monotones as mono
import magicsim.rank_sim as rs
import magicsim.stab_core as sc
from magicsim._util import sample_rng
from magicsim.rank_sim import RankSimError

from conftest import random_gate

XI_H = 4.0 - 2.0 * np.sqrt(2.0)


def pure_decomp(state):
    return rs.mixed_input_product([state]).ensemble[0][1]


def h_decomp():
    return pure_decomp(mono.BlochState.named("H"))


def delta_c_of(d: rs.SparseDecomposition) -> float:
    return 8.0 * (d.C - 1.0) / d.l1**2


def variance_exact(C, l1, k):
    # exact sample-variance upper bound for <Omega|Omega> at k terms
    return (
        4.0 * (k**3 - 3.0 * k**2 + 2.0 * k) / k**4 * C
        + 2.0 * (l1**4 / k**2) * (1.0 - 1.0 / k)
        - (4.0 * k**3 - 10.0 * k**2 + 6.0 * k) / k**4
    )


def random_pure_bloch(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return mono.BlochState(*v)


def random_product_decomposition(rng, n):
    while True:
        blochs = [random_pure_bloch(rng) for _ in range(n)]
        if all(not b.in_octahedron() for b in blochs):
            return rs.mixed_input_product(blochs).ensemble[0][1]


class TestSparseDecomposition:
    def test_h_two_terms(self):
        d = h_decomp()
        assert len(d.terms) == 2
        assert d.l1**2 == pytest.approx(XI_H, abs=1e-8)
        target = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        dense = do.expansion_vector(d)
        # global phase free
        phase = dense[np.argmax(np.abs(dense))]
        phase /= abs(phase)
        assert dense / phase == pytest.approx(target, abs=1e-9)

    def test_clifford_magic_C_is_one(self):
        d = h_decomp()
        C, delta_c = d.C, delta_c_of(d)
        assert C == pytest.approx(1.0, abs=1e-9)
        assert delta_c == pytest.approx(0.0, abs=1e-9)

    def test_single_term_C(self):
        d = rs.SparseDecomposition([1.0], [sc.zero_state(1)])
        C, delta_c = d.C, delta_c_of(d)
        assert C == pytest.approx(1.0, abs=1e-12)
        assert delta_c == pytest.approx(0.0, abs=1e-12)

    def test_C_invariants_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = random_product_decomposition(rng, 2)
            assert d.C >= 1.0 - 1e-9
            assert delta_c_of(d) >= -1e-9

    def test_C_multiplicative(self):
        dh = h_decomp()
        df = pure_decomp(mono.BlochState.named("F"))
        joint = rs.mixed_input_product(
            [mono.BlochState.named("H"), mono.BlochState.named("F")]
        ).ensemble[0][1]
        assert joint.C == pytest.approx(dh.C * df.C, abs=1e-9)

    def test_many_copy_C_trend(self):
        # theta chosen where the single-copy concentration constant peaks
        theta = 0.1187
        d1 = pure_decomp(mono.BlochState(np.sin(2 * theta), 0.0, np.cos(2 * theta)))
        C100 = d1.C**100
        l1sq_100 = (d1.l1**2) ** 100
        assert C100 >= 1.0 - 1e-9
        assert (C100 - 1.0) / l1sq_100 < 0.1

    def test_rejects_bad_norm(self):
        with pytest.raises(RankSimError):
            rs.SparseDecomposition([1.0, 1.0], [sc.zero_state(1), sc.zero_state(1)])

    def test_rejects_empty(self):
        with pytest.raises(RankSimError):
            rs.SparseDecomposition([], [])

    def test_rejects_width_mismatch(self):
        with pytest.raises(RankSimError):
            rs.SparseDecomposition([0.5, 0.5], [sc.zero_state(1), sc.zero_state(2)])


class TestSparsify:
    def test_single_term_exact(self):
        d = rs.SparseDecomposition([1.0], [sc.zero_state(2)])
        for k in (1, 7, 50):
            om = rs.sparsify(d, k, seed=3)
            assert om.norm_sq() == pytest.approx(1.0, abs=1e-12)
            assert om.dense() == pytest.approx(do.expansion_vector(d), abs=1e-12)

    def test_mean_norm_h(self):
        d = h_decomp()
        k = 40
        vals = np.empty(10_000)
        for i in range(vals.size):
            vals[i] = rs.sparsify(d, k, sample_rng(17, i)).norm_sq()
        expect = 1.0 + (d.l1**2 - 1.0) / k
        assert expect == pytest.approx(1.0042893, abs=1e-6)
        sigma = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - expect) <= 4 * sigma

    def test_mean_vector_unbiased(self):
        d = rs.mixed_input_product(
            [mono.BlochState.named("H"), mono.BlochState.named("T")]
        ).ensemble[0][1]
        acc = np.zeros(4, dtype=complex)
        reps = 20_000
        for i in range(reps):
            acc += rs.sparsify(d, 25, sample_rng(23, i)).dense()
        acc /= reps
        assert np.abs(acc - do.expansion_vector(d)).max() < 0.01

    def test_rejects_bad_k(self):
        with pytest.raises(RankSimError):
            rs.sparsify(h_decomp(), 0, seed=1)


class TestVarianceBound:
    def test_h_cubed(self):
        d = rs.mixed_input_product([mono.BlochState.named("H")] * 3).ensemble[0][1]
        k = 100
        vals = np.empty(20_000)
        for i in range(vals.size):
            vals[i] = rs.sparsify(d, k, sample_rng(31, i)).norm_sq()
        bound = variance_exact(d.C, d.l1, k)
        assert vals.var(ddof=1) <= bound
        expect = 1.0 + (d.l1**2 - 1.0) / k
        sigma = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - expect) <= 4 * sigma

    def test_random_instances(self):
        rng = np.random.default_rng(47)
        for trial in range(20):
            n = 1 + trial % 2
            d = random_product_decomposition(rng, n)
            k = int(rng.integers(5, 60))
            vals = np.empty(4000)
            for i in range(vals.size):
                vals[i] = rs.sparsify(d, k, sample_rng(1000 + trial, i)).norm_sq()
            bound = variance_exact(d.C, d.l1, k)
            # 20% slack over the rigorous bound for sample-variance noise
            assert vals.var(ddof=1) <= 1.2 * bound + 1e-12


def fast_norm_int64(v, eps_fn, p_fn, rng):
    """fast_norm for n <= 6 with the exponent x^T A x as an int64 product."""
    n = v.n
    batch = math.ceil(4.0 / eps_fn**2)
    nbatches = math.ceil(8.0 * math.log(2.0 / p_fn))
    total = batch * nbatches
    pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]
    bits = np.array([[(x >> (n - 1 - q)) & 1 for q in range(n)] for x in range(2**n)], dtype=np.int64)
    pair_bits = np.array([[b[j] * b[l] for j, l in pairs] for b in bits], dtype=np.int64)
    pair_bits = pair_bits.reshape(2**n, len(pairs))
    vdense = v.dense()
    etas = np.empty(total)
    done = 0
    while done < total:
        m = min(32768, total - done)
        # one integer per draw, split into the two table row indices; their
        # base-4 and base-2 digits are the diagonal and off-diagonal entries of A
        di, oi = np.divmod(rng.integers(0, 4**n * 2 ** len(pairs), m), 2 ** len(pairs))
        diags = (di[:, None] >> 2 * np.arange(n)) & 3
        offs = (oi[:, None] >> np.arange(len(pairs))) & 1
        expo = (diags @ bits.T + 2 * (offs @ pair_bits.T)) & 3
        amps = np.array([1.0, -1.0j, -1.0, 1.0j])[expo] @ vdense
        etas[done : done + m] = np.abs(amps) ** 2
        done += m
    return float(np.median(etas.reshape(nbatches, batch).mean(axis=1)))


def fast_norm_blocks(v, eps_fn, p_fn, rng):
    """fast_norm for n <= 6 with draws taken in blocks of 32,768 and copied
    into a batch buffer, and the eta table built in 32,768-entry blocks."""
    n = v.n
    batch, nbatches = rs._sketch_shape(eps_fn, p_fn)
    total = batch * nbatches
    diag_table, off_table = rs._equatorial_grid(n)
    nd, no = len(diag_table), len(off_table)
    vdense = v.dense()
    table = None
    if total >= nd * no:
        right = (rs._NEG_I_POW.take(off_table & 3) * vdense).T
        table = np.empty(nd * no)
        step = max(1, 32768 // no)
        for lo in range(0, nd, step):
            amps = rs._NEG_I_POW.take(diag_table[lo : lo + step] & 3) @ right
            table[lo * no : lo * no + amps.size] = (np.abs(amps) ** 2).ravel()
    batch_etas = np.empty(batch)
    means = []
    filled = done = 0
    while done < total:
        m = min(32768, total - done)
        a = rng.integers(0, nd * no, m)
        if table is not None:
            etas = table.take(a)
        else:
            d, o = np.divmod(a, no)
            etas = np.empty(m)
            step = max(1, 32768 >> n)
            for lo in range(0, m, step):
                expo = diag_table.take(d[lo : lo + step], axis=0)
                expo += off_table.take(o[lo : lo + step], axis=0)
                etas[lo : lo + step] = np.abs(rs._NEG_I_POW.take(expo & 3) @ vdense) ** 2
        done += m
        pos = 0
        while pos < m:
            take = min(batch - filled, m - pos)
            batch_etas[filled : filled + take] = etas[pos : pos + take]
            filled, pos = filled + take, pos + take
            if filled == batch:
                means.append(batch_etas.mean())
                filled = 0
    return rs._median(means)


class TestDenseMatrix:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_equal_oracle_expand(self, n):
        # random magic factors and a random Clifford prefix, then projected
        # children whose annihilated terms are None
        rng = np.random.default_rng(300 + n)
        blochs = [random_pure_bloch(rng) for _ in range(min(n, 2))]
        blochs += [mono.BlochState.named("H").scaled(0.9)] * (n - len(blochs))
        base = rs.mixed_input_product(blochs).ensemble[0][1].termset()
        prefix = [random_gate(rng, n) for _ in range(3 * n)]
        prefixed = rs._TermSet((sc.apply_circuit(t, prefix) for t in base.terms), n)
        sets = [base, prefixed]
        for ts in (base, prefixed):
            sets += [ts.child(q, b) for q in {0, n - 1} for b in (0, 1)]
            sets.append(ts.child(0, 1).child(n - 1, 0))
        assert any(t is None for ts in sets for t in ts.terms)
        for ts in sets:
            want = np.array([np.zeros(2**n) if t is None else do.expand(t) for t in ts.terms])
            assert np.array_equal(ts.dense_matrix(), want)


class TestFastNorm:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_int64_exponent(self, n, monkeypatch):
        # two magic factors keep the Gram matrix small; the rest spread amplitude
        rng = np.random.default_rng(100 + n)
        blochs = [random_pure_bloch(rng) for _ in range(min(n, 2))]
        blochs += [mono.BlochState.named(s) for s in ("+", "+i", "-", "-i")[: n - len(blochs)]]
        om = rs.sparsify(rs.mixed_input_product(blochs).ensemble[0][1], 8, seed=n)
        tables = []
        etas = rs._equatorial_etas

        def spy(*args):
            tables.append(args)
            return etas(*args)

        monkeypatch.setattr(rs, "_equatorial_etas", spy)
        # eps_fn=0.05 needs 48,000 draws, so that case spans two blocks; at
        # n=4 it is the one case with a draw per equatorial state
        cases = [(1, 0.2), (2, 0.2), (3, 0.05 if n == 6 else 0.1)] + [(4, 0.05)] * (n == 4)
        states = 4**n * 2 ** (n * (n - 1) // 2)
        paths = []
        for seed, eps in cases:
            draws = math.ceil(4.0 / eps**2) * math.ceil(8.0 * math.log(2.0 / 0.05))
            del tables[:]
            want = fast_norm_int64(om, eps, 0.05, sample_rng(seed, 0))
            assert rs.fast_norm(om, eps, 0.05, sample_rng(seed, 0)) == pytest.approx(want, rel=1e-12)
            paths.append("table" if tables else "per-draw")
            assert paths[-1] == ("table" if draws >= states else "per-draw")
        # the table runs at n = 1-4, the per-draw product at n = 4-6
        assert set(paths) == ({"table"} if n < 4 else {"per-draw"} if n > 4 else {"table", "per-draw"})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_block_draws_bit_for_bit(self, n):
        # batches of 100, 111, 1,600, 4,445 and 13,841 draws; the last case's
        # 415,230 draws span many 32,768-draw blocks, and n = 1-4 reach the table
        rng = np.random.default_rng(500 + n)
        blochs = [random_pure_bloch(rng) for _ in range(min(n, 2))]
        blochs += [mono.BlochState.named("H").scaled(0.9)] * (n - len(blochs))
        om = rs.sparsify(rs.mixed_input_product(blochs).ensemble[0][1], 37, seed=n)
        for eps, p_fn in ((0.2, 0.3), (0.19, 0.5), (0.05, 0.2), (0.03, 0.9), (0.017, 0.05)):
            for seed in (1, 2):
                want = fast_norm_blocks(om, eps, p_fn, sample_rng(seed, 0))
                assert rs.fast_norm(om, eps, p_fn, sample_rng(seed, 0)) == want

    def test_matches_int64_exponent_partly_null(self):
        # qubit 0 of the second term is |1>, so the projection drops it
        terms = [sc.zero_state(2), sc.apply_circuit(sc.zero_state(2), [("X", 0), ("H", 1)])]
        om = rs.sparsify(rs.SparseDecomposition([0.6, 0.8], terms), 6, seed=3)
        om = om.project_basis_bit(0, 0)
        for seed in (4, 5):
            want = fast_norm_int64(om, 0.2, 0.05, sample_rng(seed, 0))
            assert want > 0.0
            assert rs.fast_norm(om, 0.2, 0.05, sample_rng(seed, 0)) == pytest.approx(want, rel=1e-12)

    def test_equatorial_mean_identity(self):
        # the single-state estimate is unbiased: exhaustive average over A
        om = rs.sparsify(h_decomp(), 3, seed=9)
        etas = rs._equatorial_etas(*rs._equatorial_grid(1), om.dense())
        assert etas.mean() == pytest.approx(om.norm_sq(), abs=1e-12)

    def test_equatorial_mean_identity_2q(self):
        d = rs.mixed_input_product(
            [mono.BlochState.named("H"), mono.BlochState.named("T")]
        ).ensemble[0][1]
        om = rs.sparsify(d, 5, seed=13)
        etas = rs._equatorial_etas(*rs._equatorial_grid(2), om.dense())
        assert etas.mean() == pytest.approx(om.norm_sq(), abs=1e-12)

    def test_basis_state(self):
        d = rs.SparseDecomposition([1.0], [sc.zero_state(2)])
        om = rs.sparsify(d, 1, seed=2)
        eta = rs.fast_norm(om, 0.2, 0.05, seed=4)
        assert 0.8 <= eta <= 1.2

    def test_projected_plus(self):
        d = rs.SparseDecomposition([1.0], [sc.plus_state(1)])
        om = rs.sparsify(d, 1, seed=2).project_basis_bit(0, 0)
        eta = rs.fast_norm(om, 0.2, 0.05, seed=6)
        assert eta == pytest.approx(0.5, abs=0.1)
        # past the dense cap there is no sketch
        d = rs.SparseDecomposition([1.0], [sc.plus_state(7)])
        om = rs.sparsify(d, 1, seed=2).project_basis_bit(0, 0)
        with pytest.raises(RankSimError):
            rs.fast_norm(om, 0.2, 0.05, seed=6)

    def test_null_vector(self):
        d = rs.SparseDecomposition([1.0], [sc.zero_state(1)])
        om = rs.sparsify(d, 1, seed=2).project_basis_bit(0, 1)
        assert rs.fast_norm(om, 0.2, 0.05, seed=8) == 0.0

    def test_multiplicative_error_rate(self):
        rng = np.random.default_rng(61)
        d = random_product_decomposition(rng, 3)
        eps, p_fn = 0.2, 0.05
        failures = 0
        trials = 200
        for t in range(trials):
            om = rs.sparsify(d, 8, sample_rng(71, t))
            truth = float(np.linalg.norm(om.dense()) ** 2)
            eta = rs.fast_norm(om, eps, p_fn, sample_rng(73, t))
            if not (1 - eps) * truth - 1e-12 <= eta <= (1 + eps) * truth + 1e-12:
                failures += 1
        limit = trials * p_fn + 3 * math.sqrt(trials * p_fn * (1 - p_fn))
        assert failures <= limit

    def test_validation(self):
        om = rs.sparsify(h_decomp(), 2, seed=1)
        with pytest.raises(RankSimError):
            rs.fast_norm(om, 0.3, 0.05, seed=1)
        with pytest.raises(RankSimError):
            rs.fast_norm(om, 0.1, 0.0, seed=1)

    @pytest.mark.parametrize("length", [1, 2, 3, 8, 21, 40, 59])
    def test_median_matches_numpy(self, length):
        rng = np.random.default_rng(length)
        for _ in range(50):
            values = list(rng.normal(size=length) * 10.0 ** rng.integers(-8, 8))
            assert rs._median(values) == np.median(values)

    def test_fast_norm_leaves_numpy_ma_unimported(self):
        script = (
            "import sys\n"
            "import magicsim.rank_sim as rs, magicsim.stab_core as sc\n"
            "om = rs.sparsify(rs.SparseDecomposition([1.0], [sc.zero_state(2)]), 1, seed=2)\n"
            "rs.fast_norm(om, 0.2, 0.05, seed=4)\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        assert subprocess.run([sys.executable, "-c", script]).returncode == 0


class TestMixedInput:
    def test_pure_product(self):
        inp = rs.mixed_input_product([mono.BlochState.named("H")])
        assert len(inp.ensemble) == 1
        assert inp.Xi_tilde == pytest.approx(XI_H, abs=1e-8)
        assert inp.equimagical

    def test_noisy_h_squared(self):
        noisy = mono.BlochState(0.9 / np.sqrt(2), 0.0, 0.9 / np.sqrt(2))
        inp = rs.mixed_input_product([noisy, noisy])
        assert len(inp.ensemble) == 4
        assert inp.equimagical
        lam, _ = mono.lambda_plus_1q(noisy)
        assert inp.Xi_tilde == pytest.approx(lam**2, abs=1e-8)
        rho1 = noisy.density()
        assert inp.dense() == pytest.approx(np.kron(rho1, rho1), abs=1e-8)

    def test_weight_validation(self):
        d = rs.SparseDecomposition([1.0], [sc.zero_state(1)])
        with pytest.raises(RankSimError):
            rs.MixedInput([(0.7, d)])
        with pytest.raises(RankSimError):
            rs.MixedInput([])

    def test_equimagical_flag_rejected(self):
        d0 = rs.SparseDecomposition([1.0], [sc.zero_state(1)])
        inp = rs.MixedInput([(0.5, d0), (0.5, h_decomp())])
        assert not inp.equimagical


class TestProductGram:
    @pytest.mark.parametrize("count", range(1, 5))
    def test_kronecker_gram_matches_overlaps(self, count):
        # F and H scaled below 1 split into parts of 3 and 2 terms, the
        # octahedron member into five one-term parts, and T is pure; H and T
        # have equal Grams, so no mirrored pair of positions holds both and a
        # reversed factor order shows
        states = [mono.BlochState.named("F").scaled(0.85), mono.BlochState.named("H").scaled(0.9),
                  mono.BlochState(0.3, -0.2, 0.1), mono.BlochState.named("T")][:count]
        parts = [[rs.SparseDecomposition([c for c, _ in terms], [t for _, t in terms])
                  for _, _, terms in dc.decompose_1q_state(rho)[1]] for rho in states]
        for combo in itertools.product(*parts):
            d = rs.SparseDecomposition.product(combo)
            # a product builds no Gram matrix; the first read fills it from overlaps
            assert d.termset()._gram is None
            g = d.termset().gram()
            kron = functools.reduce(np.kron, [f.termset().gram() for f in combo])
            assert np.abs(kron - g).max() <= 1e-12
            mags = np.abs(d.coeffs)
            assert d.norm_sq() == pytest.approx(float(np.real(mags @ g @ mags)), abs=1e-12)
            C = d.l1 * np.sum(mags * np.abs(mags @ g) ** 2)
            assert d.C == pytest.approx(C, rel=1e-12)

    def test_product_needs_a_factor(self):
        with pytest.raises(RankSimError):
            rs.SparseDecomposition.product([])


class TestSampleCost:
    def test_build_prediction_is_the_gram_size(self):
        # parts x terms^2 from the factors equals the Gram entries of the built input
        noisy = mono.BlochState.named("H").scaled(0.9)
        states = [noisy, mono.BlochState.named("T"), noisy]
        inp = rs.mixed_input_product(states)
        want = sum(len(d.terms) ** 2 for _, d in inp.ensemble)
        assert rs.check_sample_cost(states, 2, 0.15, 0.05, 2) == want == 2 * 2 * 4 * 16

    def test_wide_sketch_refused_before_any_build(self, monkeypatch):
        def no_build(states):
            raise AssertionError("input built")

        monkeypatch.setattr(rs, "mixed_input_product", no_build)
        with pytest.raises(RankSimError, match="at most 6 qubits, not 7; use norm_backend 'exact'"):
            rs.check_sample_cost([mono.BlochState.named("H")] * 7, 2, 0.15, 0.05, 2)
        with pytest.raises(RankSimError, match="ceiling"):
            rs.check_sample_cost([mono.BlochState.named("H").scaled(0.9)] * 7, 1, 0.15, 0.05, 1,
                                 norm_backend="exact")
        assert rs.check_sample_cost([mono.BlochState.named("H")] * 7, 2, 0.15, 0.05, 2,
                                    norm_backend="exact") == 4**7


class TestSampleBitstrings:
    def test_zero_product_always_zero(self):
        inp = rs.mixed_input_product([mono.BlochState.named("0")] * 3)
        strings, report = rs.sample_bitstrings(inp, 3, 0.3, 0.05, 12, seed=5)
        assert set(strings) == {"000"}
        assert report.fastnorm_calls <= 12 * 7

    def test_h_marginal_exact_backend(self):
        inp = rs.mixed_input_product([mono.BlochState.named("H")])
        delta = 0.1
        n_str = 100_000
        strings, report = rs.sample_bitstrings(
            inp, 1, delta, 0.05, n_str, seed=11, norm_backend="exact"
        )
        p0 = strings.count("0") / n_str
        target = np.cos(np.pi / 8) ** 2
        sigma = math.sqrt(target * (1 - target) / n_str)
        assert abs(p0 - target) <= delta / 2 + 3 * sigma
        assert report.ks.min() == report.ks.max() == math.ceil(12 * XI_H / delta)
        assert report.fastnorm_calls == 0

    def test_h_marginal_fastnorm_backend(self):
        inp = rs.mixed_input_product([mono.BlochState.named("H")])
        delta = 0.5
        n_str = 200
        strings, report = rs.sample_bitstrings(inp, 1, delta, 0.05, n_str, seed=13)
        p0 = strings.count("0") / n_str
        target = np.cos(np.pi / 8) ** 2
        sigma = math.sqrt(target * (1 - target) / n_str)
        assert abs(p0 - target) <= delta / 2 + 3 * sigma
        assert n_str * 2 <= report.fastnorm_calls <= n_str * 3

    def test_noisy_h_squared_distribution(self):
        noisy = mono.BlochState(0.9 / np.sqrt(2), 0.0, 0.9 / np.sqrt(2))
        inp = rs.mixed_input_product([noisy, noisy])
        delta = 0.15
        n_str = 20_000
        strings, report = rs.sample_bitstrings(
            inp, 2, delta, 0.05, n_str, seed=17, norm_backend="exact"
        )
        rho = inp.dense()
        truth = np.real(np.diag(rho))
        emp = np.array([strings.count(f"{x:02b}") for x in range(4)]) / n_str
        sigma = sum(math.sqrt(p * (1 - p) / n_str) for p in truth)
        assert np.abs(emp - truth).sum() <= delta + 3 * sigma
        # equimagical input: every string pays the same term count
        assert report.ks.min() == report.ks.max()

    def test_chain_rule_matches_dense_per_omega(self):
        # exact backend draws each string from |<x|Omega>|^2 / <Omega|Omega>
        inp = rs.mixed_input_product([mono.BlochState.named("H")] * 2)
        delta, seed, n_str = 0.3, 19, 30_000
        strings, _ = rs.sample_bitstrings(
            inp, 2, delta, 0.05, n_str, seed=seed, norm_backend="exact"
        )
        d = inp.ensemble[0][1]
        k = math.ceil(12 * d.l1**2 / delta)
        mean_p = np.zeros(4)
        for i in range(n_str):
            rng = sample_rng(seed, i)
            rng.random()
            om = rs.SparseVector(
                d.termset(), rng.multinomial(k, d.sampling_probs()), k, d.l1 / k
            )
            vec = om.dense()
            mean_p += np.abs(vec) ** 2 / np.linalg.norm(vec) ** 2
        mean_p /= n_str
        emp = np.array([strings.count(f"{x:02b}") for x in range(4)]) / n_str
        assert np.abs(emp - mean_p).sum() <= 0.025

    def test_ensemble_sparsification_bound(self):
        # averaged normalized sparsifications approach the pure target
        d = rs.mixed_input_product(
            [mono.BlochState.named("H"), mono.BlochState.named("T")]
        ).ensemble[0][1]
        delta_s = max(0.2, delta_c_of(d))
        k = math.ceil(4 * d.l1**2 / delta_s)
        psi = do.expansion_vector(d)
        target = np.outer(psi, np.conj(psi))
        acc = np.zeros((4, 4), dtype=complex)
        reps = 100_000
        for i in range(reps):
            vec = rs.sparsify(d, k, sample_rng(29, i)).dense()
            acc += np.outer(vec, np.conj(vec)) / (np.linalg.norm(vec) ** 2)
        acc /= reps
        gap = np.linalg.eigvalsh(acc - target)
        trace_dist = 0.5 * np.abs(gap).sum()
        assert trace_dist <= delta_s + 0.5 * delta_s**2 + 0.02

    def test_ensemble_sparsification_bound_face_state(self):
        d = pure_decomp(mono.BlochState.named("F"))
        delta_s = max(0.25, delta_c_of(d))
        k = math.ceil(4 * d.l1**2 / delta_s)
        psi = do.expansion_vector(d)
        target = np.outer(psi, np.conj(psi))
        acc = np.zeros((2, 2), dtype=complex)
        reps = 100_000
        for i in range(reps):
            vec = rs.sparsify(d, k, sample_rng(37, i)).dense()
            acc += np.outer(vec, np.conj(vec)) / (np.linalg.norm(vec) ** 2)
        acc /= reps
        gap = np.linalg.eigvalsh(acc - target)
        trace_dist = 0.5 * np.abs(gap).sum()
        assert trace_dist <= delta_s + 0.5 * delta_s**2 + 0.02

    def test_unequal_ensemble_varies_k(self):
        d0 = rs.SparseDecomposition([1.0], [sc.zero_state(1)])
        inp = rs.MixedInput([(0.5, d0), (0.5, h_decomp())])
        _, report = rs.sample_bitstrings(
            inp, 1, 0.2, 0.05, 200, seed=23, norm_backend="exact"
        )
        assert len(set(report.ks.tolist())) == 2

    def test_clifford_prefix(self):
        inp = rs.mixed_input_product([mono.BlochState.named("+")])
        strings, _ = rs.sample_bitstrings(
            inp, 1, 0.2, 0.05, 30, seed=3, prefix=[("H", 0)]
        )
        assert set(strings) == {"0"}

    def test_reproducible(self):
        noisy = mono.BlochState(0.9 / np.sqrt(2), 0.0, 0.9 / np.sqrt(2))
        inp = rs.mixed_input_product([noisy])
        a, _ = rs.sample_bitstrings(inp, 1, 0.3, 0.05, 100, seed=41, norm_backend="exact")
        b, _ = rs.sample_bitstrings(inp, 1, 0.3, 0.05, 100, seed=41, norm_backend="exact")
        c, _ = rs.sample_bitstrings(inp, 1, 0.3, 0.05, 100, seed=42, norm_backend="exact")
        assert a == b
        assert a != c

    def test_report_dict(self):
        inp = rs.mixed_input_product([mono.BlochState.named("H")])
        _, report = rs.sample_bitstrings(inp, 1, 0.2, 0.05, 20, seed=1, norm_backend="exact")
        out = report.to_dict()
        assert out["regime"] == "standard"
        assert out["norm_backend"] == "exact"
        assert out["k_min"] == out["k_max"] == math.ceil(12 * XI_H / 0.2)
        assert out["wall_time_s"] > 0

    def test_validation(self):
        inp = rs.mixed_input_product([mono.BlochState.named("H")])
        with pytest.raises(RankSimError):
            rs.sample_bitstrings(inp, 2, 0.2, 0.05, 10, seed=1)
        with pytest.raises(RankSimError):
            rs.sample_bitstrings(inp, 1, 0.0, 0.05, 10, seed=1)
        with pytest.raises(RankSimError):
            rs.sample_bitstrings(inp, 1, 1.0, 0.05, 10, seed=1)
        with pytest.raises(RankSimError):
            rs.sample_bitstrings(inp, 1, 0.2, 0.05, 0, seed=1)
        with pytest.raises(RankSimError):
            rs.sample_bitstrings(inp, 1, 0.2, 0.05, 10, seed=1, norm_backend="dense")
