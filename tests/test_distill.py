import math
import pathlib

import numpy as np
import pytest

import magicsim.distill as dist
import magicsim.monotones as mono
from magicsim.cli import _csv_text
from magicsim.distill import DistillError, DistillQuery

XI_H = 4.0 - 2.0 * math.sqrt(2.0)
XI_F = 3.0 - math.sqrt(3.0)

DATA = pathlib.Path(__file__).parent / "data"


def h_state():
    return mono.BlochState.named("H")


class TestQueryValidation:
    def test_unknown_target(self):
        with pytest.raises(DistillError):
            DistillQuery([h_state()], "G", 1, 0.0, 1.0)

    def test_bad_m(self):
        with pytest.raises(DistillError):
            DistillQuery([h_state()], "H", 0, 0.0, 1.0)

    def test_bad_eps(self):
        with pytest.raises(DistillError):
            DistillQuery([h_state()], "H", 1, 1.0, 1.0)
        with pytest.raises(DistillError):
            DistillQuery([h_state()], "H", 1, -0.1, 1.0)

    def test_bad_p(self):
        with pytest.raises(DistillError):
            DistillQuery([h_state()], "H", 1, 0.0, 0.0)
        with pytest.raises(DistillError):
            DistillQuery([h_state()], "H", 1, 0.0, 1.1)

    def test_stabilizer_input_rejected(self):
        q = DistillQuery([mono.BlochState.named("0")], "H", 1, 0.0, 1.0)
        with pytest.raises(DistillError):
            dist.copies_lower_bound(q)
        with pytest.raises(DistillError):
            dist.asymptotic_rate_bound([mono.BlochState.named("+")], "H")


class TestCopiesLowerBound:
    def test_self_distillation(self):
        k1, k2, k = dist.copies_lower_bound(DistillQuery([h_state()], "H", 1, 0.0, 1.0))
        assert k1 == pytest.approx(1.0, abs=1e-12)
        assert k2 == pytest.approx(1.0, abs=1e-12)
        assert k == pytest.approx(1.0, abs=1e-12)

    def test_exact_efficiency_identity(self):
        # p = 1, eps = 0 collapses both bounds to m log F^-1 / log lam
        state = dist.noisy_h(0.9)
        lam = mono.lambda_plus_1q(state)[0]
        for m in (1, 3, 10):
            k1, k2, k = dist.copies_lower_bound(
                DistillQuery([state], "F", m, 0.0, 1.0)
            )
            expected = m * math.log(XI_F) / math.log(lam)
            assert k1 == pytest.approx(expected, rel=1e-12)
            assert k2 == pytest.approx(expected, rel=1e-12)
            assert k == pytest.approx(expected, rel=1e-12)

    def test_noisy_h_example(self):
        # alpha = 0.75 depolarized H, m = 4, p = 0.9, eps = 1e-10
        state = dist.noisy_h(0.75)
        lam = mono.lambda_plus_1q(state)[0]
        assert lam == pytest.approx(1.75 / (1.0 + 1.0 / math.sqrt(2.0)), abs=5e-7)
        k1, k2, k = dist.copies_lower_bound(DistillQuery([state], "H", 4, 1e-10, 0.9))
        assert k1 == pytest.approx(21.2779, abs=2e-3)
        assert k2 == pytest.approx(22.9713, abs=2e-3)
        assert k == pytest.approx(k2, rel=1e-12)

    def test_either_bound_can_dominate(self):
        state = dist.noisy_h(0.75)
        k1_small_m, k2_small_m, _ = dist.copies_lower_bound(
            DistillQuery([state], "H", 1, 0.0, 0.9)
        )
        assert k2_small_m > k1_small_m
        k1_big_m, k2_big_m, _ = dist.copies_lower_bound(
            DistillQuery([state], "H", 100, 0.0, 0.5)
        )
        assert k1_big_m > k2_big_m

    def test_monotone_in_eps(self):
        state = dist.noisy_h(0.8)
        grid = [0.0, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9]
        ks = [dist.copies_lower_bound(DistillQuery([state], "H", 6, e, 0.9))
              for e in grid]
        for a, b in zip(ks, ks[1:]):
            assert b[0] <= a[0] + 1e-12
            assert b[1] <= a[1] + 1e-12
            assert b[2] <= a[2] + 1e-12

    def test_monotone_in_m(self):
        state = dist.noisy_h(0.8)
        ks = [dist.copies_lower_bound(DistillQuery([state], "F", m, 1e-8, 0.9))
              for m in range(1, 31)]
        for a, b in zip(ks, ks[1:]):
            assert b[0] >= a[0] - 1e-12
            assert b[1] >= a[1] - 1e-12
            assert b[2] >= a[2] - 1e-12

    def test_multiqubit_product_input(self):
        pair = [h_state(), dist.noisy_h(0.9)]
        lam = mono.product_monotone(pair)
        k1, _, _ = dist.copies_lower_bound(DistillQuery(pair, "H", 5, 0.0, 1.0))
        assert k1 == pytest.approx(5 * math.log(XI_H) / math.log(lam), rel=1e-12)


class TestAsymptoticRate:
    def test_h_to_h(self):
        assert dist.asymptotic_rate_bound([h_state()], "H") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_h_to_f(self):
        rate = dist.asymptotic_rate_bound([h_state()], "F")
        assert rate == pytest.approx(math.log(XI_H) / math.log(XI_F), rel=1e-12)
        assert rate == pytest.approx(0.66700, abs=5e-5)

    def test_noisy_h_rate(self):
        state = dist.noisy_h(0.75)
        lam = mono.lambda_plus_1q(state)[0]
        rate = dist.asymptotic_rate_bound([state], "H")
        assert rate == pytest.approx(math.log(lam) / math.log(XI_H), rel=1e-12)
        assert rate == pytest.approx(0.15672, abs=5e-4)

    def test_t_target_matches_h(self):
        a = dist.asymptotic_rate_bound([dist.noisy_h(0.9)], "H")
        b = dist.asymptotic_rate_bound([dist.noisy_h(0.9)], "T")
        assert a == b


class TestSweeps:
    def test_epsilon_sweep_monotone(self):
        header, rows = dist.sweep_epsilon(
            [dist.noisy_h(0.8)], "H", 6, 0.9, [0.0, 1e-8, 1e-4, 0.01, 0.3]
        )
        assert header == ("eps", "k1", "k2", "k")
        ks = [r[3] for r in rows]
        assert ks == sorted(ks, reverse=True)

    def test_m_sweep_monotone(self):
        header, rows = dist.sweep_m([dist.noisy_h(0.8)], "H", range(1, 25), 1e-12, 0.9)
        assert header[-1] == "k_per_m"
        ks = [r[3] for r in rows]
        assert ks == sorted(ks)
        assert all(r[4] >= 0.0 for r in rows)

    def test_alpha_sweep_shape(self):
        header, rows = dist.sweep_alpha(
            "H", [0.6, 0.72, 0.8, 0.9, 0.98], 24, 1e-20, 0.9
        )
        assert rows[0][2] == float("inf")
        finite = [r for r in rows if math.isfinite(r[4])]
        ks = [r[4] for r in finite]
        # bound tightens monotonically as the input cleans up
        assert ks == sorted(ks, reverse=True)
        lams = [r[1] for r in rows]
        assert lams == sorted(lams)

    def test_larger_m_tightens_per_copy_bound(self):
        _, small = dist.sweep_alpha("H", [0.8, 0.9], 4, 1e-20, 0.9)
        _, large = dist.sweep_alpha("H", [0.8, 0.9], 24, 1e-20, 0.9)
        for s, l in zip(small, large):
            assert l[4] / 24 > s[4] / 4

    def test_csv_serialization(self):
        header, rows = dist.sweep_epsilon([h_state()], "H", 2, 1.0, [0.0, 0.5])
        text = _csv_text(header, rows)
        lines = text.strip().split("\n")
        assert lines[0] == "eps,k1,k2,k"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_regression_lock(self):
        header, rows = dist.sweep_alpha(
            "H", [0.60, 0.70, 0.72, 0.75, 0.80, 0.85, 0.90, 0.95, 0.98],
            m=24, eps=1e-20, p=0.9,
        )
        text = _csv_text(header, rows)
        frozen = (DATA / "distill_sweep.csv").read_text()
        assert text == frozen
