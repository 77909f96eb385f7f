"""Direct checks of the pure-Python simplex against scipy's HiGHS."""

import functools

import numpy as np
import pytest

from magicsim import _simplex
from magicsim import dense_oracle as do
from magicsim import monotones as mt

optimize = pytest.importorskip("scipy.optimize")


def random_lp(seed):
    """A feasible, bounded LP: b = A x0 with x0 >= 0, c = A^T y0 + s with s >= 0."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 65))
    n = int(rng.integers(3 * m, 5 * m + 1))
    A = rng.normal(size=(m, n))
    x0 = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
    b = A @ x0
    c = A.T @ rng.normal(size=m) + rng.random(n)
    return A, b, c


def unreduced_robustness_lp(blochs):
    """The unreduced equality form of the robustness LP for a product state:
    one row per Pauli and one column per stabilizer state, next to its negation."""
    states = do.enumerate_stabilizer_states(len(blochs))
    # rounded: the oracle's ~1e-17 noise would make every column dense for the solver
    cols = np.rint(np.stack([mt.pauli_coords(np.outer(v, v.conj())) for v in states], axis=1))
    b = mt.pauli_coords(functools.reduce(np.kron, [s.density() for s in blochs]))
    return np.hstack([cols, -cols]), b, np.ones(2 * cols.shape[1])


def robustness_lp_3q():
    """The unreduced robustness LP for three T(0.85) copies.

    monotones.robustness_lp solves this LP over the symmetries that fix rho,
    with 4 rows; the full 64 x 2160 form stays here as a problem large
    enough to cross the simplex's refactorizations.
    """
    t = mt.BlochState.named("T")
    return unreduced_robustness_lp([mt.BlochState(0.85 * t.bx, 0.85 * t.by, 0.85 * t.bz)] * 3)


def assert_optimal(A, b, c):
    x, y, obj = (np.asarray(v) for v in _simplex.solve_lp(A, b, c))
    ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert obj == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    assert obj == pytest.approx(c @ x, rel=1e-12, abs=1e-12)
    assert np.linalg.norm(A @ x - b) <= 1e-9
    assert x.min() >= 0.0
    assert (c - A.T @ y).min() >= -1e-9


@pytest.mark.parametrize("seed", range(12))
def test_random_lps_match_highs(seed):
    assert_optimal(*random_lp(seed))


@pytest.mark.parametrize("seed", range(6))
def test_bland_rule_on_every_pivot(monkeypatch, seed):
    monkeypatch.setattr(_simplex, "_STALL_LIMIT", 0)
    assert_optimal(*random_lp(seed))


def test_robustness_lp_crosses_refactorizations(monkeypatch):
    # each phase inverts at its start and, after any update, before it
    # returns; a fifth inversion is a refactorization after m = 64 pivots
    calls = []
    invert = _simplex._invert
    monkeypatch.setattr(_simplex, "_invert", lambda A, basis: calls.append(1) or invert(A, basis))
    A, b, c = robustness_lp_3q()
    assert A.shape == (64, 2160)
    assert_optimal(A, b, c)
    assert len(calls) > 4


def test_infeasible_raises():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(_simplex.LPError, match="infeasible"):
        _simplex.solve_lp(A, np.array([1.0, 2.0]), np.zeros(3))


def test_unbounded_raises():
    # x1 - x2 = 1 with x2 free to grow and a negative cost on it
    A = np.array([[1.0, -1.0]])
    with pytest.raises(_simplex.LPError, match="unbounded"):
        _simplex.solve_lp(A, np.array([1.0]), np.array([0.0, -1.0]))


def random_product_3q():
    rng = np.random.default_rng(95)
    blochs = []
    for _ in range(3):
        v = rng.normal(size=3)
        blochs.append(mt.BlochState(*(0.9 * v / np.linalg.norm(v))))
    return blochs


@pytest.mark.parametrize("blochs", [
    *(pytest.param([mt.BlochState.named(name).scaled(alpha)] * n, id=f"{name}({alpha})^{n}")
      for name, alpha in (("H", 0.9), ("T", 0.85), ("F", 0.95)) for n in (1, 2, 3)),
    pytest.param(random_product_3q(), id="random-3q"),
])
def test_robustness_lp_matches_highs_on_the_unreduced_lp(blochs):
    A, b, c = unreduced_robustness_lp(blochs)
    ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    R, _, cert = mt.robustness_lp(functools.reduce(np.kron, [s.density() for s in blochs]))
    assert R == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    assert abs(cert["duality_gap"]) <= 1e-9
    assert cert["feasibility_defect"] <= 1e-9
