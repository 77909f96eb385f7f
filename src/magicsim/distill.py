"""Lower bounds on magic-state distillation cost and asymptotic rate.

Any probabilistic stabilizer protocol turning k copies of the input into m
approximate copies of a Clifford-symmetric target must satisfy two copy
bounds driven by the input's generalized robustness and the target's
stabilizer fidelity.  Both bounds, their maximum, and the asymptotic rate
ceiling are computed for product inputs of single-qubit states; grid sweeps
return (header, rows) tables that the command line writes as CSV or JSON.
"""

from __future__ import annotations

import dataclasses
import math

from . import monotones

TARGET_FIDELITY_INV = {
    "H": 4.0 - 2.0 * math.sqrt(2.0),
    "T": 4.0 - 2.0 * math.sqrt(2.0),
    "F": 3.0 - math.sqrt(3.0),
}

_LAM_TOL = 1e-12


class DistillError(ValueError):
    pass


def _as_blochs(states) -> list[monotones.BlochState]:
    out = [
        s if isinstance(s, monotones.BlochState) else monotones.BlochState(*s)
        for s in states
    ]
    if not out:
        raise DistillError("input needs at least one qubit factor")
    return out


def _input_lambda(states) -> float:
    lam = monotones.product_monotone(_as_blochs(states))
    if lam <= 1.0 + _LAM_TOL:
        raise DistillError("stabilizer input: copy bounds degenerate at lam = 1")
    return lam


def _fidelity_inv(target: str) -> float:
    try:
        return TARGET_FIDELITY_INV[target]
    except KeyError:
        raise DistillError(
            f"unknown target {target!r}; expected one of {sorted(TARGET_FIDELITY_INV)}"
        ) from None


@dataclasses.dataclass(frozen=True)
class DistillQuery:
    """Input product state, named target, and protocol parameters."""

    states: tuple
    target: str
    m: int
    eps: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(_as_blochs(self.states)))
        _fidelity_inv(self.target)
        if int(self.m) < 1 or int(self.m) != self.m:
            raise DistillError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if not 0.0 <= self.eps < 1.0:
            raise DistillError("eps must lie in [0, 1)")
        if not 0.0 < self.p <= 1.0:
            raise DistillError("p must lie in (0, 1]")


def copies_lower_bound(q: DistillQuery) -> tuple[float, float, float]:
    """Two copy bounds and their maximum.

    k1 folds the success probability into the log argument; k2 scales the
    deterministic bound by p instead.  Either can dominate.
    """
    lam = _input_lambda(q.states)
    log_lam = math.log(lam)
    log_finv = math.log(_fidelity_inv(q.target))
    base = math.log1p(-q.eps) + q.m * log_finv
    k1 = (math.log(q.p) + base) / log_lam
    k2 = q.p * base / log_lam
    return k1, k2, max(k1, k2)


def asymptotic_rate_bound(states, target: str) -> float:
    """Ceiling on the copies of the target distillable per input copy."""
    return math.log(_input_lambda(states)) / math.log(_fidelity_inv(target))


def noisy_h(alpha: float) -> monotones.BlochState:
    """Depolarized magic state alpha |H><H| + (1 - alpha) I/2."""
    if not 0.0 <= alpha <= 1.0:
        raise DistillError("alpha must lie in [0, 1]")
    return monotones.BlochState.named("H").scaled(alpha)


def sweep_epsilon(states, target: str, m: int, p: float, eps_grid):
    """Rows (eps, k1, k2, k) over an output-infidelity grid."""
    rows = []
    for eps in eps_grid:
        k1, k2, k = copies_lower_bound(DistillQuery(states, target, m, float(eps), p))
        rows.append((float(eps), k1, k2, k))
    return ("eps", "k1", "k2", "k"), rows


def sweep_m(states, target: str, ms, eps: float, p: float):
    """Rows (m, k1, k2, k, k_per_m) over a target-copy grid."""
    rows = []
    for m in ms:
        k1, k2, k = copies_lower_bound(DistillQuery(states, target, int(m), eps, p))
        rows.append((int(m), k1, k2, k, k / m))
    return ("m", "k1", "k2", "k", "k_per_m"), rows


def sweep_alpha(target: str, alphas, m: int, eps: float, p: float):
    """Rows (alpha, lam, k1, k2, k) over depolarized-H input qualities.

    Inside the stabilizer octahedron no copy count satisfies the fidelity
    demand, so those grid points carry infinities instead of raising.
    """
    rows = []
    inf = float("inf")
    for alpha in alphas:
        state = noisy_h(float(alpha))
        lam = monotones.lambda_plus_1q(state)[0]
        if lam <= 1.0 + _LAM_TOL:
            rows.append((float(alpha), lam, inf, inf, inf))
            continue
        k1, k2, k = copies_lower_bound(DistillQuery([state], target, m, eps, p))
        rows.append((float(alpha), lam, k1, k2, k))
    return ("alpha", "lam", "k1", "k2", "k"), rows
