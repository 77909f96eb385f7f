"""Constant-cost interval estimator built on a feasible robustness pair.

The target state is replaced by the stabilizer side sigma of an operator
inequality rho <= lam * sigma.  The dyadic simulator runs on sigma alone,
whose unit l1 weight makes the sample count independent of lam, and the
unknown subtracted remainder is absorbed into a deterministic penalty of
lam - 1 per side.  The resulting interval is clamped to the a-priori range
of the observable, and the report labels which regime the run landed in:
both sides clamped (no information), neither (additive error lam(1+c) - 1),
or exactly one (error shrinking with the magnitude of the estimate).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import channels as ch
from . import dyadic_sim as ds
from . import monotones
from . import stab_core as sc

_ATOL = 1e-8

CASES = ("failure", "constant_error", "shrunk_error")


class ConstrainedSimError(ValueError):
    pass


class RobustnessPair:
    """Scale lam >= 1 together with a stabilizer mixture dominating rho.

    sigma is a dyadic expansion with real nonnegative weights summing to
    one, so the dyadic simulator sees unit l1 weight regardless of lam.
    The weights are checked factor by factor: a product of nonnegative
    factors is nonnegative.
    """

    __slots__ = ("lam", "sigma")

    def __init__(self, lam: float, sigma: ch.DyadicDecomposition):
        lam = float(lam)
        if not lam >= 1.0 - 1e-12:
            raise ConstrainedSimError("lam must be at least 1")
        for factor in sigma.factors:
            for a, _ in factor:
                if abs(a.imag) > _ATOL or a.real < -_ATOL:
                    raise ConstrainedSimError("sigma weights must be real and nonnegative")
        if abs(sigma.l1 - 1.0) > 1e-6:
            raise ConstrainedSimError("sigma weights must sum to 1")
        self.lam = max(1.0, lam)
        self.sigma = sigma

    @property
    def n(self) -> int:
        return self.sigma.n


def _l1_ball_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit l1 ball by soft thresholding."""
    a = np.abs(v)
    if a.sum() <= 1.0:
        return v.copy()
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    k = ranks[u * ranks > cum - 1.0][-1]
    shift = (cum[k - 1] - 1.0) / k
    return np.sign(v) * np.maximum(a - shift, 0.0)


def optimal_pair(states) -> RobustnessPair:
    """Feasible pair for a product of single-qubit states.

    lam multiplies the per-factor generalized robustness values; each
    factor's stabilizer side is the closest octahedron point to b / lam_j,
    which the one-qubit primal optimum guarantees to be feasible, and sigma
    is the product of those points as dyadic_decompose_product expands
    them, over octahedron vertices with nonnegative weights.  The
    per-factor check |lam_j b_sigma - b| <= lam_j - 1 is exactly the 2x2
    inequality rho_j <= lam_j sigma_j, and those inequalities tensor, so
    the product pair needs no joint check.
    """
    blochs = [
        s if isinstance(s, monotones.BlochState) else monotones.BlochState(*s)
        for s in states
    ]
    if not blochs:
        raise ConstrainedSimError("need at least one qubit factor")
    built, factors = {}, []
    for rho in blochs:
        key = rho.as_tuple()
        if key not in built:
            lam_j = max(1.0, monotones.lambda_plus_1q(rho)[0])
            b = np.array(key, dtype=float)
            b_sig = _l1_ball_projection(b / lam_j)
            if np.linalg.norm(lam_j * b_sig - b) > lam_j - 1.0 + 1e-9:
                raise ConstrainedSimError("factor admits no stabilizer side at its lam")
            built[key] = lam_j, monotones.BlochState(*b_sig)
        factors.append(built[key])
    lam = math.prod(lam_j for lam_j, _ in factors)
    return RobustnessPair(lam, ch.dyadic_decompose_product(point for _, point in factors))


@dataclasses.dataclass(frozen=True)
class ConstrainedReport:
    E_hat: float
    Delta: float
    case: str
    E_sigma: float
    E_max: float
    E_min: float
    lam: float
    epsilon: float
    samples: int = 0
    seed: int | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def interval_from_estimate(
    lam: float, mu: float, c: float, projector: bool = False
) -> ConstrainedReport:
    """Deterministic interval arithmetic on a sigma-side estimate mu.

    mu approximates the sigma expectation within c; the interval pays
    c * lam for the scaled statistical error and lam - 1 for the unknown
    remainder, one-sidedly when the observable is a projector.
    """
    lam = float(lam)
    if not lam >= 1.0 - 1e-12:
        raise ConstrainedSimError("lam must be at least 1")
    if not 0.0 < c < 1.0:
        raise ConstrainedSimError("c must lie in (0, 1)")
    lam = max(1.0, lam)
    eps = c * lam
    E_sigma = lam * float(mu)
    if projector:
        prior_lo, prior_hi = 0.0, 1.0
        upper = E_sigma + eps
    else:
        prior_lo, prior_hi = -1.0, 1.0
        upper = E_sigma + eps + (lam - 1.0)
    lower = E_sigma - eps - (lam - 1.0)
    clamp_hi = upper >= prior_hi
    clamp_lo = lower <= prior_lo
    if clamp_hi and clamp_lo:
        case = "failure"
    elif clamp_hi or clamp_lo:
        case = "shrunk_error"
    else:
        case = "constant_error"
    E_max = min(prior_hi, upper)
    E_min = max(prior_lo, lower)
    if E_max < E_min:
        # empty intersection with the prior range: the estimate contradicts
        # the model, so only the trivial bounds survive
        E_max, E_min, case = prior_hi, prior_lo, "failure"
    return ConstrainedReport(
        E_hat=0.5 * (E_max + E_min),
        Delta=0.5 * (E_max - E_min),
        case=case,
        E_sigma=E_sigma,
        E_max=E_max,
        E_min=E_min,
        lam=lam,
        epsilon=eps,
    )


def constrained_estimate(
    pair: RobustnessPair,
    circuit,
    E,
    c: float = 0.05,
    p_fail: float = 0.05,
    seed: int = 0,
    workers: int = 1,
) -> ConstrainedReport:
    """Interval for the target expectation from a run on the stabilizer side.

    The sigma expectation is estimated to tolerance c at confidence
    1 - p_fail, taking exactly ceil(2 c^-2 ln(2/p_fail)) samples whatever
    lam is, and the interval inflates it by eps = c lam plus the lam - 1
    remainder penalty before clamping to the observable's range.
    """
    if not 0.0 < c < 1.0:
        raise ConstrainedSimError("c must lie in (0, 1)")
    if not 0.0 < p_fail < 1.0:
        raise ConstrainedSimError("p_fail must lie in (0, 1)")
    base = ds.estimate_born(
        pair.sigma, circuit, E, epsilon=c, p_fail=p_fail, seed=seed, workers=workers
    )
    projector = isinstance(E, sc.StabProjector)
    report = interval_from_estimate(pair.lam, base.mu_hat, c, projector=projector)
    return dataclasses.replace(report, samples=base.M, seed=seed)
