"""Dense two-phase revised simplex for small equality-form LPs.

Solves min c.x subject to A x = b, x >= 0.  Problem sizes here stay below
~64 rows and a few thousand columns, so the basis inverse is kept dense and
updated by one rank-one step per pivot.  It is refactored (one inversion)
at the start, every m pivots for m rows, and before an optimal basis is
returned, whose optimality is rechecked on the fresh factor.  Pivoting uses
Dantzig pricing with a largest-pivot tie break; after a long degenerate
stall it falls back to Bland's rule, which guarantees termination.
"""

from __future__ import annotations

import numpy as np

_RTOL = 1e-10
_PIVOT_TOL = 1e-9
_STALL_LIMIT = 64


class LPError(RuntimeError):
    """The solver failed; the CLI reports it as an internal error."""


def _invert(A: np.ndarray, basis: list[int]) -> np.ndarray:
    try:
        return np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError:
        raise LPError("singular basis") from None


def _simplex_core(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int]) -> tuple[np.ndarray, list[int], np.ndarray]:
    m, ncols = A.shape
    max_iter = 50 * (ncols + m)
    stall = 0
    updates = m  # rank-one updates since the last inversion; m forces one
    for _ in range(max_iter):
        if updates == m:
            B_inv, updates = _invert(A, basis), 0
        x_B = B_inv @ b
        y = c[basis] @ B_inv
        reduced = c - y @ A
        candidates = np.flatnonzero(reduced < -_RTOL)
        if candidates.size == 0:
            if updates == 0:
                x = np.zeros(ncols)
                x[basis] = np.maximum(x_B, 0.0)
                return x, basis, y
            updates = m  # recheck optimality on a fresh inverse
            continue
        bland = stall >= _STALL_LIMIT
        j = int(candidates[0]) if bland else int(candidates[np.argmin(reduced[candidates])])
        d = B_inv @ A[:, j]
        pos = np.flatnonzero(d > _PIVOT_TOL)
        if pos.size == 0:
            raise LPError("unbounded")
        ratios = np.maximum(x_B[pos], 0.0) / d[pos]
        theta = ratios.min()
        ties = pos[np.flatnonzero(ratios <= theta + 1e-9 * (1.0 + theta))]
        if bland:
            # Bland: leave the tie with the smallest basic-variable index
            leave = int(ties[np.argmin([basis[i] for i in ties])])
        else:
            # stability: among tied rows take the largest pivot element
            leave = int(ties[np.argmax(d[ties])])
        stall = stall + 1 if theta <= 1e-12 else 0
        basis[leave] = j
        # eliminate column j of B^-1 A against the pivot row
        row = B_inv[leave] / d[leave]
        B_inv -= d[:, None] * row
        B_inv[leave] = row
        updates += 1
    raise LPError("iteration limit exceeded")


def solve_lp(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Returns (x, y, objective) with y the dual vector of the equalities."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: minimize the sum of artificial variables
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    x1, basis, _ = _simplex_core(A1, b, c1, basis)
    if x1[n:].sum() > 1e-8:
        raise LPError("infeasible")
    # drive any residual artificials out of the basis
    for i, bi in enumerate(basis):
        if bi >= n:
            B_inv = np.linalg.inv(A1[:, basis])
            row = B_inv[i] @ A
            pivot = np.flatnonzero(np.abs(row) > 1e-9)
            pivot = [j for j in pivot if j not in basis]
            if pivot:
                basis[i] = int(pivot[0])
            # else: redundant row, keep the artificial at value zero

    c2 = np.concatenate([c, np.full(m, 1e6)])  # stranded artificials stay at 0
    x2, basis, y = _simplex_core(A1, b, c2, basis)
    x = x2[:n]
    obj = float(c @ x)
    # undo row flips in the dual
    y = y.copy()
    y[flip] *= -1.0
    return x, y, obj
