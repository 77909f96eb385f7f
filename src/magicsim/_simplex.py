"""Two-phase revised simplex in pure Python for small equality-form LPs.

Solves min c.x subject to A x = b, x >= 0 for at most 64 rows; a reduced
robustness LP has about ten rows and a hundred sparse columns, each next
to its negation, which one dot product prices together.  The dense basis
inverse is updated by one rank-one step per pivot and refactored by
Gauss-Jordan elimination at the start, every m pivots for m rows, and
before an optimal basis is returned, whose optimality is rechecked on the
fresh factor.  Pivoting uses Dantzig pricing with a largest-pivot tie
break; after a long degenerate stall it falls back to Bland's rule, which
guarantees termination.
"""

from __future__ import annotations

_RTOL = 1e-10
_PIVOT_TOL = 1e-9
_SINGULAR_TOL = 1e-12
_STALL_LIMIT = 64


class LPError(RuntimeError):
    """The solver failed; the CLI reports it as an internal error."""


def _invert(cols: list[list[tuple[int, float]]], basis: list[int]) -> list[list[float]]:
    """Inverse of the basis matrix, whose column k is the sparse column basis[k]."""
    m = len(basis)
    aug = [[0.0] * m + [float(i == k) for k in range(m)] for i in range(m)]
    for k, j in enumerate(basis):
        for i, v in cols[j]:
            aug[i][k] = v
    for k in range(m):
        p = max(range(k, m), key=lambda r: abs(aug[r][k]))
        if abs(aug[p][k]) <= _SINGULAR_TOL:
            raise LPError("singular basis")
        row = [v / aug[p][k] for v in aug[p]]
        aug[p] = aug[k]
        aug = [row if i == k else r if r[k] == 0.0 else [u - r[k] * v for u, v in zip(r, row)]
               for i, r in enumerate(aug)]
    return [r[m:] for r in aug]


def _simplex_core(cols, groups, b: list[float], c: list[float],
                  basis: list[int]) -> tuple[list[float], list[int], list[float]]:
    m, ncols = len(b), len(cols)
    stall = 0
    updates = m  # rank-one updates since the last inversion; m forces one
    reduced = [0.0] * ncols
    for _ in range(50 * (ncols + m)):
        if updates == m:
            B_inv, updates = _invert(cols, basis), 0
        x_B = [sum(u * v for u, v in zip(row, b)) for row in B_inv]
        y = [sum(c[j] * v for j, v in zip(basis, col)) for col in zip(*B_inv)]
        for entries, members in groups:
            dot = sum(y[i] * v for i, v in entries)
            for j, s in members:
                reduced[j] = c[j] - s * dot
        candidates = [j for j in range(ncols) if reduced[j] < -_RTOL]
        if not candidates:
            if updates == 0:
                x = [0.0] * ncols
                for i, j in enumerate(basis):
                    x[j] = max(x_B[i], 0.0)
                return x, basis, y
            updates = m  # recheck optimality on a fresh inverse
            continue
        bland = stall >= _STALL_LIMIT
        j = candidates[0] if bland else min(candidates, key=reduced.__getitem__)
        d = [sum(row[i] * v for i, v in cols[j]) for row in B_inv]
        ratios = {i: max(x_B[i], 0.0) / d[i] for i in range(m) if d[i] > _PIVOT_TOL}
        if not ratios:
            raise LPError("unbounded")
        theta = min(ratios.values())
        ties = [i for i, r in ratios.items() if r <= theta + 1e-9 * (1.0 + theta)]
        if bland:
            # Bland: leave the tie with the smallest basic-variable index
            leave = min(ties, key=basis.__getitem__)
        else:
            # stability: among tied rows take the largest pivot element
            leave = max(ties, key=d.__getitem__)
        stall = stall + 1 if theta <= 1e-12 else 0
        basis[leave] = j
        # eliminate column j of B^-1 A against the pivot row
        row = [v / d[leave] for v in B_inv[leave]]
        B_inv = [row if i == leave else r if d[i] == 0.0 else [u - d[i] * v for u, v in zip(r, row)]
                 for i, r in enumerate(B_inv)]
        updates += 1
    raise LPError("iteration limit exceeded")


def solve_lp(A, b, c) -> tuple[list[float], list[float], float]:
    """Returns (x, y, objective) with y the dual vector of the equalities.

    A is given by its rows (lists or a numpy array), b and c as sequences.
    """
    flip = [v < 0 for v in b]
    b = [-float(v) if f else float(v) for v, f in zip(b, flip)]
    c = [float(v) for v in c]
    m, n = len(b), len(c)
    # structural columns, then one artificial per row
    cols: list[list[tuple[int, float]]] = [[] for _ in range(n)] + [[(i, 1.0)] for i in range(m)]
    for i, row in enumerate(A.tolist() if hasattr(A, "tolist") else A):
        for j, v in enumerate(row):
            if v:
                cols[j].append((i, -float(v) if flip[i] else float(v)))
    # columns equal up to sign share one dot product with y
    shared: dict[tuple, list[tuple[int, float]]] = {}
    for j, entries in enumerate(cols[:n]):
        s = -1.0 if entries and entries[0][1] < 0 else 1.0
        shared.setdefault(tuple((i, s * v) for i, v in entries), []).append((j, s))
    groups = [*shared.items(), *((((i, 1.0),), [(n + i, 1.0)]) for i in range(m))]

    # phase 1: minimize the sum of artificial variables
    basis = list(range(n, n + m))
    x1, basis, _ = _simplex_core(cols, groups, b, [0.0] * n + [1.0] * m, basis)
    if sum(x1[n:]) > 1e-8:
        raise LPError("infeasible")
    # drive any residual artificials out of the basis
    for i, bi in enumerate(basis):
        if bi >= n:
            row = _invert(cols, basis)[i]
            pivot = [j for j in range(n)
                     if j not in basis and abs(sum(row[r] * v for r, v in cols[j])) > 1e-9]
            if pivot:
                basis[i] = pivot[0]
            # else: redundant row, keep the artificial at value zero

    # stranded artificials stay at 0
    x2, basis, y = _simplex_core(cols, groups, b, c + [1e6] * m, basis)
    x = x2[:n]
    obj = sum(u * v for u, v in zip(c, x))
    # undo row flips in the dual
    return x, [-v if f else v for v, f in zip(y, flip)], obj
