"""Magic monotones.

Single-qubit states get exact analytic treatment: canonicalization into the
P_Y region and the one-parameter witness family certifying the common value
of dyadic negativity, generalized robustness and extent.  The witness
maximum is a closed form, the best of the two endpoints and the at most two
stationary points, where a line meets the unit circle.  Products multiply.
The robustness of magic is computed as an l1-minimizing linear program over
enumerated stabilizer states for up to three qubits, solved in pure Python
over the orbits of the Clifford symmetries that fix the state.  Nothing
here builds a stabilizer state, and only the dense views density and
pure_vector import numpy: the expansions live in decompositions.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .gate_rules import conjugate_bits

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
Q_MIN = math.sqrt(2.0 / 3.0)

_NORM_TOL = 1e-12
_PURE_TOL = 1e-9
_SYM_TOL = 1e-12  # entrywise match of rho's Pauli coordinates and a symmetry's image of them

_NAMED_BLOCH = {
    "0": (0.0, 0.0, 1.0),
    "1": (0.0, 0.0, -1.0),
    "+": (1.0, 0.0, 0.0),
    "-": (-1.0, 0.0, 0.0),
    "+i": (0.0, 1.0, 0.0),
    "-i": (0.0, -1.0, 0.0),
    "H": (1.0 / SQRT2, 0.0, 1.0 / SQRT2),
    "T": (1.0 / SQRT2, 1.0 / SQRT2, 0.0),
    "F": (1.0 / SQRT3, 1.0 / SQRT3, 1.0 / SQRT3),
}

# rotation of the Bloch vector when the gate is applied to the state
_BLOCH_ROT = {
    "H": lambda x, y, z: (z, -y, x),
    "S": lambda x, y, z: (-y, x, z),
    "SDG": lambda x, y, z: (y, -x, z),
    "X": lambda x, y, z: (x, -y, -z),
    "Y": lambda x, y, z: (-x, y, -z),
    "Z": lambda x, y, z: (-x, -y, z),
}

_GATE_INVERSE = {"H": "H", "S": "SDG", "SDG": "S", "X": "X", "Y": "Y", "Z": "Z"}


class BlochState:
    """Single-qubit state as a Bloch vector (bx, by, bz)."""

    __slots__ = ("bx", "by", "bz")

    def __init__(self, bx: float, by: float, bz: float):
        self.bx = float(bx)
        self.by = float(by)
        self.bz = float(bz)
        # checked before squaring, so an overflow or a NaN cannot slip past; NaN fails <=
        if not (abs(self.bx) <= 1.0 + _NORM_TOL and abs(self.by) <= 1.0 + _NORM_TOL
                and abs(self.bz) <= 1.0 + _NORM_TOL):
            raise ValueError("Bloch components must be finite and at most 1 in magnitude")
        if self.norm_sq() > 1.0 + _NORM_TOL:
            raise ValueError("Bloch vector lies outside the unit ball")

    @classmethod
    def named(cls, name: str) -> "BlochState":
        if not isinstance(name, str):
            raise ValueError(f"state name must be a string, got {name!r}")
        try:
            return cls(*_NAMED_BLOCH[name])
        except KeyError:
            raise ValueError(f"unknown state name {name!r}") from None

    def norm_sq(self) -> float:
        return self.bx**2 + self.by**2 + self.bz**2

    @property
    def l1(self) -> float:
        return abs(self.bx) + abs(self.by) + abs(self.bz)

    @property
    def f(self) -> float:
        return (self.bx + self.by + self.bz) / SQRT3

    @property
    def r_A(self) -> float:
        return (self.bx + self.bz - 2.0 * self.by) / SQRT6

    @property
    def r_B(self) -> float:
        return (self.bx - self.bz) / SQRT2

    def is_pure(self, tol: float = _PURE_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= 2.0 * tol

    def in_octahedron(self, tol: float = _NORM_TOL) -> bool:
        return self.l1 <= 1.0 + tol

    def in_PY(self, tol: float = 1e-12) -> bool:
        return (
            self.bx >= -tol
            and self.by >= -tol
            and self.bz >= -tol
            and self.by <= self.bx + tol
            and self.by <= self.bz + tol
        )

    def scaled(self, alpha: float) -> "BlochState":
        """Mixture alpha*rho + (1-alpha)*I/2."""
        return BlochState(alpha * self.bx, alpha * self.by, alpha * self.bz)

    def rotated(self, gates) -> "BlochState":
        x, y, z = self.bx, self.by, self.bz
        for gate in gates:
            x, y, z = _BLOCH_ROT[gate[0] if isinstance(gate, tuple) else gate](x, y, z)
        return BlochState(x + 0.0, y + 0.0, z + 0.0)

    def density(self) -> np.ndarray:
        return density_matrix(self)

    def pure_vector(self) -> np.ndarray:
        import numpy as np

        if not self.is_pure():
            raise ValueError("state is not pure")
        theta = np.arccos(np.clip(self.bz, -1.0, 1.0))
        phi = np.arctan2(self.by, self.bx)
        return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.bx, self.by, self.bz)

    def __repr__(self) -> str:
        return f"BlochState({self.bx:.6g}, {self.by:.6g}, {self.bz:.6g})"


def density_matrix(rho: BlochState) -> np.ndarray:
    import numpy as np

    x, y, z = rho.bx, rho.by, rho.bz
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def canonicalize_PY(rho: BlochState) -> tuple[list[tuple], BlochState]:
    """Find single-qubit Clifford gates mapping rho into the P_Y region.

    Breadth-first over signed-permutation rotations; all arithmetic is exact
    (negation and coordinate swap), so the canonical vector carries the same
    floats as the input up to reordering and sign.
    """
    start = (rho.bx + 0.0, rho.by + 0.0, rho.bz + 0.0)
    frontier = [((), start)]
    seen = {start}
    for _ in range(8):
        for word, vec in frontier:
            cand = BlochState(*vec)
            if cand.in_PY():
                return [(g, 0) for g in word], cand
        nxt = []
        for word, vec in frontier:
            for gname in ("H", "S", "SDG", "X", "Y", "Z"):
                x, y, z = _BLOCH_ROT[gname](*vec)
                key = (x + 0.0, y + 0.0, z + 0.0)
                if key not in seen:
                    seen.add(key)
                    nxt.append((word + (gname,), key))
        frontier = nxt
    raise RuntimeError("canonicalization search failed")  # unreachable: orbit covers P_Y


def invert_word(gates: list[tuple]) -> list[tuple]:
    return [(_GATE_INVERSE[g[0]], g[1]) for g in reversed(gates)]


# -- witness family -----------------------------------------------------------


class Witness1Q(NamedTuple):
    """Dual witness for the single-qubit monotones.

    The witness operator is (1 + q*Ht + sqrt(1-q^2)*Y) / (1 + q/sqrt(2)) with
    Ht = (X+Z)/sqrt(2), evaluated against the canonicalized state; clifford
    is the gate word taking the input state into P_Y.
    """

    q: float
    value: float
    clifford: tuple


def _witness_eval(q: float, rho: BlochState) -> float:
    root = math.sqrt(max(0.0, 1.0 - q * q))
    return (1.0 + q * (rho.bx + rho.bz) / SQRT2 + root * rho.by) / (1.0 + q / SQRT2)


def _maximize_witness(rho: BlochState) -> tuple[float, float]:
    """Maximize the witness value over q in [sqrt(2/3), 1], in closed form.

    With q = cos t, a = (bx+bz)/sqrt(2) and b = by the value is
    (1 + a cos t + b sin t) / (1 + cos t/sqrt(2)), whose interior stationary
    points solve (1/sqrt(2) - a) sin t + b cos t = -b/sqrt(2): the at most
    two points where that line meets the unit circle in (sin t, cos t).  The
    maximum is the best of the two endpoints and the roots with sin t >= 0
    and q in range, each evaluated by _witness_eval, so an endpoint maximum
    carries the exact endpoint value.
    """
    a, b = (rho.bx + rho.bz) / SQRT2, rho.by
    A, C = 1.0 / SQRT2 - a, -b / SQRT2
    r2 = A * A + b * b
    qs = [Q_MIN, 1.0]
    if r2 > 0.0 and C * C <= r2:
        half = math.sqrt(r2 - C * C)
        for sgn in (1.0, -1.0):
            sin_t, q = (A * C - sgn * b * half) / r2, (b * C + sgn * A * half) / r2
            if sin_t >= 0.0 and Q_MIN < q < 1.0:
                qs.append(q)
    q_star, val = max(((q, _witness_eval(q, rho)) for q in qs), key=lambda t: t[1])
    return float(q_star), float(val)


def lambda_plus_1q(rho: BlochState) -> tuple[float, Witness1Q]:
    """Common value of dyadic negativity, generalized robustness and extent.

    Returns exactly 1 for stabilizer-polytope members; the witness certifies
    the value for everything else.
    """
    word, canon = canonicalize_PY(rho)
    q_star, val = _maximize_witness(canon)
    witness = Witness1Q(q=q_star, value=val, clifford=tuple(word))
    if rho.in_octahedron():
        return 1.0, witness
    return max(1.0, val), witness


def product_monotone(states: list[BlochState]) -> float:
    out = 1.0
    for s in states:
        out *= lambda_plus_1q(s)[0]
    return out


def stab_norm_1q(rho: BlochState) -> float:
    return 0.5 * (1.0 + rho.l1)


def robustness_1q(rho: BlochState) -> float:
    return rho.l1 if rho.l1 > 1.0 else 1.0


# -- robustness LP ------------------------------------------------------------


_LETTER_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))  # I, X, Y, Z as (x, z) bits


def product_density_rows(states: list[BlochState]) -> list[list[complex]]:
    """Density matrix of a product of single-qubit states as lists of rows, qubit 0 first."""
    out = [[1.0]]
    for s in states:
        one = [[0.5 * (1.0 + s.bz), 0.5 * complex(s.bx, -s.by)],
               [0.5 * complex(s.bx, s.by), 0.5 * (1.0 - s.bz)]]
        out = [[u * v for u in ra for v in rb] for ra in out for rb in one]
    return out


def _letters(a: int, n: int) -> list[int]:
    """Letters (I, X, Y, Z = 0..3) of Pauli index a = sum_q l_q 4^(n-1-q)."""
    return [a >> 2 * (n - 1 - q) & 3 for q in range(n)]


def pauli_coords(op) -> list[float]:
    """Real coordinates Tr[P_a · op] of a 2^n x 2^n matrix given by its rows,
    over the Pauli strings a = sum_q l_q 4^(n-1-q) of letters I, X, Y, Z = 0..3.
    P_a = i^#Y X^x Z^z has one entry i^#Y (-1)^(z.r) per column r, at row r ^ x."""
    rows = [[complex(v) for v in row] for row in op]
    n = len(rows).bit_length() - 1
    out = []
    for a in range(4**n):
        xm = zm = ny = 0
        for l in _letters(a, n):
            x, z = _LETTER_XZ[l]
            xm, zm, ny = 2 * xm + x, 2 * zm + z, ny + (x & z)
        t = sum(-rows[r][r ^ xm] if (zm & r).bit_count() & 1 else rows[r][r ^ xm]
                for r in range(len(rows)))
        out.append((t.real, -t.imag, -t.real, t.imag)[ny % 4])
    return out


def _pauli_action(gate: tuple, n: int) -> tuple[list[int], list[int]]:
    """(image, sign) with U^dag P_a U = sign[a] P_image[a] over the n-qubit
    Paulis a, for the gate U, read off gate_rules."""
    image, sign = [], []
    for a in range(4**n):
        x, z = (sum(_LETTER_XZ[l][i] << q for q, l in enumerate(_letters(a, n))) for i in (0, 1))
        # each letter Y = i X Z carries one power of i, before and after
        x, z, k = conjugate_bits(x, z, (x & z).bit_count(), [gate])
        image.append(sum(_LETTER_XZ.index((x >> q & 1, z >> q & 1)) << 2 * (n - 1 - q) for q in range(n)))
        sign.append(1 if (k - (x & z).bit_count()) % 4 == 0 else -1)
    return image, sign


@lru_cache(maxsize=None)
def _stabilizer_coords(n: int) -> tuple[frozenset, ...]:
    """The 2^n nonzero Pauli coordinates Tr[P_a |v><v|] = +-1 of every n-qubit
    stabilizer state v, n <= 3, as a frozenset of codes 2a + (1 if it is -1).

    Breadth-first closure of |0..0> under H, S and CX, each gate a signed
    permutation of the codes, deduplicated in (frontier, gate) order as the
    dense oracle's enumerate_stabilizer_states; the counts 6 / 60 / 1080 are asserted.
    """
    if n > 3:
        raise ValueError("enumeration capped at n=3")
    gates = [("H", q) for q in range(n)] + [("S", q) for q in range(n)]
    gates += [("CX", a, b) for a in range(n) for b in range(n) if a != b]
    maps = []
    for gate in gates:
        # U v, at Pauli a, is sign[a] times v at image[a]
        act = [0] * (2 * 4**n)
        for a, (m, s) in enumerate(zip(*_pauli_action(gate, n))):
            act[2 * m], act[2 * m + 1] = 2 * a + (s < 0), 2 * a + (s > 0)
        maps.append(act.__getitem__)
    # |0..0>: +1 on every Pauli of letters I and Z only
    found = [frozenset(2 * a for a in range(4**n) if all(l in (0, 3) for l in _letters(a, n)))]
    seen = set(found)
    for codes in found:  # grows while it is walked: level after level
        for act in maps:
            image = frozenset(map(act, codes))
            if image not in seen:
                seen.add(image)
                found.append(image)
    expected = 2**n * math.prod(2**k + 1 for k in range(1, n + 1))
    if len(found) != expected:
        raise RuntimeError(f"stabilizer enumeration found {len(found)}, expected {expected}")
    return tuple(found)


def _clifford_symmetries(b: list[float], n: int) -> list[tuple[list[int], list[int]]]:
    """The symmetries of rho among "the same single-qubit Clifford on every
    qubit, then a qubit permutation", 24 n! candidates, as (image, sign)
    with b[image[a]] = sign[a] b[a] on its Pauli coordinates b.  The 24 are
    the signed permutations of the Bloch axes whose signs multiply to its parity."""
    group = []
    for axes, signs, perm in itertools.product(itertools.permutations((1, 2, 3)),
                                               itertools.product((1, -1), repeat=3),
                                               itertools.permutations(range(n))):
        if math.prod(signs) != (1 if axes in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1):
            continue
        letter, sign_of = (0, *axes), (1, *signs)
        image, sign = [], []
        for a in range(4**n):
            img, sgn = 0, 1
            for q, l in enumerate(_letters(a, n)):
                img += letter[l] << 2 * (n - 1 - perm[q])
                sgn *= sign_of[l]
            if abs(b[img] - sgn * b[a]) > _SYM_TOL:
                break
            image.append(img)
            sign.append(sgn)
        else:
            group.append((image, sign))
    return group


def robustness_lp(rho) -> tuple[float, list[float], dict]:
    """Robustness of magic by l1-minimizing LP over stabilizer projectors.

    rho is a 2^n x 2^n matrix for n <= 3, given by its rows.  Returns
    (R, signed weights q over the enumerated states, certificate) where the
    certificate carries the dual witness in Pauli coordinates, its
    feasibility defect and the duality gap.

    The LP is solved over the Clifford symmetries G of rho found by
    _clifford_symmetries (Heinrich and Gross, arXiv:1807.10296), which
    permute the stabilizer states, so an optimal q may be averaged over G.
    One row is kept per Pauli orbit of G, signed relative to its smallest
    member, and dropped if it holds both +P and -P (then 0 = 0); each state's
    column is averaged over the orbits, and equal columns merge: 10 rows and
    114 columns (each next to its negation) for three copies of H or T, 8
    and 76 for F, and the full LP in order for the trivial group.  Weights
    and dual values are spread back over the merged states and the orbits,
    and the defect and gap are measured on that lifted certificate.
    """
    from . import _simplex

    rows = [[complex(v) for v in row] for row in rho]
    dim = len(rows)
    n = dim.bit_length() - 1
    if dim != 2**n or not 1 <= n <= 3 or any(len(row) != dim for row in rows):
        raise ValueError("robustness LP supports 1 to 3 qubits")
    if any(abs(rows[i][j] - rows[j][i].conjugate()) > 1e-9 for i in range(dim) for j in range(i, dim)):
        raise ValueError("input must be Hermitian")
    states = _stabilizer_coords(n)
    b = pauli_coords(rows)
    group = _clifford_symmetries(b, n)
    orbits = []  # (representative, {member: sign relative to it})
    row_of = [None] * (2 * 4**n)  # code -> (its orbit's row, signed entry), () if dropped
    for a in range(4**n):
        if row_of[2 * a] is None:
            pairs = {(image[a], sign[a]) for image, sign in group}
            members = dict(pairs)
            kept = len(members) == len(pairs)
            for m, s in members.items():
                row_of[2 * m], row_of[2 * m + 1] = ((len(orbits), s), (len(orbits), -s)) if kept else ((), ())
            if kept:
                orbits.append((a, members))
    index: dict[tuple, int] = {}
    column = []  # state -> reduced column
    for codes in states:
        summed = [0] * len(orbits)
        for r, s in filter(None, map(row_of.__getitem__, codes)):
            summed[r] += s
        column.append(index.setdefault(tuple(summed), len(index)))
    A = [[key[r] / len(members) for key in index] for r, (_, members) in enumerate(orbits)]
    M = len(index)
    x, y, obj = _simplex.solve_lp([row + [-v for v in row] for row in A],
                                  [b[a] for a, _ in orbits], [1.0] * (2 * M))
    shared = Counter(column)
    q = [(x[k] - x[M + k]) / shared[k] for k in column]
    witness = [0.0] * 4**n
    for r, (_, members) in enumerate(orbits):
        for m, s in members.items():
            witness[m] = s * y[r] / len(members)
    # dual feasibility: |<W, P_j>| <= 1 for the R-witness W = sum y_a sigma_a
    by_code = [v for w in witness for v in (w, -w)]
    top = max(abs(sum(map(by_code.__getitem__, codes))) for codes in states)
    cert = {"witness_coords": witness, "feasibility_defect": max(0.0, top - 1.0),
            "duality_gap": obj - sum(u * v for u, v in zip(b, witness))}
    return obj, q, cert
