"""Magic monotones.

Single-qubit states get exact analytic treatment: canonicalization into the
P_Y region and the one-parameter witness family certifying the common value
of dyadic negativity, generalized robustness and extent.  The witness
maximum is a closed form, the best of the two endpoints and the at most two
stationary points, where a line meets the unit circle.  Products multiply.
The robustness of magic is computed as an l1-minimizing linear program over
enumerated stabilizer states for up to three qubits, solved over the orbits
of the qubit permutations that fix the state.  Nothing here builds a
stabilizer state: the expansions that do live in decompositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import pauli as pa

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))
SQRT6 = float(np.sqrt(6.0))
Q_MIN = float(np.sqrt(2.0 / 3.0))

_NORM_TOL = 1e-12
_PURE_TOL = 1e-9
_SYM_TOL = 1e-12  # entrywise match of rho and a qubit permutation of it

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
        if self.norm_sq() > 1.0 + _NORM_TOL:
            raise ValueError("Bloch vector lies outside the unit ball")

    @classmethod
    def named(cls, name: str) -> "BlochState":
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


@dataclass(frozen=True)
class Witness1Q:
    """Dual witness for the single-qubit monotones.

    The witness operator is (1 + q*Ht + sqrt(1-q^2)*Y) / (1 + q/sqrt(2)) with
    Ht = (X+Z)/sqrt(2), evaluated against the canonicalized state; clifford
    is the gate word taking the input state into P_Y.
    """

    q: float
    value: float
    clifford: tuple


def _witness_eval(q: float, rho: BlochState) -> float:
    root = float(np.sqrt(max(0.0, 1.0 - q * q)))
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
        half = float(np.sqrt(r2 - C * C))
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


_LETTER_MATRICES = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                             [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # I, X, Y, Z


def pauli_coords(op: np.ndarray) -> np.ndarray:
    """Real coordinates Tr[P_a · op] over all Pauli strings P_a, with
    a = sum_q l_q 4^(n-1-q) for letters l_q of I, X, Y, Z = 0..3; op is
    contracted one qubit at a time, so no 2^n x 2^n Pauli matrix is built."""
    t = op.reshape(1, *op.shape)
    while t.shape[1] > 1:
        half = t.shape[1] // 2
        # sum_ij P_l[j, i] t[a, (i, b), (j, c)] over the leading qubit's i, j
        t = np.einsum("lji,aibjc->albc", _LETTER_MATRICES,
                      t.reshape(len(t), 2, half, 2, half)).reshape(-1, half, half)
    return np.real(t.ravel())


@lru_cache(maxsize=None)
def _letter_action(name: str, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(image, sign) with U^dag P_w U = sign[w] P_image[w] over the letter
    words w of the gate's own `width` qubits, read off pa.conjugate_pauli."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=width)]
    images = [pa.conjugate_pauli(pa.PauliOp.from_letters(w), [(name, *range(width))]) for w in words]
    return (np.array([words.index(p.letters()) for p in images]),
            np.array([round(p.phase.real) for p in images], np.int8))


def _pauli_action(gate: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(image, sign) with U^dag P_a U = sign[a] P_image[a] for every n-qubit
    Pauli row a: the gate's letter action on those letters of the row."""
    qubits = np.array(gate[1:])
    image, sign = _letter_action(gate[0], len(qubits))
    local_place = 4 ** np.arange(len(qubits) - 1, -1, -1)
    old = np.arange(4**n)[:, None] // 4 ** (n - 1 - qubits) % 4
    local = old @ local_place
    new = image[local][:, None] // local_place % 4
    return np.arange(4**n) + (new - old) @ 4 ** (n - 1 - qubits), sign[local]


@lru_cache(maxsize=None)
def _stabilizer_coords(n: int) -> np.ndarray:
    """Pauli coordinates Tr[P_a |v><v|], 0 or +-1, of every n-qubit
    stabilizer state v, n <= 3, one int8 column each.

    Breadth-first closure of |0..0> under H, S and CX on the columns, each
    gate a signed row permutation (_pauli_action).  Candidates are
    deduplicated exactly on packed support and sign bits in (frontier, gate)
    order, so the columns keep the order of the dense oracle's
    enumerate_stabilizer_states; the counts 6 / 60 / 1080 are asserted.
    """
    if n > 3:
        raise ValueError("enumeration capped at n=3")
    gates = [("H", q) for q in range(n)] + [("S", q) for q in range(n)]
    gates += [("CX", a, b) for a in range(n) for b in range(n) if a != b]
    image, sign = (np.stack(x) for x in zip(*(_pauli_action(g, n) for g in gates)))
    cands = reduce(np.kron, [np.array([1, 0, 0, 1], np.int8)] * n)[None]  # |0..0>: I, Z rows
    found, keys = [], np.empty(0, dtype=f"V{4**n // 4}")
    while len(cands):
        cand_keys = np.packbits(np.hstack([cands != 0, cands < 0]), axis=1).view(keys.dtype).ravel()
        # a key already found sorts first, so only a new key's first index passes
        _, first = np.unique(np.concatenate([keys, cand_keys]), return_index=True)
        fresh = np.sort(first[first >= len(keys)]) - len(keys)
        keys = np.concatenate([keys, cand_keys[fresh]])
        found.append(cands[fresh])
        # row i, gate g of the next candidates is sign_g * v_i[image_g]
        cands = (found[-1][:, image] * sign).reshape(-1, 4**n)
    coords = np.concatenate(found).T
    expected = 2**n * np.prod([2**k + 1 for k in range(1, n + 1)])
    if coords.shape[1] != expected:
        raise RuntimeError(f"stabilizer enumeration found {coords.shape[1]}, expected {expected}")
    coords.flags.writeable = False  # one cached array serves every caller
    return coords


def _fixing_permutations(rho: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """The qubit permutations p with rho unchanged when qubit k moves to p[k]."""
    tensor = rho.reshape((2,) * (2 * n))
    return [p for p in itertools.permutations(range(n))
            if np.abs(tensor.transpose(p + tuple(k + n for k in p)) - tensor).max() <= _SYM_TOL]


def robustness_lp(rho: np.ndarray) -> tuple[float, np.ndarray, dict]:
    """Robustness of magic by l1-minimizing LP over stabilizer projectors.

    Returns (R, signed weights q over the enumerated states, certificate)
    where the certificate carries the dual witness in Pauli coordinates,
    its feasibility defect and the duality gap.

    The LP is solved over the group G of qubit permutations that fix rho:
    averaging an optimal q over G keeps it optimal, so the weights may be
    taken constant on G's orbits.  The integer columns are summed over the
    row permutations of G; one row is kept per Pauli orbit (its rows are
    equal) and one column per distinct summed column, scaled by 1/|G|.
    For rho^(x)3 that is 20 rows and 234 columns in place of 64 and 1,080
    (468 and 2,160 with the negated copies); the trivial group keeps every
    row and column in enumeration order.  A reduced weight is spread evenly
    over the states sharing its column and a reduced dual value over the
    Paulis of its orbit.  The defect and gap are measured on that lifted,
    full-width certificate against every stabilizer state.
    """
    from . import _simplex

    dim = rho.shape[0]
    n = int(np.log2(dim))
    if 2**n != dim or n > 3:
        raise ValueError("robustness LP supports 1 to 3 qubits")
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValueError("input must be Hermitian")
    cols = _stabilizer_coords(n)
    b = pauli_coords(rho)
    perms = _fixing_permutations(rho, n)
    letters = np.arange(4**n).reshape((4,) * n)
    moved = np.array([letters.transpose(p).reshape(-1) for p in perms])
    # the orbit of Pauli a is moved[:, a]; its smallest index names it
    reps, orbit, orbit_size = np.unique(moved.min(axis=0), return_inverse=True, return_counts=True)
    summed = cols[moved].sum(axis=0, dtype=np.int8)[reps]  # |G| <= 6 terms of 0, +-1
    _, first, inverse = np.unique(summed, axis=1, return_index=True, return_inverse=True)
    keep = np.sort(first)
    column = np.searchsorted(keep, first[inverse.ravel()])  # state j -> reduced column
    A = summed[:, keep] / len(perms)
    M = len(keep)
    x, y, obj = _simplex.solve_lp(np.hstack([A, -A]), b[reps], np.ones(2 * M))
    q = (x[:M] - x[M:])[column] / np.bincount(column)[column]
    witness = y[orbit] / orbit_size[orbit]
    # dual feasibility: |<W, P_j>| <= 1 for the R-witness W = sum y_a sigma_a
    witness_vals = cols.T @ witness
    defect = float(max(0.0, np.abs(witness_vals).max() - 1.0))
    gap = float(obj - b @ witness)
    cert = {"witness_coords": witness, "feasibility_defect": defect, "duality_gap": gap}
    return float(obj), q, cert
