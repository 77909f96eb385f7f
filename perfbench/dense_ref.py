"""Exact reference values computed with plain numpy, independent of magicsim.

Density matrices are kept as tensors with n row axes followed by n column
axes, qubit 0 first, which matches the package's big-endian basis order.
Every function here is small enough to check by hand; the benchmark uses
them to verify the simulators' outputs, never to time anything.
"""

from __future__ import annotations

import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
GATES = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.diag([1, 1j]).astype(complex),
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    **{k: v for k, v in PAULI.items() if k != "I"},
}

BLOCH = {
    "+": (1.0, 0.0, 0.0),
    "H": (_S2, 0.0, _S2),
    "T": (_S2, _S2, 0.0),
    "F": (1.0 / math.sqrt(3.0),) * 3,
}


def bloch_density(b) -> np.ndarray:
    x, y, z = b
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def product_density(blochs) -> np.ndarray:
    """Product state as an (2,)*2n tensor."""
    rho = np.ones((), dtype=complex)
    for b in blochs:
        rho = np.multiply.outer(rho, bloch_density(b))
    n = len(blochs)
    # outer products interleave (row, col) per qubit; gather rows first
    return rho.transpose([2 * q for q in range(n)] + [2 * q + 1 for q in range(n)])


def _left(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    k = len(axes)
    out = np.tensordot(m.reshape([2] * 2 * k), t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def conjugate(rho: np.ndarray, m: np.ndarray, qubits) -> np.ndarray:
    """m rho m^dag for an operator m acting on the listed qubits."""
    n = rho.ndim // 2
    rho = _left(rho, m, qubits)
    return _left(rho, m.conj(), [n + q for q in qubits])


def apply_gates(rho: np.ndarray, gates) -> np.ndarray:
    for name, *qubits in gates:
        rho = conjugate(rho, GATES[name], qubits)
    return rho


def depolarize(rho: np.ndarray, q: int, lam: float) -> np.ndarray:
    out = (1.0 - 0.75 * lam) * rho
    for p in "XYZ":
        out = out + 0.25 * lam * conjugate(rho, PAULI[p], [q])
    return out


def t_gadget(rho: np.ndarray, d: int, a: int) -> np.ndarray:
    """Measure Z_d Z_a, then CX(d, a), plus S on d after the -1 outcome."""
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    cx = GATES["CX"]
    s_d = np.kron(GATES["S"], PAULI["I"])
    plus = cx @ (np.eye(4) + zz) / 2.0
    minus = s_d @ cx @ (np.eye(4) - zz) / 2.0
    return conjugate(rho, plus, [d, a]) + conjugate(rho, minus, [d, a])


def pauli_expectation(rho: np.ndarray, word: str) -> float:
    n = rho.ndim // 2
    for q, letter in enumerate(word):
        if letter != "I":
            rho = _left(rho, PAULI[letter], [q])
    return float(np.real(np.trace(rho.reshape(2**n, 2**n))))


def l1_ball_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit l1 ball (soft thresholding)."""
    a = np.abs(v)
    if a.sum() <= 1.0:
        return v.copy()
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    k = ranks[u * ranks > cum - 1.0][-1]
    return np.sign(v) * np.maximum(a - (cum[k - 1] - 1.0) / k, 0.0)


def hoeffding_radius(bound: float, samples: int, p: float) -> float:
    """Half-width t with P(|mean - mu| >= t) <= p for samples in [-bound, bound]."""
    return bound * math.sqrt(2.0 * math.log(2.0 / p) / samples)


# -- robustness of magic on up to three qubits ---------------------------------


def stabilizer_states(n: int) -> np.ndarray:
    """Every pure n-qubit stabilizer state, as the orbit of |0..0> under H, S, CX."""
    dim = 2**n

    def full(gate, qubits):
        u = np.eye(dim, dtype=complex).reshape([2] * 2 * n)
        return _left(u, GATES[gate], qubits).reshape(dim, dim)

    gens = [full("H", [q]) for q in range(n)] + [full("S", [q]) for q in range(n)]
    gens += [full("CX", [a, b]) for a in range(n) for b in range(n) if a != b]
    start = np.zeros(dim, dtype=complex)
    start[0] = 1.0
    seen = {}
    frontier = [start]
    while frontier:
        nxt = []
        for vec in frontier:
            key = (np.round(np.outer(vec, vec.conj()), 9) + 0.0).tobytes()
            if key in seen:
                continue
            seen[key] = vec
            nxt.extend(g @ vec for g in gens)
        frontier = nxt
    return np.array(list(seen.values()))


def pauli_stack(n: int) -> np.ndarray:
    """All 4^n Pauli strings on n qubits as a (4^n, 2^n, 2^n) array."""
    mats = [np.ones((1, 1), dtype=complex)]
    for _ in range(n):
        mats = [np.kron(m, p) for m in mats for p in PAULI.values()]
    return np.array(mats)


def robustness(rho: np.ndarray, states: np.ndarray) -> float:
    """min ||q||_1 subject to sum_j q_j |s_j><s_j| = rho, solved by HiGHS.

    states holds one stabilizer state vector per row; both sides of the
    constraint are written in Pauli coordinates Tr[P .].
    """
    from scipy.optimize import linprog

    paulis = pauli_stack(int(round(math.log2(rho.shape[0]))))
    cols = np.real(np.einsum("ni,pij,nj->pn", states.conj(), paulis, states))
    b = np.real(np.einsum("pij,ji->p", paulis, rho))
    A = np.hstack([cols, -cols])
    res = linprog(np.ones(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)
