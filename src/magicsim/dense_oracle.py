"""Brute-force dense reference for n <= 6 qubits.

Everything here is plain matrix arithmetic on 2^n vectors, deliberately
sharing no update logic with the stabilizer engine; agreement between the two
is what the test suite leans on.  Qubit 0 owns the most significant bit of
the basis index.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from ._util import MAX_DENSE_QUBITS
from .stab_core import PauliOp, StabProjector, StabState

_S2 = 1.0 / np.sqrt(2.0)

GATE_MATRICES = {
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": GATE_MATRICES["X"],
    "Y": GATE_MATRICES["Y"],
    "Z": GATE_MATRICES["Z"],
}


def _check_n(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense reference capped at n={MAX_DENSE_QUBITS}")


def basis_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def index_bits(idx: int, n: int) -> np.ndarray:
    return np.array([(idx >> (n - 1 - j)) & 1 for j in range(n)], dtype=bool)


def expand(state: StabState) -> np.ndarray:
    """Exact dense amplitudes of a StabState, global scalar included."""
    _check_n(state.n)
    n = state.n
    vec = np.zeros(2**n, dtype=complex)
    if state.null:
        return vec
    for idx in range(2**n):
        vec[idx] = state.amplitude_of(index_bits(idx, n))
    return vec


def apply_gate_dense(vec: np.ndarray, n: int, gate: tuple) -> np.ndarray:
    _check_n(n)
    name = gate[0]
    U = GATE_MATRICES[name]
    t = vec.reshape([2] * n)
    if U.shape[0] == 2:
        (q,) = gate[1:]
        t = np.moveaxis(np.tensordot(U, t, axes=([1], [q])), 0, q)
    else:
        a, b = gate[1:]
        U4 = U.reshape(2, 2, 2, 2)
        t = np.moveaxis(np.tensordot(U4, t, axes=([2, 3], [a, b])), [0, 1], [a, b])
    return np.ascontiguousarray(t).reshape(2**n)


def apply_circuit_dense(vec: np.ndarray, n: int, gates) -> np.ndarray:
    out = vec
    for gate in gates:
        out = apply_gate_dense(out, n, gate)
    return out


def circuit_unitary(n: int, gates) -> np.ndarray:
    _check_n(n)
    U = np.eye(2**n, dtype=complex)
    for col in range(2**n):
        U[:, col] = apply_circuit_dense(np.ascontiguousarray(U[:, col]), n, gates)
    return U


def pauli_matrix(p: PauliOp) -> np.ndarray:
    _check_n(p.n)
    out = np.array([[1]], dtype=complex)
    for ch in p.letters():
        out = np.kron(out, _LETTER_MATRICES[ch])
    return p.phase * out


def projector_matrix(proj: StabProjector) -> np.ndarray:
    _check_n(proj.n)
    dim = 2**proj.n
    out = np.eye(dim, dtype=complex)
    for op, sign in proj.generators:
        out = out @ ((np.eye(dim, dtype=complex) + sign * pauli_matrix(op)) / 2.0)
    return out


def kraus_matrix(k) -> np.ndarray:
    """Dense 2^{h/2} U Pi for a StabKraus-shaped object."""
    n = k.proj.n
    _check_n(n)
    return (2.0 ** (0.5 * k.h)) * circuit_unitary(n, k.circuit) @ projector_matrix(k.proj)


def dyad_matrix(d) -> np.ndarray:
    """Dense |L><R| for a Dyad-shaped object."""
    return np.outer(expand(d.L), np.conj(expand(d.R)))


def dyadic_matrix(decomp) -> np.ndarray:
    """Dense rho for a DyadicDecomposition: the Kronecker product of its factors' sums."""
    _check_n(decomp.n)
    return reduce(np.kron, [sum(a * dyad_matrix(d) for a, d in f) for f in decomp.factors])


def expansion_vector(d) -> np.ndarray:
    """Dense sum_j c_j |phi_j> for a SparseDecomposition-shaped object."""
    return sum(c * expand(t) for c, t in zip(d.coeffs, d.terms))


def mixed_matrix(inp) -> np.ndarray:
    """Dense sum_j p_j |psi_j><psi_j| for a MixedInput-shaped object."""
    vecs = [(p, expansion_vector(d)) for p, d in inp.ensemble]
    return sum(p * np.outer(v, np.conj(v)) for p, v in vecs)


def apply_channel_dense(rho: np.ndarray, ch) -> np.ndarray:
    """Sum of p_r U_r rho U_r^dag plus q_s K_s rho K_s^dag."""
    n = int(np.log2(rho.shape[0]))
    _check_n(n)
    out = np.zeros_like(rho)
    for p, gates in ch.unitary_part:
        U = circuit_unitary(n, gates)
        out += p * (U @ rho @ U.conj().T)
    for q, kr in ch.kraus_part:
        K = kraus_matrix(kr)
        out += q * (K @ rho @ K.conj().T)
    return out


def channel_completeness_defect(ch, n: int) -> float:
    """Max-abs deviation of sum p_r I + sum q_s K_s^dag K_s from I.

    The tests' reference for the exact check that builds every channel.
    """
    _check_n(n)
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for p, _ in ch.unitary_part:
        acc += p * np.eye(2**n)
    for q, kr in ch.kraus_part:
        K = kraus_matrix(kr)
        acc += q * (K.conj().T @ K)
    return float(np.abs(acc - np.eye(2**n)).max())


def born_probability_dense(rho: np.ndarray, proj: StabProjector) -> float:
    P = projector_matrix(proj)
    return float(np.real(np.trace(P @ rho)))


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n: int) -> tuple[np.ndarray, ...]:
    """All pure n-qubit stabilizer states as dense vectors, n <= 3: as a
    set, the tests' reference for monotones._stabilizer_coords' direct build.

    Breadth-first closure of |0..0> under H, S and CX by the stacked gate
    matrices, one frontier at a time.  A candidate's phase is fixed by its
    first nonzero amplitude, and the rounded result keys the deduplication
    in (frontier, gate) order; the counts 6 / 60 / 1080 are asserted.
    """
    if n > 3:
        raise ValueError("enumeration capped at n=3")
    dim = 2**n
    gates = [("H", q) for q in range(n)] + [("S", q) for q in range(n)]
    gates += [("CX", a, b) for a in range(n) for b in range(n) if a != b]
    # row i of frontier @ step is [U_g v_i for g in gates] laid end to end
    step = np.hstack([circuit_unitary(n, [gate]).T for gate in gates])
    seen = {}
    cands = np.eye(1, dim, dtype=complex)  # |0..0>
    while len(cands):
        lead = cands[np.arange(len(cands)), np.argmax(np.abs(cands) > 1e-9, axis=1)]
        canon = cands * (np.conj(lead) / np.abs(lead))[:, None]
        fresh = []
        for i, key in enumerate(np.round(canon, 9) + 0.0):
            key = key.tobytes()
            if key not in seen:
                seen[key] = canon[i]
                fresh.append(i)
        cands = (cands[fresh] @ step).reshape(-1, dim)
    expected = 2**n * math.prod(2**k + 1 for k in range(1, n + 1))
    if len(seen) != expected:
        raise RuntimeError(f"stabilizer enumeration found {len(seen)}, expected {expected}")
    return tuple(seen.values())
