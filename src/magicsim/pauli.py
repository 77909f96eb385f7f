"""Pauli operators, stabilizer projectors and their conjugation by Clifford gates.

The forms stab_core projects with, over the rules of gate_rules; nothing
here builds a state, so a process that only conjugates Paulis compiles none
of the CH-form engine.
"""

from __future__ import annotations

import numpy as np

from .gate_rules import _GATE_ARITY, check_gate, conjugate_bits

_I_POW = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])

GATE_NAMES = tuple(_GATE_ARITY)

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def _parity(bits: np.ndarray) -> int:
    return int(np.count_nonzero(bits)) & 1


class PauliOp:
    """n-qubit Pauli operator with explicit phase.

    The operator equals phase * (tensor product of letters), with letter Y
    understood as the usual Hermitian Y.  Internally the operator is held as
    i^k X^x Z^z, which composes with a plain symplectic phase rule.
    """

    __slots__ = ("x", "z", "k")

    def __init__(self, x: np.ndarray, z: np.ndarray, k: int = 0):
        self.x = np.asarray(x, dtype=bool)
        self.z = np.asarray(z, dtype=bool)
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be equal-length 1-d bit arrays")
        self.k = k % 4

    @property
    def n(self) -> int:
        return self.x.size

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(np.zeros(n, bool), np.zeros(n, bool), 0)

    @classmethod
    def from_letters(cls, letters: str, phase: complex = 1) -> "PauliOp":
        x = np.zeros(len(letters), bool)
        z = np.zeros(len(letters), bool)
        for j, ch in enumerate(letters.upper()):
            try:
                x[j], z[j] = _LETTER_TO_XZ[ch]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {ch!r}") from None
        kp = _phase_to_pow(phase)
        # letters convention: Y = i X Z, so each Y contributes one factor of i
        y_count = int(np.count_nonzero(x & z))
        return cls(x, z, kp + y_count)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase: complex = 1) -> "PauliOp":
        word = ["I"] * n
        word[qubit] = letter
        return cls.from_letters("".join(word), phase)

    @property
    def phase(self) -> complex:
        y_count = int(np.count_nonzero(self.x & self.z))
        return complex(_I_POW[(self.k - y_count) % 4])

    def is_hermitian(self) -> bool:
        y_count = int(np.count_nonzero(self.x & self.z))
        return (self.k - y_count) % 2 == 0

    def mul(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        # Z^z1 X^x2 = (-1)^{z1.x2} X^x2 Z^z1
        k = self.k + other.k + 2 * _parity(self.z & other.x)
        return PauliOp(self.x ^ other.x, self.z ^ other.z, k)

    def commutes(self, other: "PauliOp") -> bool:
        return (_parity(self.x & other.z) + _parity(self.z & other.x)) % 2 == 0

    def letters(self) -> str:
        return "".join(_XZ_TO_LETTER[(int(a), int(b))] for a, b in zip(self.x, self.z))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOp)
            and self.k == other.k
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.z, other.z))
        )

    def __repr__(self) -> str:
        ph = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[complex(self.phase)]
        return f"{ph}{self.letters()}"


def _phase_to_pow(phase: complex) -> int:
    for p, val in enumerate([1, 1j, -1, -1j]):
        if abs(complex(phase) - val) < 1e-12:
            return p
    raise ValueError("phase must be one of +1, -1, +i, -i")


class StabProjector:
    """Product of commuting Pauli projectors (1 + sign*P)/2.

    Projects onto a 2^{n-h} dimensional stabilizer subspace, h being the
    number of generators.  Generators must be Hermitian, mutually commuting
    and independent.
    """

    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators: list[tuple[PauliOp, int]]):
        self.n = n
        gens: list[tuple[PauliOp, int]] = []
        for op, sign in generators:
            if op.n != n:
                raise ValueError("generator width mismatch")
            if not op.is_hermitian():
                raise ValueError("projector generators must have phase +1 or -1")
            if sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            gens.append((op, sign))
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not gens[i][0].commutes(gens[j][0]):
                    raise ValueError("projector generators must commute")
        if gens:
            rows = np.array([np.concatenate([op.x, op.z]) for op, _ in gens])
            if len(_echelon(_bit_rows(rows))) != len(gens):
                raise ValueError("projector generators must be independent")
        self.generators = tuple(gens)

    @property
    def h(self) -> int:
        return len(self.generators)

    @classmethod
    def from_strings(cls, pairs: list[tuple[str, int]]) -> "StabProjector":
        if not pairs:
            raise ValueError("need at least one generator")
        n = len(pairs[0][0])
        return cls(n, [(PauliOp.from_letters(s), sign) for s, sign in pairs])

    def __repr__(self) -> str:
        body = ", ".join(f"{'+' if s > 0 else '-'}{op.letters()}" for op, s in self.generators)
        return f"StabProjector[{body}]"


def conjugate_pauli(p: PauliOp, gates) -> PauliOp:
    """U^dag p U for the circuit U that applies gates in order.

    The gates are undone last first, each by a symplectic rule on the
    i^k X^x Z^z form (Aaronson and Gottesman, arXiv:quant-ph/0406196).  The
    rules keep every phase, so a projector is conjugated generator by
    generator.
    """
    for gate in gates:
        check_gate(gate, p.n)
    return _conjugate_pauli_unchecked(p, gates)


def _conjugate_pauli_unchecked(p: PauliOp, gates) -> PauliOp:
    """conjugate_pauli for gates already checked, as a channel's are."""
    x, z = p.x.tolist(), p.z.tolist()
    k = conjugate_bits(x, z, p.k, gates)
    return PauliOp(np.array(x, dtype=bool), np.array(z, dtype=bool), k)


def _bit_rows(mat: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix as ints, column j at bit j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def _echelon(rows: list[int]) -> list[tuple[int, int]]:
    """Reduced row echelon form over GF(2) as (pivot bit, row) pairs, each
    pivot bit the row's lowest and set in no other row."""
    out: list[tuple[int, int]] = []
    for row in rows:
        for piv, r in out:
            if row >> piv & 1:
                row ^= r
        if row:
            piv = (row & -row).bit_length() - 1
            out = [(q, r ^ row if r >> piv & 1 else r) for q, r in out]
            out.append((piv, row))
    return out
