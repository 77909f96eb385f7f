"""Pauli operators, stabilizer projectors and their conjugation by Clifford gates.

A Pauli is held as i^k X^x Z^z with x and z bit-mask ints, bit q for qubit
q, the form gate_rules conjugates.  The forms stab_core projects with; nothing
here builds a state or loads numpy, so a process that only conjugates Paulis
compiles none of the CH-form engine.
"""

from __future__ import annotations

from .gate_rules import _GATE_ARITY, check_gate, conjugate_bits

_I_POW = (1, 1j, -1, -1j)

GATE_NAMES = tuple(_GATE_ARITY)

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def _set_bits(mask: int) -> list[int]:
    """The positions of mask's set bits, lowest first."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


class PauliOp:
    """n-qubit Pauli operator with explicit phase.

    The operator equals phase * (tensor product of letters), with letter Y
    understood as the usual Hermitian Y.  Internally the operator is held as
    i^k X^x Z^z, x and z being non-negative ints with bit q for qubit q, which
    composes with a plain symplectic phase rule.
    """

    __slots__ = ("n", "x", "z", "k")

    def __init__(self, n: int, x: int, z: int, k: int = 0):
        if x < 0 or z < 0 or (x | z) >> n:
            raise ValueError(f"x and z must be bit masks of {n} qubits")
        self.n, self.x, self.z, self.k = n, x, z, k % 4

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_letters(cls, letters: str, phase: complex = 1) -> "PauliOp":
        x = z = 0
        for j, ch in enumerate(letters.upper()):
            try:
                xj, zj = _LETTER_TO_XZ[ch]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {ch!r}") from None
            x, z = x | xj << j, z | zj << j
        # letters convention: Y = i X Z, so each Y contributes one factor of i
        return cls(len(letters), x, z, _phase_to_pow(phase) + (x & z).bit_count())

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase: complex = 1) -> "PauliOp":
        word = ["I"] * n
        word[qubit] = letter
        return cls.from_letters("".join(word), phase)

    @property
    def phase(self) -> complex:
        return complex(_I_POW[(self.k - (self.x & self.z).bit_count()) % 4])

    def is_hermitian(self) -> bool:
        return (self.k - (self.x & self.z).bit_count()) % 2 == 0

    def mul(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        # Z^z1 X^x2 = (-1)^{z1.x2} X^x2 Z^z1
        k = self.k + other.k + 2 * (self.z & other.x).bit_count()
        return PauliOp(self.n, self.x ^ other.x, self.z ^ other.z, k)

    def commutes(self, other: "PauliOp") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def letters(self) -> str:
        return "".join(_XZ_TO_LETTER[self.x >> q & 1, self.z >> q & 1] for q in range(self.n))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliOp)
                and (self.n, self.x, self.z, self.k) == (other.n, other.x, other.z, other.k))

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
        if len(_echelon([op.x | op.z << n for op, _ in gens])) != len(gens):
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
    return PauliOp(p.n, *conjugate_bits(p.x, p.z, p.k, gates))


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
