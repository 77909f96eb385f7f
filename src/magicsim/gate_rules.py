"""Clifford gate names, target checks and the one rule set for U^dag P U on
the i^k X^x Z^z form of a Pauli, with x and z as bit-mask ints, bit q for
qubit q: pauli wraps it for PauliOp, and monotones reads it without loading
numpy.
"""

from __future__ import annotations

_GATE_ARITY = {"S": 1, "SDG": 1, "H": 1, "X": 1, "Y": 1, "Z": 1, "CX": 2, "CZ": 2, "SWAP": 2}


def check_gate(gate: tuple, n: int) -> None:
    """Raise ValueError unless gate is (name, targets...) with a known name,
    that name's target count, and distinct targets in range(n)."""
    arity = _GATE_ARITY.get(gate[0])
    if arity is None:
        raise ValueError(f"unknown gate {gate[0]!r}")
    if len(gate) != arity + 1:
        raise ValueError(f"gate {gate[0]} needs {arity} target(s), got {len(gate) - 1}")
    a = gate[1]
    if not 0 <= a < n or (arity == 2 and (gate[2] == a or not 0 <= gate[2] < n)):
        raise ValueError(f"gate {tuple(gate)!r} needs distinct targets in 0..{n - 1}")


def conjugate_bits(x: int, z: int, k: int, gates) -> tuple[int, int, int]:
    """(x, z, k) of U^dag i^k X^x Z^z U for the circuit U applying checked
    gates in order, undoing them last first by symplectic rules (Aaronson and
    Gottesman, arXiv:quant-ph/0406196); k is not reduced mod 4."""
    for gate in reversed(gates):
        name, a = gate[0], int(gate[1])
        xa, za = x >> a & 1, z >> a & 1
        if name == "H":
            # H X^x Z^z H = Z^x X^z = (-1)^{xz} X^z Z^x
            k += 2 * (xa & za)
            x, z = x ^ (xa ^ za) << a, z ^ (xa ^ za) << a
        elif name == "S":
            # S^dag X S = -i X Z
            k += 3 * xa
            z ^= xa << a
        elif name == "SDG":
            k += xa
            z ^= xa << a
        elif name == "X":
            k += 2 * za
        elif name == "Y":
            k += 2 * (xa ^ za)
        elif name == "Z":
            k += 2 * xa
        else:
            b = int(gate[2])
            xb, zb = x >> b & 1, z >> b & 1
            if name == "CX":
                x ^= xa << b
                z ^= zb << a
            elif name == "CZ":
                # CZ X_a CZ = X_a Z_b, and X_a Z_b X_b Z_a = -X_a X_b Z_a Z_b
                k += 2 * (xa & xb)
                z ^= xb << a | xa << b
            else:
                both = 1 << a | 1 << b
                x, z = x ^ (xa ^ xb) * both, z ^ (za ^ zb) * both
    return x, z, k
