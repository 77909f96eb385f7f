"""Shared randomized-fixture helpers for the test suite."""

from __future__ import annotations

import numpy as np

from magicsim import stab_core as sc

GATES_1Q = ("S", "SDG", "H", "X", "Y", "Z")
GATES_2Q = ("CX", "CZ", "SWAP")


def philox_rng(seed: int, index: int) -> np.random.Generator:
    """numpy's Philox generator keyed by (seed, index), the stream sample_rng
    drew from before it became SplitMix64; values pinned under that stream
    are checked by patching it in."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, index & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_gate(rng: np.random.Generator, n: int) -> tuple:
    if n >= 2 and rng.random() < 0.4:
        name = GATES_2Q[rng.integers(len(GATES_2Q))]
        a, b = rng.choice(n, size=2, replace=False)
        return (name, int(a), int(b))
    name = GATES_1Q[rng.integers(len(GATES_1Q))]
    return (name, int(rng.integers(n)))


def random_pauli(rng: np.random.Generator, n: int, hermitian: bool = True) -> sc.PauliOp:
    while True:
        letters = "".join(rng.choice(list("IXYZ"), size=n))
        if letters != "I" * n:
            break
    if hermitian:
        phase = 1 if rng.random() < 0.5 else -1
    else:
        phase = (1, -1, 1j, -1j)[rng.integers(4)]
    return sc.PauliOp.from_letters(letters, phase)


def random_program(
    rng: np.random.Generator,
    max_qubits: int = 5,
    max_gates: int = 60,
    max_projections: int = 10,
) -> tuple[int, list[tuple]]:
    """Random interleaving of gates and Pauli projections on a basis input.

    Returned items are ("gate", g), ("project", p, sign) tuples; replay them
    with run_program / run_program_dense on both engines.
    """
    n = int(rng.integers(1, max_qubits + 1))
    n_gates = int(rng.integers(1, max_gates + 1))
    n_proj = int(rng.integers(0, max_projections + 1))
    items: list[tuple] = [("gate", random_gate(rng, n)) for _ in range(n_gates)]
    items += [
        ("project", random_pauli(rng, n), 1 if rng.random() < 0.5 else -1)
        for _ in range(n_proj)
    ]
    order = rng.permutation(len(items))
    return n, [items[i] for i in order]


def random_stab_state(rng: np.random.Generator, n: int, depth: int = 20) -> sc.StabState:
    st = sc.basis_state(rng.integers(0, 2, size=n).astype(bool))
    for _ in range(depth):
        st = sc.apply_gate(st, random_gate(rng, n))
    return st
