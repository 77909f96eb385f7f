"""Oracle-backed tests for the stabilizer engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsim import dense_oracle as do
from magicsim import stab_core as sc

from conftest import random_gate, random_pauli, random_program, random_stab_state

ATOL = 1e-10


def run_program_both(n: int, items: list[tuple], check_each_step: bool = True):
    """Replay a program on both engines, comparing after every item."""
    state = sc.zero_state(n)
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    for item in items:
        if item[0] == "gate":
            state = sc.apply_gate(state, item[1])
            vec = do.apply_gate_dense(vec, n, item[1])
        else:
            _, p, sign = item
            prev_amp = state.amplitude()
            state, norm = sc.project_pauli(state, p, sign)
            P = (np.eye(2**n) + sign * do.pauli_matrix(p)) / 2.0
            new_vec = P @ vec
            if prev_amp > 0:
                assert abs(norm - np.linalg.norm(new_vec) / np.linalg.norm(vec)) < ATOL
            vec = new_vec
        if check_each_step:
            assert np.allclose(do.expand(state), vec, atol=ATOL)
    return state, vec


def test_basis_state_amplitude_and_phase():
    st0 = sc.basis_state([True, False, True])
    assert st0.amplitude() == 1.0
    assert st0.phase() == 1.0 + 0j
    vec = do.expand(st0)
    assert vec[do.basis_index([1, 0, 1])] == 1.0 + 0j
    assert np.count_nonzero(vec) == 1


def test_h_on_zero_gives_plus():
    st1 = sc.apply_gate(sc.zero_state(1), ("H", 0))
    assert np.allclose(do.expand(st1), [2**-0.5, 2**-0.5], atol=ATOL)
    assert abs(st1.amplitude() - 1.0) < ATOL


def test_s_on_plus_gives_plus_i():
    st1 = sc.apply_gate(sc.plus_state(1), ("S", 0))
    assert np.allclose(do.expand(st1), [2**-0.5, 1j * 2**-0.5], atol=ATOL)


def test_every_gate_matches_dense_on_random_states():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            state = random_stab_state(rng, n)
            gate = random_gate(rng, n)
            before = do.expand(state)
            after = do.expand(sc.apply_gate(state, gate))
            assert np.allclose(after, do.apply_gate_dense(before, n, gate), atol=ATOL)


def test_projection_examples():
    plus = sc.plus_state(1)
    z = sc.PauliOp.from_letters("Z")
    out, norm = sc.project_pauli(plus, z, 1)
    assert abs(norm - 2**-0.5) < ATOL
    assert np.allclose(do.expand(out), [2**-0.5, 0.0], atol=ATOL)

    zero = sc.zero_state(1)
    out, norm = sc.project_pauli(zero, z, 1)
    assert norm == 1.0
    assert np.allclose(do.expand(out), [1.0, 0.0], atol=ATOL)

    out, norm = sc.project_pauli(zero, z, -1)
    assert norm == 0.0
    assert out.null


def test_projection_idempotent_and_complete():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        state = random_stab_state(rng, n)
        p = random_pauli(rng, n)
        plus_st, norm_p = sc.project_pauli(state, p, 1)
        minus_st, norm_m = sc.project_pauli(state, p, -1)
        assert abs(norm_p**2 + norm_m**2 - 1.0) < ATOL
        if not plus_st.null:
            again, norm2 = sc.project_pauli(plus_st, p, 1)
            assert norm2 == 1.0
            assert np.allclose(do.expand(again), do.expand(plus_st), atol=ATOL)
        # projection never increases amplitude
        assert plus_st.amplitude() <= state.amplitude() + ATOL
        assert minus_st.amplitude() <= state.amplitude() + ATOL


def test_inner_product_basics():
    zero = sc.zero_state(1)
    plus = sc.plus_state(1)
    minus = sc.apply_gate(sc.apply_gate(sc.zero_state(1), ("X", 0)), ("H", 0))
    assert abs(sc.inner_product(zero, plus) - 2**-0.5) < ATOL
    assert abs(sc.inner_product(plus, minus)) < ATOL


def random_projected_state(rng, n: int) -> sc.StabState:
    """Random state, half the time cut by up to three random Pauli projectors
    (so unnormalized, with p2 < 0) and scaled by a random complex factor."""
    state = random_stab_state(rng, n, depth=int(rng.integers(0, 4 * n + 1)))
    if rng.random() < 0.5:
        for _ in range(int(rng.integers(1, 4))):
            state, _ = sc.project_pauli(state, random_pauli(rng, n), 1 if rng.random() < 0.5 else -1)
        state = sc.multiply_phase(state, 0.3 + rng.random() * np.exp(2j * np.pi * rng.random()))
    return state


def test_inner_product_matches_dense():
    rng = np.random.default_rng(13)
    zero = projected = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = random_projected_state(rng, n)
        b = random_projected_state(rng, n)
        want = np.vdot(do.expand(a), do.expand(b))
        assert abs(sc.inner_product(a, b) - want) < ATOL
        zero += abs(want) < ATOL
        projected += a.p2 < 0 or b.p2 < 0
    assert zero > 100 and projected > 100


def test_unitarity_preserves_inner_products():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 33))
        a = random_projected_state(rng, n)
        b = random_projected_state(rng, n)
        g = random_gate(rng, n)
        before = sc.inner_product(a, b)
        after = sc.inner_product(sc.apply_gate(a, g), sc.apply_gate(b, g))
        assert abs(before - after) < ATOL
        assert abs(sc.apply_gate(a, g).amplitude() - a.amplitude()) < ATOL


def test_inner_product_factorizes_over_tensor_products():
    # <a (x) c|b (x) d> = <a|b><c|d> checks joint widths past the dense cap
    rng = np.random.default_rng(19)
    for _ in range(40):
        na, nc = int(rng.integers(1, 7)), int(rng.integers(7, 35))
        a, b = random_projected_state(rng, na), random_projected_state(rng, na)
        c, d = random_projected_state(rng, nc), random_projected_state(rng, nc)
        ab = sc.inner_product(a, b)
        assert abs(ab - np.vdot(do.expand(a), do.expand(b))) < ATOL
        want = ab * sc.inner_product(c, d)
        assert abs(sc.inner_product(sc.tensor(a, c), sc.tensor(b, d)) - want) < ATOL
        assert abs(sc.inner_product(sc.tensor(c, a), sc.tensor(d, b)) - want) < ATOL


def test_pauli_product_matches_dense():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n, hermitian=False)
        q = random_pauli(rng, n, hermitian=False)
        prod = p.mul(q)
        assert np.allclose(
            do.pauli_matrix(prod), do.pauli_matrix(p) @ do.pauli_matrix(q), atol=ATOL
        )
        want = np.allclose(
            do.pauli_matrix(p) @ do.pauli_matrix(q),
            do.pauli_matrix(q) @ do.pauli_matrix(p),
        )
        assert p.commutes(q) == want


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        state = random_stab_state(rng, n)
        p = random_pauli(rng, n, hermitian=False)
        got = do.expand(sc.apply_pauli(state, p))
        want = do.pauli_matrix(p) @ do.expand(state)
        assert np.allclose(got, want, atol=ATOL)


def test_tensor_and_permute_match_dense():
    rng = np.random.default_rng(29)
    for _ in range(20):
        na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a = random_stab_state(rng, na)
        b = random_stab_state(rng, nb)
        got = do.expand(sc.tensor(a, b))
        want = np.kron(do.expand(a), do.expand(b))
        assert np.allclose(got, want, atol=ATOL)


@pytest.mark.parametrize("gate", [
    ("Q", 0), ("CX", 0), ("H", 0, 1), ("X", 2), ("X", -1), ("CZ", 1, 1), ("SWAP", 0, 5),
], ids=["name", "too-few", "too-many", "range", "negative", "repeated", "second-range"])
def test_malformed_gate_rejected(gate):
    with pytest.raises(ValueError):
        sc.apply_gate(sc.zero_state(2), gate)
    with pytest.raises(ValueError):
        sc.apply_circuit(sc.zero_state(2), [("H", 0), gate])
    # conjugation undoes the gates last first; the gate is checked at either end
    for gates in ([("H", 0), gate], [gate, ("H", 0)]):
        with pytest.raises(ValueError):
            sc.conjugate_pauli(sc.PauliOp.from_letters("ZX"), gates)


def equatorial_overlap(psi, A):
    return sc.overlap(sc.equatorial_form(A), sc.amplitude_form(psi))


def test_equatorial_overlap_examples_and_oracle():
    assert abs(equatorial_overlap(sc.zero_state(2), np.zeros((2, 2), int)) - 0.5) < ATOL
    assert abs(equatorial_overlap(sc.plus_state(3), np.zeros((3, 3), int)) - 1.0) < ATOL
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        A = rng.integers(0, 2, size=(n, n))
        A = np.triu(A, 1)
        A = A + A.T + np.diag(rng.integers(0, 4, size=n))
        psi = random_projected_state(rng, n)
        # |phi_A> = 2^(-n/2) sum_x i^(x^T A x) |x>, built without the engine
        x = np.array([do.index_bits(i, n) for i in range(2**n)], dtype=np.int64)
        phi = 2.0 ** (-n / 2) * 1j ** (np.einsum("xj,jk,xk->x", x, A, x) % 4)
        want = np.vdot(phi, do.expand(psi))
        assert abs(equatorial_overlap(psi, A) - want) < ATOL


@pytest.mark.parametrize("name", sc.GATE_NAMES)
def test_conjugate_pauli_matches_dense(name):
    # U^dag P U for one gate after a random prefix, P carrying any of the four phases
    rng = np.random.default_rng(sorted(sc.GATE_NAMES).index(name))
    for _ in range(30):
        n = int(rng.integers(2, 5))
        targets = rng.choice(n, size=2 if name in ("CX", "CZ", "SWAP") else 1, replace=False)
        gates = [random_gate(rng, n) for _ in range(int(rng.integers(0, 4)))]
        gates.append((name, *map(int, targets)))
        p = random_pauli(rng, n, hermitian=False)
        U = do.circuit_unitary(n, gates)
        want = U.conj().T @ do.pauli_matrix(p) @ U
        assert np.allclose(do.pauli_matrix(sc.conjugate_pauli(p, gates)), want, atol=ATOL)


def test_conjugate_pauli_round_trip_wide():
    # conjugating by U and then by U^dag returns the Pauli with its phase; n=100 needs masks past 64 bits
    for n in (40, 100):
        rng = np.random.default_rng(41)
        gates = [random_gate(rng, n) for _ in range(400)]
        inverse = [({"S": "SDG", "SDG": "S"}.get(g[0], g[0]), *g[1:]) for g in reversed(gates)]
        for _ in range(10):
            p = random_pauli(rng, n, hermitian=False)
            there = sc.conjugate_pauli(p, gates)
            assert there != p
            assert sc.conjugate_pauli(there, inverse) == p


def test_pauli_expectation_matches_dense():
    rng = np.random.default_rng(43)
    kinds = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        state = random_stab_state(rng, n)
        for _ in range(int(rng.integers(0, 3))):
            state, _ = sc.project_pauli(state, random_pauli(rng, n), 1 if rng.random() < 0.5 else -1)
        kinds.add("null" if state.null else "rescaled" if state.p2 < 0 else "unit")
        p = random_pauli(rng, n, hermitian=False)
        vec = do.expand(state)
        want = np.vdot(vec, do.pauli_matrix(p) @ vec)
        assert abs(sc.pauli_expectation(state, p) - want) < ATOL
        # a stabilizer of the state reads its squared norm
        if not state.null:
            assert abs(sc.pauli_expectation(state, sc.PauliOp.identity(n)) - np.vdot(vec, vec)) < ATOL
    assert kinds == {"null", "rescaled", "unit"}


def test_multiply_phase_and_unit_amplitude():
    rng = np.random.default_rng(37)
    state = random_stab_state(rng, 3)
    z = np.exp(0.7j)
    scaled = sc.multiply_phase(state, 0.25 * z)
    assert np.allclose(do.expand(scaled), 0.25 * z * do.expand(state), atol=ATOL)
    unit, amp = sc.with_unit_amplitude(scaled)
    assert abs(amp - 0.25 * state.amplitude()) < ATOL
    assert abs(unit.amplitude() - 1.0) < ATOL
    assert np.allclose(do.expand(unit) * amp, do.expand(scaled), atol=ATOL)


def test_projector_validation():
    with pytest.raises(ValueError):
        sc.StabProjector.from_strings([("XZ", 1), ("ZX", -1), ("YY", 1)])  # dependent
    with pytest.raises(ValueError):
        sc.StabProjector.from_strings([("XI", 1), ("ZI", 1)])  # anticommuting
    with pytest.raises(ValueError):
        sc.project_pauli(sc.zero_state(1), sc.PauliOp.from_letters("X", 1j), 1)


def test_pauli_mask_validation():
    # x and z hold bit q for qubit q, q < n: negative masks and bits at or above n are refused
    assert sc.PauliOp(3, 0b011, 0b110).letters() == "XYZ"
    for x, z in [(-1, 0), (0, -2), (0b100, 0), (0, 1 << 70)]:
        with pytest.raises(ValueError):
            sc.PauliOp(2, x, z)


def test_project_stab_matches_dense():
    rng = np.random.default_rng(41)
    done = 0
    while done < 25:
        n = int(rng.integers(2, 5))
        p1 = random_pauli(rng, n)
        p2 = random_pauli(rng, n)
        try:
            proj = sc.StabProjector(n, [(p1, 1), (p2, -1)])
        except ValueError:
            continue
        state = random_stab_state(rng, n)
        out, norm = sc.project_stab(state, proj)
        vec = do.projector_matrix(proj) @ do.expand(state)
        assert np.allclose(do.expand(out), vec, atol=ATOL)
        assert abs(norm * state.amplitude() - np.linalg.norm(vec)) < ATOL
        done += 1


def test_randomized_programs_small():
    rng = np.random.default_rng(43)
    for _ in range(120):
        n, items = random_program(rng)
        run_program_both(n, items)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_randomized_program_property(seed):
    rng = np.random.default_rng(seed)
    n, items = random_program(rng, max_qubits=4, max_gates=25, max_projections=4)
    state, vec = run_program_both(n, items)
    if not state.null:
        got = sc.inner_product(state, state)
        assert abs(got - np.vdot(vec, vec)) < ATOL
