"""Monotone layer and one-qubit decompositions: canonicalization, witnesses,
extent, equimagical parts, LP."""

import itertools
from functools import lru_cache, reduce

import numpy as np
import pytest

import magicsim.decompositions as dc
import magicsim.dense_oracle as do
import magicsim.monotones as mono
import magicsim.stab_core as sc
from magicsim import _simplex
from magicsim.monotones import SQRT2, SQRT3, BlochState


def bloch_of(rho: np.ndarray) -> tuple[float, float, float]:
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1.0 + 0j, -1.0])
    return tuple(float(np.real(np.trace(rho @ P))) for P in (X, Y, Z))


def random_bloch(rng, pure=False, radius=None):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        r = radius if radius is not None else rng.uniform(0, 1) ** (1 / 3)
        v = v * r
    return BlochState(*v)


class TestCanonicalize:
    def test_already_canonical_empty_word(self):
        word, canon = mono.canonicalize_PY(BlochState(0.0, 0.0, 1.0))
        assert word == []
        assert canon.as_tuple() == (0.0, 0.0, 1.0)

    def test_sign_flip_example(self):
        word, canon = mono.canonicalize_PY(BlochState(-0.5, 0.1, 0.3))
        assert canon.in_PY()
        assert sorted(np.round(np.abs(canon.as_tuple()), 12)) == sorted([0.5, 0.1, 0.3])

    def test_random_spectrum_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_bloch(rng)
            word, canon = mono.canonicalize_PY(rho)
            assert canon.in_PY()
            assert sorted(np.abs(canon.as_tuple())) == pytest.approx(
                sorted(np.abs(rho.as_tuple())), abs=0
            )
            # replay the word on the density matrix through the dense gates
            mat = mono.density_matrix(rho)
            for gname, _ in word:
                U = do.GATE_MATRICES[gname]
                mat = U @ mat @ U.conj().T
            assert bloch_of(mat) == pytest.approx(canon.as_tuple(), abs=1e-12)

    def test_word_inverse_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_bloch(rng)
            word, canon = mono.canonicalize_PY(rho)
            back = canon.rotated(mono.invert_word(word))
            assert back.as_tuple() == pytest.approx(rho.as_tuple(), abs=0)


class TestLambdaPlus:
    def test_stabilizer_mixture_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.normal(size=3)
            v = v / np.sum(np.abs(v)) * rng.uniform(0, 1)
            val, _ = mono.lambda_plus_1q(BlochState(*v))
            assert val == 1.0

    def test_H_state_value(self):
        val, wit = mono.lambda_plus_1q(BlochState.named("H"))
        assert abs(val - (4 - 2 * SQRT2)) <= 1e-9
        assert wit.q == pytest.approx(1.0, abs=1e-9)

    def test_H_log2(self):
        val, _ = mono.lambda_plus_1q(BlochState.named("H"))
        assert np.log2(val) == pytest.approx(0.228443, abs=5e-6)

    def test_noisy_H(self):
        rho = BlochState.named("H").scaled(0.75)
        val, wit = mono.lambda_plus_1q(rho)
        assert val == pytest.approx((1 + 0.75) / (1 + 1 / SQRT2), abs=1e-9)
        assert val == pytest.approx(1.02513, abs=5e-6)
        assert wit.q == pytest.approx(1.0, abs=1e-9)

    def test_F_state_value(self):
        val, wit = mono.lambda_plus_1q(BlochState.named("F"))
        assert abs(val - (3 - SQRT3)) <= 1e-9
        assert wit.q == pytest.approx(mono.Q_MIN, abs=1e-9)

    def test_T_equals_H(self):
        vT, _ = mono.lambda_plus_1q(BlochState.named("T"))
        vH, _ = mono.lambda_plus_1q(BlochState.named("H"))
        assert vT == pytest.approx(vH, abs=1e-12)

    def test_clifford_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_bloch(rng)
            base, _ = mono.lambda_plus_1q(rho)
            gates = rng.choice(["H", "S", "SDG", "X", "Y", "Z"], size=4)
            rot = rho.rotated(list(gates))
            val, _ = mono.lambda_plus_1q(rot)
            assert val == pytest.approx(base, abs=1e-11)

    def test_witness_feasible_on_stabilizer_states(self):
        # every witness must give value <= 1 on all six octahedron vertices
        rng = np.random.default_rng(9)
        vertices = [
            BlochState(*v)
            for v in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        ]
        for _ in range(40):
            rho = random_bloch(rng)
            _, wit = mono.lambda_plus_1q(rho)
            for vtx in vertices:
                assert mono._witness_eval(wit.q, vtx) <= 1.0 + 1e-12

    def test_tight_stabilizer_states(self):
        # |0> and |+> saturate every witness; |+i> only at the boundary q
        for q in (mono.Q_MIN, 0.85, 1.0):
            assert mono._witness_eval(q, BlochState(0, 0, 1)) == pytest.approx(1.0, abs=1e-12)
            assert mono._witness_eval(q, BlochState(1, 0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert mono._witness_eval(mono.Q_MIN, BlochState(0, 1, 0)) == pytest.approx(1.0, abs=1e-12)
        assert mono._witness_eval(1.0, BlochState(0, 1, 0)) < 1.0

    def test_product_monotone(self):
        H = BlochState.named("H")
        single, _ = mono.lambda_plus_1q(H)
        assert mono.product_monotone([H, H, H]) == pytest.approx(single**3, rel=1e-12)

    @pytest.mark.parametrize("case", ["random", "H", "T", "F"])
    def test_closed_form_matches_dense_grid(self, case):
        # the closed form is the maximum of _witness_eval over a fine grid
        # uniform in t = arccos q, up to the grid's own discretization error
        if case == "random":
            rng = np.random.default_rng(31)
            states = [mono.canonicalize_PY(random_bloch(rng, pure=i % 2 == 0))[1] for i in range(12)]
        else:
            states = [mono.canonicalize_PY(BlochState.named(case))[1]]
        grid = np.cos(np.linspace(0.0, np.arccos(mono.Q_MIN), 100_000))
        for rho in states:
            _, val = mono._maximize_witness(rho)
            best = max(mono._witness_eval(q, rho) for q in grid)
            assert best - 1e-15 <= val <= best + 1e-9


class TestExtent:
    def test_zero_state_single_term(self):
        xi, terms = dc.extent_pure_1q(BlochState(0.0, 0.0, 1.0))
        assert xi == 1.0
        assert len(terms) == 1
        assert terms[0][1].amplitude_of((0,)) == pytest.approx(1.0)

    def test_H_two_terms(self):
        xi, terms = dc.extent_pure_1q(BlochState.named("H"))
        assert xi == pytest.approx(4 - 2 * SQRT2, abs=1e-9)
        assert len(terms) == 2
        self._check_reconstruction(BlochState.named("H"), xi, terms)

    def test_F_three_terms(self):
        xi, terms = dc.extent_pure_1q(BlochState.named("F"))
        assert xi == pytest.approx(3 - SQRT3, abs=1e-9)
        assert len(terms) == 3
        self._check_reconstruction(BlochState.named("F"), xi, terms)

    def test_random_pure_states(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            psi = random_bloch(rng, pure=True)
            xi, terms = dc.extent_pure_1q(psi)
            assert xi >= 1.0 - 1e-12
            self._check_reconstruction(psi, xi, terms)

    def test_boundary_band(self):
        # states straddling the face boundary of the canonical region
        for eps in (-1e-6, 0.0, 1e-6):
            f = BlochState.named("F")
            v = np.array(f.as_tuple()) + np.array([eps, 0.0, -eps])
            v = v / np.linalg.norm(v)
            psi = BlochState(*v)
            xi, terms = dc.extent_pure_1q(psi)
            self._check_reconstruction(psi, xi, terms)

    # a pure face state on which an iterative l1 minimizer misses the 1e-8
    # extent certificate (by 1.9e-8)
    FACE_FACTOR = (0.8447514230648699, 0.09941294937138408, 0.5258441772304414)

    def test_face_factor_certificate(self):
        psi = BlochState(*self.FACE_FACTOR)
        xi, terms = dc.extent_pure_1q(psi)
        assert len(terms) == 3
        self._check_reconstruction(psi, xi, terms)

    def test_random_face_states_certificate(self):
        # pure states whose witness maximum sits on the boundary face q = sqrt(2/3)
        rng = np.random.default_rng(2024)
        errors = []
        while len(errors) < 2000:
            psi = random_bloch(rng, pure=True)
            _, wit = mono.lambda_plus_1q(psi)
            if wit.q > mono.Q_MIN + 1e-9:
                continue
            xi, terms = dc.extent_pure_1q(psi)
            errors.append(abs(sum(abs(c) for c, _ in terms) ** 2 - xi))
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("anchors", [
        (0, 1, np.exp(1j * np.pi / 3)),  # equilateral: interior point
        (0, 1, 0.5 + 0.2j),  # 136-degree vertex
        (0.3 + 0.1j, 0.3 + 0.1j, -1j),  # repeated anchor
        (-1, 0.25, 2),  # collinear
        (0.2 - 0.7j, 1.1 + 0.4j, -0.8 + 0.3j),
    ])
    def test_fermat_point_beats_grid(self, anchors):
        null_dir = np.array([-(1.0 - 1j) / SQRT2, -1j, 1.0 + 0j])
        z = np.array(anchors, dtype=complex)
        l1 = np.sum(np.abs(dc._fermat_l1(-z * null_dir, null_dir)))
        axis = np.linspace(-2.5, 2.5, 501)
        grid = (axis[:, None] + 1j * axis[None, :]).reshape(-1)
        best = np.sum(np.abs(grid[:, None] - z[None, :]), axis=1).min()
        assert l1 <= best + 1e-12

    @pytest.mark.parametrize("name,count", [
        ("0", 1), ("1", 1), ("+", 1), ("-", 1), ("+i", 1), ("-i", 1),
        ("H", 2), ("T", 2), ("F", 3),
    ])
    def test_named_state_term_count(self, name, count):
        psi = BlochState.named(name)
        _, wit = mono.lambda_plus_1q(psi)
        _, terms = dc.extent_pure_1q(psi)
        assert len(terms) == count
        if count > 1:
            assert (wit.q > mono.Q_MIN + 1e-9) == (count == 2)

    @staticmethod
    def _check_reconstruction(psi, xi, terms):
        vec = sum(c * do.expand(t) for c, t in terms)
        target = psi.pure_vector()
        # compare as projectors: global phase of pure_vector is a convention
        assert np.outer(vec, vec.conj()) == pytest.approx(
            np.outer(target, target.conj()), abs=1e-7
        )
        l1 = sum(abs(c) for c, _ in terms)
        assert l1**2 == pytest.approx(xi, abs=1e-7)


class TestEquimagical:
    def test_special_states_share_extent(self):
        for f in (0.65, 0.8, 0.95):
            sx, sy, sz = dc.special_states(f)
            vals = [mono.lambda_plus_1q(s)[0] for s in (sx, sy, sz)]
            assert vals[0] == pytest.approx(vals[1], abs=1e-10)
            assert vals[0] == pytest.approx(vals[2], abs=1e-10)
            assert sx.f == pytest.approx(f, abs=1e-12)

    def test_triangle_center(self):
        # center of the special triangle at level f mixes all three equally
        f = 0.8
        sx, sy, sz = dc.special_states(f)
        center = BlochState(
            (sx.bx + sy.bx + sz.bx) / 3,
            (sx.by + sy.by + sz.by) / 3,
            (sx.bz + sy.bz + sz.bz) / 3,
        )
        eq = dc.equimagical_decompose(center)
        assert len(eq.parts) == 3
        for w, _ in eq.parts:
            assert w == pytest.approx(1 / 3, abs=1e-9)
        assert eq.common_extent == pytest.approx((1 + f) / (1 + 1 / SQRT3), abs=1e-9)

    def test_pure_state_single_part(self):
        psi = BlochState.named("F")
        eq = dc.equimagical_decompose(psi)
        assert len(eq.parts) == 1
        assert eq.common_extent == pytest.approx(3 - SQRT3, abs=1e-9)

    def test_noisy_H_two_parts(self):
        word, canon = mono.canonicalize_PY(BlochState.named("H").scaled(0.9))
        eq = dc.equimagical_decompose(canon)
        assert len(eq.parts) == 2
        lam, _ = mono.lambda_plus_1q(canon)
        assert eq.common_extent == pytest.approx(lam, abs=1e-9)
        self._check_mixture(canon, eq)

    def test_random_canonical_states(self):
        rng = np.random.default_rng(33)
        done = 0
        while done < 40:
            rho = random_bloch(rng)
            if rho.in_octahedron() or rho.is_pure():
                continue
            _, canon = mono.canonicalize_PY(rho)
            eq = dc.equimagical_decompose(canon)
            for _, part in eq.parts:
                assert part.is_pure(1e-7)
                val, _ = mono.lambda_plus_1q(part)
                assert val == pytest.approx(eq.common_extent, abs=1e-8)
            self._check_mixture(canon, eq)
            done += 1

    def test_rejects_polytope_state(self):
        with pytest.raises(ValueError):
            dc.equimagical_decompose(BlochState(0.3, 0.1, 0.2))

    @staticmethod
    def _check_mixture(rho, eq):
        total = np.zeros(3)
        wsum = 0.0
        for w, part in eq.parts:
            total += w * np.array(part.as_tuple())
            wsum += w
        assert wsum == pytest.approx(1.0, abs=1e-9)
        assert total == pytest.approx(np.array(rho.as_tuple()), abs=1e-8)


class TestDecompose1Q:
    def test_polytope_decomposition(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            v = rng.normal(size=3)
            v = v / np.sum(np.abs(v)) * rng.uniform(0, 1)
            rho = BlochState(*v)
            lam, parts = dc.decompose_1q_state(rho)
            assert lam == 1.0
            self._check_density(rho, parts)

    def test_pure_magic(self):
        lam, parts = dc.decompose_1q_state(BlochState.named("H"))
        assert lam == pytest.approx(4 - 2 * SQRT2, abs=1e-9)
        assert len(parts) == 1
        self._check_density(BlochState.named("H"), parts)

    def test_mixed_magic_back_in_original_frame(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 15:
            rho = random_bloch(rng)
            if rho.in_octahedron() or rho.is_pure():
                continue
            lam, parts = dc.decompose_1q_state(rho)
            assert lam > 1.0
            for _, xi, _ in parts:
                assert xi == pytest.approx(lam, abs=1e-8)
            self._check_density(rho, parts)
            done += 1

    @staticmethod
    def _check_density(rho, parts):
        mat = np.zeros((2, 2), dtype=complex)
        for w, _, terms in parts:
            vec = sum(c * do.expand(t) for c, t in terms)
            mat += w * np.outer(vec, vec.conj())
        assert mat == pytest.approx(mono.density_matrix(rho), abs=1e-7)


def monotone_ladder_check(rho: BlochState) -> dict:
    """Slack report for the single-qubit monotone inequalities."""
    lam, _ = mono.lambda_plus_1q(rho)
    R = mono.robustness_1q(rho)
    D = mono.stab_norm_1q(rho)
    return {
        "lambda_plus": lam,
        "robustness": R,
        "stab_norm": D,
        "slack_general": R - (2.0 * lam - 1.0),
        "slack_1q": R - ((1.0 + SQRT2) * lam - SQRT2),
        "slack_2d": R - (2.0 * D - 1.0),
    }


class TestLadder:
    def test_H_saturates_1q_bound(self):
        rep = monotone_ladder_check(BlochState.named("H"))
        assert rep["robustness"] == pytest.approx(SQRT2, abs=1e-9)
        assert rep["slack_1q"] == pytest.approx(0.0, abs=1e-9)

    def test_random_states_nonnegative_slack(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            rho = random_bloch(rng)
            rep = monotone_ladder_check(rho)
            assert rep["slack_general"] >= -1e-9
            assert rep["slack_1q"] >= -1e-9
            assert rep["slack_2d"] >= -1e-9


# r_lp of the `monotone` table at copies 1-3, computed with the enumeration
# that applied one gate to one vector at a time; the batched enumeration may
# move them by rounding only.
R_LP_PINS = {
    ("H", 0.9): (1.2727922061357857, 1.479458872802453, 1.757525230107817),
    ("T", 0.85): (1.2020815280171309, 1.3504148613504645, 1.5454995680125092),
    ("F", 0.95): (1.6454482671904338, 2.072323267190434, 2.780158558813201),
}


def enumerate_one_at_a_time(n):
    """Breadth-first closure applying one gate to one vector at a time."""
    gates = [("H", q) for q in range(n)] + [("S", q) for q in range(n)]
    gates += [("CX", a, b) for a in range(n) for b in range(n) if a != b]
    start = np.eye(2**n, dtype=complex)[0]
    seen = {}
    frontier = [start]
    for vec in frontier:  # grows while it is walked: level after level
        key = (np.round(np.outer(vec, vec.conj()), 9) + 0.0).tobytes()
        if key in seen:
            continue
        seen[key] = vec
        frontier.extend(do.apply_gate_dense(vec, n, g) for g in gates)
    return list(seen.values())


def pauli_traces(op):
    """Tr[P_a op] from the oracle's Pauli matrices, qubit 0's letter outermost."""
    n = int(np.log2(len(op)))
    return np.array([np.trace(do.pauli_matrix(sc.PauliOp.from_letters("".join(word))) @ op)
                     for word in itertools.product("IXYZ", repeat=n)])


@lru_cache(maxsize=None)
def unreduced_columns(n):
    """Pauli coordinates of every enumerated stabilizer state, one state at a time
    (cached: callers read it and never write to it)."""
    states = do.enumerate_stabilizer_states(n)
    return np.stack([mono.pauli_coords(np.outer(v, v.conj())) for v in states], axis=1)


class TestRobustnessLP:
    def test_enumeration_counts(self):
        assert len(do.enumerate_stabilizer_states(1)) == 6
        assert len(do.enumerate_stabilizer_states(2)) == 60

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_enumeration_order_matches_one_at_a_time(self, n):
        got = do.enumerate_stabilizer_states(n)
        want = enumerate_one_at_a_time(n)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # same state in the same place, up to the phase fixed by the enumeration
            assert abs(np.vdot(w, g)) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_n3_distinct_stabilizer_states(self):
        n = 3
        states = np.array(do.enumerate_stabilizer_states(n))
        assert len(states) == 1080
        # distinct projectors: distinct stabilizer states overlap by at most 1/2
        overlaps = np.abs(states.conj() @ states.T) ** 2
        np.fill_diagonal(overlaps, 0.0)
        assert overlaps.max() <= 0.5 + 1e-9
        for v in states:
            coords = np.asarray(mono.pauli_coords(np.outer(v, v.conj())))
            signs = np.abs(np.abs(coords) - 1.0) <= 1e-9
            assert signs.sum() == 2**n
            assert np.abs(coords[~signs]).max() <= 1e-9

    @pytest.mark.parametrize("name,alpha", sorted(R_LP_PINS))
    def test_r_lp_pinned(self, name, alpha):
        base = BlochState.named(name).scaled(alpha).density()
        rho = base
        for want in R_LP_PINS[(name, alpha)]:
            assert mono.robustness_lp(rho)[0] == pytest.approx(want, rel=1e-10)
            rho = np.kron(rho, base)

    def test_single_qubit_matches_l1(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 50:
            rho = random_bloch(rng)
            if rho.l1 <= 1.0:
                continue
            R, q, cert = mono.robustness_lp(mono.density_matrix(rho))
            assert abs(R - rho.l1) <= 1e-7
            assert cert["duality_gap"] <= 1e-7
            assert cert["feasibility_defect"] <= 1e-7
            done += 1

    def test_stabilizer_mixture_is_one(self):
        rng = np.random.default_rng(63)
        states = do.enumerate_stabilizer_states(2)
        w = rng.dirichlet(np.ones(8))
        idx = rng.choice(len(states), size=8, replace=False)
        rho = sum(wi * np.outer(states[i], states[i].conj()) for wi, i in zip(w, idx))
        R, _, cert = mono.robustness_lp(rho)
        assert R == pytest.approx(1.0, abs=1e-7)
        assert cert["duality_gap"] <= 1e-7

    def test_H_pair(self):
        h = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        rho1 = np.outer(h, h)
        R1, _, _ = mono.robustness_lp(rho1.astype(complex))
        assert R1 == pytest.approx(SQRT2, abs=1e-7)
        rho2 = np.kron(rho1, rho1).astype(complex)
        R2, q, cert = mono.robustness_lp(rho2)
        assert 1.4571 <= R2 <= 2.0
        assert cert["duality_gap"] <= 1e-7
        # reconstruction check in Pauli coordinates
        cols = unreduced_columns(2)
        assert cols @ q == pytest.approx(mono.pauli_coords(rho2), abs=1e-7)
        assert np.sum(np.abs(q)) == pytest.approx(R2, abs=1e-7)


def coords_matrix(n):
    """mono._stabilizer_coords(n) as a dense 4^n x N array, one column per state."""
    states = mono._stabilizer_coords(n)
    out = np.zeros((4**n, len(states)))
    for j, codes in enumerate(states):
        for code in codes:
            out[code >> 1, j] = -1.0 if code & 1 else 1.0
    return out


def named_copies(name, alpha, n):
    return reduce(np.kron, [BlochState.named(name).scaled(alpha).density()] * n)


def symmetry_cases():
    """(rho, shape of the LP reaching the simplex): copies, a pair with a third,
    three factors, and three copies of the benchmark's named states.

    A random state is fixed by no single-qubit Clifford but the identity, so
    its group is the qubit permutations that fix rho: the reduced matrix
    depends only on that group, and both random three-copy cases share 20
    rows and 234 columns, each with its negation.  H and T copies are also
    fixed by the Clifford that swaps two Bloch axes and flips the third, and
    F copies by the two cyclic axis permutations.
    """
    rng = np.random.default_rng(91)
    r, s, t = (random_bloch(rng, radius=0.9).density() for _ in range(3))
    return [
        pytest.param(named_copies("H", 0.9, 3), (10, 228), id="H^3"),
        pytest.param(named_copies("T", 0.85, 3), (10, 228), id="T^3"),
        pytest.param(named_copies("F", 0.95, 3), (8, 152), id="F^3"),
        pytest.param(np.kron(r, r), (10, 70), id="rho^2"),
        pytest.param(np.kron(np.kron(r, r), r), (20, 468), id="rho^3"),
        pytest.param(np.kron(np.kron(s, s), s), (20, 468), id="sigma^3"),
        pytest.param(np.kron(np.kron(r, r), s), (40, 1176), id="rho.rho.sigma"),
        pytest.param(np.kron(np.kron(r, s), t), (64, 2160), id="rho.sigma.tau"),
    ]


class TestRobustnessReduction:
    @pytest.mark.parametrize("rho,shape", symmetry_cases())
    def test_reduced_matches_unreduced(self, rho, shape):
        # the reference is HiGHS on the unreduced LP: the pure-Python solver
        # takes seconds on 64 x 2160, and test_simplex already checks it there
        optimize = pytest.importorskip("scipy.optimize")
        n = int(np.log2(rho.shape[0]))
        cols = np.rint(unreduced_columns(n))
        b = mono.pauli_coords(rho)
        ref = optimize.linprog(np.ones(2 * cols.shape[1]), A_eq=np.hstack([cols, -cols]), b_eq=b,
                               bounds=(0, None), method="highs")
        assert ref.status == 0
        want = ref.fun
        R, q, cert = mono.robustness_lp(rho)
        q, witness = np.asarray(q), np.asarray(cert["witness_coords"])
        assert R == pytest.approx(want, rel=1e-9, abs=1e-9)
        # the lifted weights reproduce rho on every coordinate from all the states
        assert q.shape == (cols.shape[1],)
        assert cols @ q == pytest.approx(b, abs=1e-7)
        assert np.sum(np.abs(q)) == pytest.approx(R, abs=1e-7)
        assert witness.shape == (4**n,)
        assert abs(cert["duality_gap"]) <= 1e-7
        assert cert["feasibility_defect"] <= 1e-7

    @pytest.mark.parametrize("rho,shape", symmetry_cases())
    def test_lp_reaching_the_simplex(self, monkeypatch, rho, shape):
        seen = []
        solve = _simplex.solve_lp
        monkeypatch.setattr(_simplex, "solve_lp", lambda A, b, c: seen.append(A) or solve(A, b, c))
        mono.robustness_lp(rho)
        (A,) = seen
        A = np.asarray(A)
        assert A.shape == shape
        n = int(np.log2(rho.shape[0]))
        if shape[0] == 4**n:
            # the trivial group solves the unreduced LP, columns in enumeration order
            cols = np.rint(unreduced_columns(n))
            assert np.array_equal(A, np.hstack([cols, -cols]))

    @pytest.mark.parametrize("name,alpha,orders", [("H", 0.9, (2, 4, 12)), ("T", 0.85, (2, 4, 12)),
                                                   ("F", 0.95, (3, 6, 18))])
    def test_symmetry_group_orders(self, name, alpha, orders):
        # the Bloch-axis symmetries of the state times the qubit permutations
        for n, order in zip((1, 2, 3), orders):
            b = mono.pauli_coords(named_copies(name, alpha, n))
            assert len(mono._clifford_symmetries(b, n)) == order

    @pytest.mark.parametrize("name,alpha", [("H", 0.9), ("F", 0.95)])
    def test_symmetries_fix_rho_and_permute_the_stabilizer_states(self, name, alpha):
        n = 3
        b = np.asarray(mono.pauli_coords(named_copies(name, alpha, n)))
        cols = coords_matrix(n)
        states = {c.tobytes() for c in cols.T}
        for image, sign in mono._clifford_symmetries(list(b), n):
            image, sign = list(image), np.asarray(sign)
            assert np.abs(b[image] - sign * b).max() <= 1e-12
            moved = np.zeros_like(cols)
            moved[image] = sign[:, None] * cols + 0.0  # no -0.0 in the keys
            assert {c.tobytes() for c in moved.T} == states

    def test_batched_columns_match_one_state_at_a_time(self):
        for n in (1, 2, 3):
            for codes in mono._stabilizer_coords(n):
                # 2^n integer codes on 2^n distinct Paulis: none overwrites another below
                assert all(isinstance(c, int) for c in codes)
                assert len({c >> 1 for c in codes}) == len(codes) == 2**n
            got = coords_matrix(n)
            assert np.array_equal(got, np.rint(unreduced_columns(n)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symbolic_columns_are_the_oracle_traces_in_order(self, n):
        want = np.stack([pauli_traces(np.outer(v, v.conj()))
                         for v in do.enumerate_stabilizer_states(n)], axis=1)
        assert np.abs(want.imag).max() <= 1e-12
        assert np.abs(want.real - np.rint(want.real)).max() <= 1e-12
        assert np.array_equal(coords_matrix(n), np.rint(want.real))

    # (image, sign) per letter word, as read off stab_core's conjugation rules
    # before the Pauli algebra had a module of its own
    LETTER_ACTIONS = {
        ("H", 1): ([0, 3, 2, 1], [1, 1, -1, 1]),
        ("S", 1): ([0, 2, 1, 3], [1, -1, 1, 1]),
        ("CX", 2): ([0, 1, 14, 15, 5, 4, 11, 10, 9, 8, 7, 6, 12, 13, 2, 3],
                    [1, 1, 1, 1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1]),
    }

    @pytest.mark.parametrize("name,width", sorted(LETTER_ACTIONS))
    def test_letter_action_tables(self, name, width):
        image, sign = (np.asarray(x) for x in mono._pauli_action((name, *range(width)), width))
        assert (image.tolist(), sign.tolist()) == self.LETTER_ACTIONS[name, width]
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=width)]
        U = do.GATE_MATRICES[name]
        for w, (i, s) in enumerate(zip(image, sign)):
            got = U.conj().T @ do.pauli_matrix(sc.PauliOp.from_letters(words[w])) @ U
            assert np.allclose(got, s * do.pauli_matrix(sc.PauliOp.from_letters(words[i])), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_coords_match_pauli_matrix_traces(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            op = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            assert np.abs(mono.pauli_coords(op) - pauli_traces(op).real).max() <= 1e-12
