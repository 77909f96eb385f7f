import math

import numpy as np
import pytest

import magicsim.channels as ch
import magicsim.constrained_sim as cs
import magicsim.dense_oracle as do
import magicsim.monotones as mono
import magicsim.stab_core as sc
from magicsim._util import CHUNK
from magicsim.constrained_sim import ConstrainedSimError

XI_H = 4.0 - 2.0 * math.sqrt(2.0)


def random_bloch(rng, pure=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    r = 1.0 if pure else rng.uniform(0.3, 1.0)
    return mono.BlochState(*(r * v))


def dominates(pair: cs.RobustnessPair, rho: np.ndarray, tol: float = 1e-8) -> bool:
    """Dense check of the operator inequality rho <= lam * sigma."""
    gap = pair.lam * pair.sigma.dense() - np.asarray(rho, dtype=complex)
    return float(np.linalg.eigvalsh(gap)[0]) >= -tol


def product_density(blochs):
    rho = blochs[0].density()
    for b in blochs[1:]:
        rho = np.kron(rho, b.density())
    return rho


class TestRobustnessPair:
    def test_stabilizer_input_is_exact(self):
        pair = cs.optimal_pair([mono.BlochState.named("0")])
        assert pair.lam == 1.0
        assert pair.sigma.dense() == pytest.approx(
            mono.BlochState.named("0").density(), abs=1e-12
        )

    def test_h_pair(self):
        h = mono.BlochState.named("H")
        pair = cs.optimal_pair([h])
        assert pair.lam == pytest.approx(XI_H, abs=1e-9)
        assert dominates(pair, h.density(), tol=1e-9)
        # sigma sits on the octahedron boundary
        sig = pair.sigma.dense()
        bloch = np.array(
            [np.trace(sig @ do.pauli_matrix(sc.PauliOp.from_letters(a))).real
             for a in "XYZ"]
        )
        assert np.abs(bloch).sum() == pytest.approx(1.0, abs=1e-9)

    def test_face_state_pair_is_tight(self):
        f = mono.BlochState.named("F")
        pair = cs.optimal_pair([f])
        assert pair.lam == pytest.approx(3.0 - math.sqrt(3.0), abs=1e-7)
        gap = pair.lam * pair.sigma.dense() - f.density()
        low = np.linalg.eigvalsh(gap)[0]
        assert -1e-9 <= low <= 1e-6

    def test_product_pair(self):
        rng = np.random.default_rng(5)
        blochs = [random_bloch(rng, pure=True), random_bloch(rng),
                  mono.BlochState(0.2, -0.3, 0.4)]
        pair = cs.optimal_pair(blochs)
        expect = 1.0
        for b in blochs:
            expect *= max(1.0, mono.lambda_plus_1q(b)[0])
        assert pair.lam == pytest.approx(expect, rel=1e-12)
        assert dominates(pair, product_density(blochs))
        weights = [a.real for a, _ in pair.sigma.terms]
        assert min(weights) >= 0.0
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert pair.sigma.l1 == pytest.approx(1.0, abs=1e-9)

    def test_random_pairs_dominate(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            blochs = [random_bloch(rng, pure=bool(rng.integers(2)))
                      for _ in range(rng.integers(1, 3))]
            pair = cs.optimal_pair(blochs)
            assert dominates(pair, product_density(blochs))

    def test_lam_below_one_rejected(self):
        sigma = ch.DyadicDecomposition(
            [(1.0, ch.Dyad(sc.zero_state(1), sc.zero_state(1)))]
        )
        with pytest.raises(ConstrainedSimError):
            cs.RobustnessPair(0.8, sigma)

    def test_bad_sigma_weights_rejected(self):
        plus = sc.plus_state(1)
        zero = sc.zero_state(1)
        lopsided = ch.DyadicDecomposition(
            [(1.5, ch.Dyad(zero, zero)), (-0.5, ch.Dyad(plus, plus))],
            validate=False,
        )
        with pytest.raises(ConstrainedSimError):
            cs.RobustnessPair(1.2, lopsided)


class TestIntervalArithmetic:
    def test_lambda_one_gives_constant_error(self):
        r = cs.interval_from_estimate(1.0, 0.1, 0.05)
        assert r.case == "constant_error"
        assert r.Delta == pytest.approx(0.05, abs=1e-12)
        assert r.E_hat == pytest.approx(0.1, abs=1e-12)

    def test_failure_regime(self):
        r = cs.interval_from_estimate(2.5, 0.0, 0.05)
        assert r.case == "failure"
        assert r.E_hat == 0.0
        assert r.Delta == 1.0
        assert (r.E_min, r.E_max) == (-1.0, 1.0)

    def test_constant_error_formula_exact(self):
        for lam in (1.0, 1.17, 1.5, 1.9):
            c = 0.04
            r = cs.interval_from_estimate(lam, 0.0, c)
            assert r.case == "constant_error"
            assert r.Delta == pytest.approx(lam * (1.0 + c) - 1.0, abs=1e-12)
            assert r.E_hat == pytest.approx(r.E_sigma, abs=1e-12)

    def test_shrunk_regime(self):
        c = 0.05
        lam = 1.5
        r = cs.interval_from_estimate(lam, 0.9, c)
        assert r.case == "shrunk_error"
        assert r.E_max == 1.0
        assert r.E_min == pytest.approx(lam * 0.9 - c * lam - lam + 1.0, abs=1e-12)
        assert r.Delta == pytest.approx((lam * (1 + c) - abs(r.E_sigma)) / 2, abs=1e-12)

    def test_shrunk_even_for_large_lam(self):
        # a near-extremal estimate stays informative whatever lam is
        lam = 5.0
        c = 0.05
        r = cs.interval_from_estimate(lam, 1.0, c)
        assert r.case == "shrunk_error"
        assert r.E_max == 1.0
        assert r.Delta == pytest.approx(c * lam / 2, abs=1e-12)

    def test_projector_prior(self):
        r = cs.interval_from_estimate(1.3, 0.9, 0.05, projector=True)
        assert r.E_max == 1.0
        assert r.E_min == pytest.approx(1.3 * 0.9 - 0.065 - 0.3, abs=1e-12)
        assert r.case == "shrunk_error"
        r2 = cs.interval_from_estimate(2.5, 0.2, 0.05, projector=True)
        assert r2.E_min == 0.0
        assert r2.E_max == pytest.approx(0.625, abs=1e-12)
        r3 = cs.interval_from_estimate(2.5, 0.35, 0.05, projector=True)
        assert r3.case == "failure"
        assert r3.E_hat == 0.5
        assert r3.Delta == 0.5

    def test_interval_respects_report_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lam = float(rng.uniform(1.0, 4.0))
            mu = float(rng.uniform(-1.1, 1.1))
            projector = bool(rng.integers(2))
            r = cs.interval_from_estimate(lam, mu, 0.06, projector=projector)
            assert r.E_min <= r.E_hat <= r.E_max
            assert r.Delta == pytest.approx((r.E_max - r.E_min) / 2, abs=1e-12)
            assert abs(r.E_hat) <= 1.0
            assert r.case in cs.CASES

    def test_validation(self):
        with pytest.raises(ConstrainedSimError):
            cs.interval_from_estimate(0.9, 0.0, 0.05)
        with pytest.raises(ConstrainedSimError):
            cs.interval_from_estimate(1.5, 0.0, 0.0)
        with pytest.raises(ConstrainedSimError):
            cs.interval_from_estimate(1.5, 0.0, 1.0)


class TestConstrainedEstimate:
    def test_stabilizer_target_constant_error(self):
        pair = cs.optimal_pair([mono.BlochState.named("0")])
        E = sc.PauliOp.from_letters("X")
        r = cs.constrained_estimate(pair, [], E, c=0.1, p_fail=0.05, seed=7)
        assert r.case == "constant_error"
        assert r.Delta == pytest.approx(0.1, abs=1e-12)
        assert abs(r.E_hat) <= 0.1
        assert r.samples == math.ceil(2 * 0.1**-2 * math.log(2 / 0.05))

    def test_h_coverage(self):
        pair = cs.optimal_pair([mono.BlochState.named("H")])
        E = sc.PauliOp.from_letters("X")
        truth = 1.0 / math.sqrt(2.0)
        runs = 200
        hits = 0
        for t in range(runs):
            r = cs.constrained_estimate(pair, [], E, c=0.05, p_fail=0.05, seed=9000 + t)
            if r.E_min - 1e-12 <= truth <= r.E_max + 1e-12:
                hits += 1
        floor = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / runs)
        assert hits / runs >= floor

    def test_sample_count_ignores_lam(self):
        zero = sc.zero_state(1)
        sigma = ch.DyadicDecomposition([(1.0, ch.Dyad(zero, zero))])
        E = sc.PauliOp.from_letters("Z")
        counts = set()
        for lam in (1.0, 1.17, 2.0, 5.0):
            pair = cs.RobustnessPair(lam, sigma)
            r = cs.constrained_estimate(pair, [], E, c=0.3, p_fail=0.05, seed=1)
            counts.add(r.samples)
        assert counts == {math.ceil(2 * 0.3**-2 * math.log(2 / 0.05))}

    def test_projector_measurement(self):
        pair = cs.optimal_pair([mono.BlochState.named("H")])
        proj = sc.StabProjector.from_strings([("Z", 1)])
        r = cs.constrained_estimate(pair, [], proj, c=0.05, p_fail=0.05, seed=3)
        truth = math.cos(math.pi / 8) ** 2
        assert r.E_min - 1e-12 <= truth <= r.E_max + 1e-12
        assert r.E_max <= 1.0
        assert r.E_min >= 0.0

    def test_interval_validity_random_circuits(self):
        rng = np.random.default_rng(21)
        gate_pool = ("H", "S", "CX", "CZ", "X", "Z", "SWAP")
        misses = 0
        for t in range(15):
            blochs = [random_bloch(rng, pure=bool(rng.integers(2))) for _ in range(2)]
            pair = cs.optimal_pair(blochs)
            gates = []
            for _ in range(rng.integers(2, 9)):
                g = gate_pool[rng.integers(len(gate_pool))]
                if g in ("CX", "CZ", "SWAP"):
                    a, b = rng.permutation(2)[:2]
                    gates.append((g, int(a), int(b)))
                else:
                    gates.append((g, int(rng.integers(2))))
            circuit = [ch.SimulableChannel(2, [(1.0, gates)], [])]
            letters = [("I", "X", "Y", "Z")[rng.integers(4)] for _ in range(2)]
            if all(a == "I" for a in letters):
                letters[0] = "Z"
            E = sc.PauliOp.from_letters("".join(letters))
            U = do.circuit_unitary(2, gates)
            rho_out = U @ product_density(blochs) @ U.conj().T
            truth = float(np.trace(do.pauli_matrix(E) @ rho_out).real)
            r = cs.constrained_estimate(pair, circuit, E, c=0.1, p_fail=0.05,
                                        seed=500 + t)
            assert r.E_min <= r.E_hat <= r.E_max
            if not (r.E_min - 1e-9 <= truth <= r.E_max + 1e-9):
                misses += 1
        assert misses <= 2

    def test_reproducible_across_workers(self):
        # channels, three full chunks and a ragged fourth
        pair = cs.optimal_pair([mono.BlochState.named("H").scaled(0.8), mono.BlochState.named("F")])
        circuit = [
            ch.builtin_channel("clifford_mix", [0, 1], 2, {"terms": [[0.7, [["CX", 0, 1]]], [0.3, []]]}),
            ch.builtin_channel("depolarizing", [1], 2, {"lambda": 0.3}),
            ch.builtin_channel("pauli_measure_and_forward", [0], 2, {"pauli": "X"}),
        ]
        E = sc.PauliOp.from_letters("XZ")
        reps = [cs.constrained_estimate(pair, circuit, E, c=0.09, p_fail=0.05, seed=31, workers=w)
                for w in (1, 2)]
        assert reps[0].samples > 3 * CHUNK and reps[0].samples % CHUNK
        assert reps[0] == reps[1]

    def test_independent_blocks_at_48_qubits(self):
        # eight 6-qubit blocks, each a CX ladder and depolarizing noise under
        # Z^6: the sigma-side mean factors into dense 6-qubit block values
        block = [mono.BlochState.named("H").scaled(0.8)] * 6
        ladder = [["CX", i, i + 1] for i in range(5)]

        def channels(n, base):
            return [ch.builtin_channel("clifford_mix", list(range(base, base + 6)), n,
                                       {"terms": [[1.0, ladder]]}),
                    *(ch.builtin_channel("depolarizing", [base + q], n, {"lambda": 0.05})
                      for q in range(6))]

        rho = cs.optimal_pair(block).sigma.dense()
        for chan in channels(6, 0):
            rho = do.apply_channel_dense(rho, chan)
        Z6 = sc.PauliOp.from_letters("Z" * 6)
        mu_exact = float(np.trace(do.pauli_matrix(Z6) @ rho).real) ** 8
        pair = cs.optimal_pair(block * 8)
        assert len(pair.sigma.terms) == 2**48
        circuit = [chan for b in range(8) for chan in channels(48, 6 * b)]
        r = cs.constrained_estimate(pair, circuit, sc.PauliOp.from_letters("Z" * 48),
                                    c=0.05, p_fail=0.05, seed=61)
        radius = math.sqrt(2.0 * math.log(2.0 / 1e-9) / r.samples)
        assert abs(r.E_sigma / r.lam - mu_exact) <= radius

    def test_parameter_validation(self):
        pair = cs.optimal_pair([mono.BlochState.named("0")])
        E = sc.PauliOp.from_letters("Z")
        with pytest.raises(ConstrainedSimError):
            cs.constrained_estimate(pair, [], E, c=0.0)
        with pytest.raises(ConstrainedSimError):
            cs.constrained_estimate(pair, [], E, c=0.05, p_fail=1.5)
