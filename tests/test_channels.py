"""Channel layer: dyads, Kraus canonical form, builtins, product decompositions."""

import functools
import inspect
import itertools
import math
import operator
import types

import numpy as np
import pytest

import magicsim.channels as ch
import magicsim.decompositions as dc
import magicsim.dense_oracle as do
import magicsim.monotones as mono
import magicsim.stab_core as sc
from magicsim.channels import ChannelError

from conftest import random_gate, random_stab_state


def H_vec():
    return np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=complex)


class TestDyad:
    def test_width_mismatch(self):
        with pytest.raises(ChannelError):
            ch.Dyad(sc.zero_state(1), sc.zero_state(2))

    def test_null_rejected(self):
        null, _ = sc.project_pauli(sc.zero_state(1), sc.PauliOp.from_letters("Z"), -1)
        with pytest.raises(ChannelError):
            ch.Dyad(null, sc.zero_state(1))

    def test_dense(self):
        d = ch.Dyad(sc.plus_state(1), sc.zero_state(1))
        expect = np.outer([2**-0.5, 2**-0.5], [1, 0])
        assert do.dyad_matrix(d) == pytest.approx(expect)


class TestDyadicDecomposition:
    def test_single_zero_state(self):
        dec = ch.DyadicDecomposition([(1.0, ch.Dyad(sc.zero_state(1), sc.zero_state(1)))])
        assert dec.l1 == 1.0
        assert dec.dense() == pytest.approx(np.diag([1.0, 0.0]))

    def test_non_hermitian_rejected(self):
        bad = [(1.0, ch.Dyad(sc.zero_state(1), sc.plus_state(1)))]
        with pytest.raises(ChannelError):
            ch.DyadicDecomposition(bad)

    def test_trace_enforced(self):
        bad = [(2.0, ch.Dyad(sc.zero_state(1), sc.zero_state(1)))]
        with pytest.raises(ChannelError):
            ch.DyadicDecomposition(bad)

    def test_trace_enforced_above_dense_cap(self):
        z = sc.zero_state(7)
        with pytest.raises(ChannelError):
            ch.DyadicDecomposition([(2.0, ch.Dyad(z, z))])


def _random_dyads(rng, n, hermitian):
    """One to three random dyads a|L><R|, each with its adjoint when hermitian."""
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        L, R = random_stab_state(rng, n), random_stab_state(rng, n)
        a = complex(rng.normal(), rng.normal())
        terms.append((a, ch.Dyad(L, R)))
        if hermitian:
            terms.append((np.conj(a), ch.Dyad(R, L)))
    return terms


class TestHermiticity:
    def test_symbolic_check_matches_dense(self):
        # random dyad lists at n <= 6, scaled to unit trace: the overlap check
        # accepts exactly those whose dense matrix is Hermitian
        rng = np.random.default_rng(43)
        verdicts = []
        for trial in range(80):
            terms = _random_dyads(rng, int(rng.integers(1, 7)), hermitian=bool(trial % 2))
            rho = sum(a * do.dyad_matrix(d) for a, d in terms)
            trace = np.trace(rho)
            if abs(trace) < 0.1:
                continue
            terms = [(a / trace, d) for a, d in terms]
            rho = rho / trace
            try:
                ch.DyadicDecomposition(terms)
                accepted = True
            except ChannelError as exc:
                assert "Hermitian" in str(exc)
                accepted = False
            assert accepted == bool(np.abs(rho - rho.conj().T).max() <= 1e-8)
            verdicts.append(accepted)
        assert 20 <= sum(verdicts) <= len(verdicts) - 20

    def test_non_hermitian_refused_above_dense_cap(self):
        # |0..0><0..0| + 0.5 |10..0><0..0| has unit trace at n=7
        z = sc.zero_state(7)
        x = sc.apply_circuit(z, [("X", 0)])
        with pytest.raises(ChannelError, match="Hermitian"):
            ch.DyadicDecomposition([(1.0, ch.Dyad(z, z)), (0.5, ch.Dyad(x, z))])
        dec = ch.DyadicDecomposition([(1.0, ch.Dyad(z, z)), (0.5, ch.Dyad(x, z)), (0.5, ch.Dyad(z, x))])
        assert dec.l1 == 2.0


class TestStabKraus:
    def test_generator_count_must_match_h(self):
        proj = sc.StabProjector.from_strings([("ZI", 1)])
        with pytest.raises(ChannelError):
            ch.StabKraus(2, proj, ())

    def test_dense_form(self):
        proj = sc.StabProjector.from_strings([("Z", 1)])
        k = ch.StabKraus(1, proj, (("H", 0),))
        expect = np.sqrt(2) * do.GATE_MATRICES["H"] @ np.diag([1.0, 0.0])
        assert do.kraus_matrix(k) == pytest.approx(expect)

    def test_maps_stabilizers_to_stabilizer_multiples(self):
        # every builtin Kraus output has a rank-one stabilizer projector
        states = do.enumerate_stabilizer_states(2)
        chans = [
            ch.builtin_channel("t_gadget", [0, 1], 2),
            ch.builtin_channel("pauli_measure_and_forward", [0, 1], 2, {"pauli": "XZ"}),
        ]
        pool = {(np.round(np.outer(v, v.conj()), 8) + 0.0).tobytes() for v in states}
        for chan in chans:
            for _, k in chan.kraus_part:
                K = do.kraus_matrix(k)
                for v in states[:20]:
                    out = K @ v
                    norm = np.linalg.norm(out)
                    if norm < 1e-12:
                        continue
                    out = out / norm
                    key = (np.round(np.outer(out, out.conj()), 8) + 0.0).tobytes()
                    assert key in pool


class TestBuiltins:
    def test_depolarizing_zero_is_identity(self):
        chan = ch.builtin_channel("depolarizing", [0], 1, {"lambda": 0.0})
        assert len(chan.unitary_part) == 1
        assert chan.unitary_part[0][0] == pytest.approx(1.0)
        assert chan.P_U == pytest.approx(1.0)

    def test_depolarizing_full_noise(self):
        chan = ch.builtin_channel("depolarizing", [0], 1, {"lambda": 1.0})
        rho = np.outer(H_vec(), H_vec().conj())
        out = do.apply_channel_dense(rho, chan)
        assert out == pytest.approx(np.eye(2) / 2)

    def test_depolarizing_term_count(self):
        chan = ch.builtin_channel("depolarizing", [0], 2, {"lambda": 0.3})
        assert len(chan.unitary_part) == 4

    def test_t_gadget_two_terms(self):
        chan = ch.builtin_channel("t_gadget", [0, 1], 2)
        assert len(chan.kraus_part) == 2
        assert chan.P_U == 0.0

    def test_t_gadget_injects_magic(self):
        # data |+> with a magic ancilla: the output data qubit must be a
        # Clifford rotation of the T|+> state (Bloch vector on the same orbit)
        chan = ch.builtin_channel("t_gadget", [0, 1], 2)
        plus = np.array([1, 1]) / np.sqrt(2)
        rho_in = np.kron(np.outer(plus, plus), np.outer(H_vec(), H_vec().conj()))
        out = do.apply_channel_dense(rho_in, chan)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-10)
        for _, k in chan.kraus_part:
            K = do.kraus_matrix(k)
            vec = K @ np.kron(plus, H_vec())
            vec = vec / np.linalg.norm(vec)
            full = vec.reshape(2, 2)
            # ancilla must come out in a computational state: data factorizes
            u, s, vh = np.linalg.svd(full)
            assert s[1] == pytest.approx(0.0, abs=1e-10)
            data = u[:, 0]
            bloch = np.array(
                [
                    2 * np.real(np.conj(data[0]) * data[1]),
                    2 * np.imag(np.conj(data[0]) * data[1]),
                    abs(data[0]) ** 2 - abs(data[1]) ** 2,
                ]
            )
            assert sorted(np.round(np.abs(bloch), 9)) == pytest.approx(
                [0.0, 2**-0.5, 2**-0.5], abs=1e-9
            )

    def test_measure_and_forward_on_plus(self):
        chan = ch.builtin_channel("pauli_measure_and_forward", [0], 1, {"pauli": "Z"})
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = do.apply_channel_dense(rho, chan)
        assert out == pytest.approx(np.eye(2) / 2)

    def test_clifford_mix_local_indices(self):
        chan = ch.builtin_channel(
            "clifford_mix",
            [2, 0],
            3,
            {"terms": [[0.5, []], [0.5, [["CX", 0, 1]]]]},
        )
        # local (0, 1) maps onto global (2, 0)
        assert chan.unitary_part[1][1] == (("CX", 2, 0),)

    def test_unknown_name(self):
        with pytest.raises(ChannelError):
            ch.builtin_channel("amplitude_damping", [0], 1)

    def test_invalid_lambda(self):
        with pytest.raises(ChannelError):
            ch.builtin_channel("depolarizing", [0], 1, {"lambda": 1.5})

    def test_incomplete_channel_rejected(self):
        with pytest.raises(ChannelError):
            ch.SimulableChannel(1, [(0.5, ())], [])

    def test_incomplete_channel_rejected_above_dense_cap(self):
        # completeness is checked exactly at every width, its trace included
        with pytest.raises(ChannelError):
            ch.SimulableChannel(7, [(0.5, ())], [])
        zz = sc.PauliOp.from_letters("ZZ" + "I" * 5)
        kraus = [(0.4, ch.StabKraus(1, sc.StabProjector(7, [(zz, s)]), ())) for s in (1, -1)]
        with pytest.raises(ChannelError):
            ch.SimulableChannel(7, [], kraus)
        ch.SimulableChannel(7, [(0.2, ())], kraus)
        # weights summing to 1 are not enough: (1 + ZZ)/2 + (1 + XX)/2 is not I
        xx = sc.PauliOp.from_letters("XX" + "I" * 5)
        kraus = [(0.5, ch.StabKraus(1, sc.StabProjector(7, [(op, 1)]), ())) for op in (zz, xx)]
        with pytest.raises(ChannelError, match="completeness"):
            ch.SimulableChannel(7, [], kraus)

    def test_trace_preserved_randomly(self):
        rng = np.random.default_rng(17)
        chans = [
            ch.builtin_channel("depolarizing", [1], 2, {"lambda": 0.37}),
            ch.builtin_channel("t_gadget", [1, 0], 2),
            ch.builtin_channel("pauli_measure_and_forward", [0], 2, {"pauli": "X"}),
        ]
        for chan in chans:
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            out = do.apply_channel_dense(rho, chan)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(out - out.conj().T).max() < 1e-10


def random_group(rng, n, h):
    """h independent commuting Paulis: Z_0..Z_{h-1} pulled back through a random circuit."""
    gates = [random_gate(rng, n) for _ in range(4 * n)]
    return [sc.conjugate_pauli(sc.PauliOp.single(n, j, "Z"), gates) for j in range(h)]


def sign_patterns(rng, n, ops, weight):
    """One Kraus term of weight weight / 2^h per sign pattern of the h ops.

    Their 2^h projectors sum to I, so the terms sum to weight * I whatever
    circuits follow the projectors.
    """
    h = len(ops)
    return [(weight / 2**h, ch.StabKraus(h, sc.StabProjector(n, list(zip(ops, signs))),
                                         [random_gate(rng, n) for _ in range(2)]))
            for signs in itertools.product((1, -1), repeat=h)]


def staircase(n, flip=None):
    """Kraus terms 2^-h 2^h Pi_s for the orthogonal projectors Pi_s with Z_j = +1
    for j < s and Z_s = -1 (s < n - 1), plus Z_j = +1 for every j < n - 1; h runs
    up to n - 1.  flip negates the first sign of term flip."""
    kraus = []
    for s in range(n):
        h = min(s + 1, n - 1)
        signs = [-1 if j == s else 1 for j in range(h)]
        if s == flip:
            signs[0] = -signs[0]
        proj = sc.StabProjector(n, [(sc.PauliOp.single(n, j, "Z"), sign) for j, sign in enumerate(signs)])
        kraus.append((2.0**-h, ch.StabKraus(h, proj, ())))
    return kraus


class TestCompleteness:
    def test_matches_dense_defect(self):
        # complete channels: a unitary weight plus one or two groups' full sign
        # patterns; incomplete: one term dropped, or one sign flipped so that two
        # terms share a projector and the weights still sum to 1
        rng = np.random.default_rng(29)
        seen = {True: 0, False: 0}
        for case in range(48):
            n = int(rng.integers(1, 7))
            P_U = (0.0, 0.3)[case % 2]
            unitary = [(P_U, [random_gate(rng, n)])] if P_U else []
            groups = 1 + (case // 2) % 2
            kraus = []
            for _ in range(groups):
                ops = random_group(rng, n, int(rng.integers(1, min(n, 3) + 1)))
                kraus += sign_patterns(rng, n, ops, (1.0 - P_U) / groups)
            mutation = (case // 4) % 3
            if mutation == 1:
                del kraus[int(rng.integers(len(kraus)))]
            elif mutation == 2:
                j = int(rng.integers(len(kraus)))
                q, k = kraus[j]
                (op, sign), *rest = k.proj.generators
                kraus[j] = (q, ch.StabKraus(k.h, sc.StabProjector(n, [(op, -sign), *rest]), k.circuit))
            dense = do.channel_completeness_defect(
                types.SimpleNamespace(unitary_part=unitary, kraus_part=kraus), n)
            try:
                ch.SimulableChannel(n, unitary, kraus)
                accepted = True
            except ChannelError:
                accepted = False
            assert accepted == (dense <= ch._ATOL), (case, n, dense)
            seen[accepted] += 1
        assert min(seen.values()) >= 12

    def test_staircase_at_n64(self):
        # 64 terms with h up to 63: the check stays exact where 2^h passes 2^53
        ch.SimulableChannel(64, [], staircase(64))
        with pytest.raises(ChannelError, match="completeness"):
            ch.SimulableChannel(64, [], staircase(64, flip=40))

    def test_channels_built_without_dense_oracle(self, monkeypatch):
        # the benchmark estimate document's channels, with every dense_oracle
        # function made to fail
        def refuse(*args, **kwargs):
            raise AssertionError("dense_oracle called while building a channel")

        for name, obj in vars(do).items():
            if inspect.isfunction(obj) and obj.__module__ == do.__name__:
                monkeypatch.setattr(do, name, refuse)
        circuit = [
            *({"type": "t_gadget", "qubits": [d, d + 3]} for d in range(3)),
            {"type": "clifford_mix", "qubits": [0, 1, 2],
             "params": {"terms": [[1.0, [["CX", 0, 1], ["CX", 1, 2]]]]}},
            {"type": "depolarizing", "qubits": [0], "params": {"lambda": 0.05}},
        ]
        chans = [ch.channel_from_json(obj, 6) for obj in circuit]
        assert [len(c.kraus_part) for c in chans] == [2, 2, 2, 0, 0]


class TestChannelFromJson:
    def test_typed_form(self):
        chan = ch.channel_from_json(
            {"type": "depolarizing", "qubits": [0], "params": {"lambda": 0.2}}, 2
        )
        assert len(chan.unitary_part) == 4

    def test_explicit_form(self):
        obj = {
            "unitary": [],
            "kraus": [
                [0.5, 1, [["ZZ", 1]], [["CX", 0, 1]]],
                [0.5, 1, [["ZZ", -1]], [["CX", 0, 1], ["S", 0]]],
            ],
        }
        chan = ch.channel_from_json(obj, 2)
        ref = ch.builtin_channel("t_gadget", [0, 1], 2)
        for got, want in zip(chan.kraus_part, ref.kraus_part):
            assert do.kraus_matrix(got[1]) == pytest.approx(do.kraus_matrix(want[1]))

    def test_empty_rejected(self):
        with pytest.raises(ChannelError):
            ch.channel_from_json({}, 1)


class TestDyadicProduct:
    def test_zero_state(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("0")])
        assert len(dec.terms) == 1
        assert dec.l1 == pytest.approx(1.0)
        assert dec.dense() == pytest.approx(np.diag([1.0, 0.0]))

    def test_H_state(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        assert len(dec.terms) == 4
        assert dec.l1 == pytest.approx(4 - 2 * np.sqrt(2), abs=1e-8)
        assert dec.dense() == pytest.approx(np.outer(H_vec(), H_vec().conj()), abs=1e-8)

    def test_HH_product(self):
        dec = ch.dyadic_decompose_product(
            [mono.BlochState.named("H"), mono.BlochState.named("H")]
        )
        assert len(dec.terms) == 16
        assert dec.l1 == pytest.approx((4 - 2 * np.sqrt(2)) ** 2, abs=1e-8)
        single = np.outer(H_vec(), H_vec().conj())
        assert dec.dense() == pytest.approx(np.kron(single, single), abs=1e-8)

    def test_l1_multiplicative(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v) * rng.uniform(1.0, 1.4)
            states = [mono.BlochState.named("H"), mono.BlochState(*v)]
            dec = ch.dyadic_decompose_product(states)
            parts = [ch.dyadic_decompose_product([s]).l1 for s in states]
            assert dec.l1 == pytest.approx(parts[0] * parts[1], rel=1e-12)

    def test_mixed_state_input(self):
        rho = mono.BlochState.named("H").scaled(0.9)
        dec = ch.dyadic_decompose_product([rho])
        lam, _ = mono.lambda_plus_1q(rho)
        assert dec.l1 == pytest.approx(lam, abs=1e-8)
        assert dec.dense() == pytest.approx(mono.density_matrix(rho), abs=1e-8)

    def test_polytope_mixed_input(self):
        rho = mono.BlochState(0.3, -0.2, 0.1)
        dec = ch.dyadic_decompose_product([rho])
        assert dec.l1 == pytest.approx(1.0, abs=1e-12)
        assert dec.dense() == pytest.approx(mono.density_matrix(rho), abs=1e-8)

    def test_norm_above_one_rejected(self):
        with pytest.raises(ValueError):
            ch.dyadic_decompose_product([(0.9, 0.9, 0.9)])

    @pytest.mark.parametrize("names", [["H", "T"], ["+", "F", "H"], ["H", "0", "T", "+", "1", "-"]])
    def test_lazy_terms_match_fold(self, names):
        # item i is the i-th term of the Cartesian product, first factor outermost
        states = [mono.BlochState.named(s).scaled(0.8 if s in "TF" else 1.0) for s in names]
        dec = ch.dyadic_decompose_product(states)
        fold = list(itertools.product(*dec.factors))
        assert len(dec.terms) == len(fold) == math.prod(len(f) for f in dec.factors)
        for (a, d), combo in zip(dec.terms, fold, strict=True):
            assert a == functools.reduce(operator.mul, (w for w, _ in combo))
            kron = functools.reduce(np.kron, (do.dyad_matrix(e) for _, e in combo))
            assert do.dyad_matrix(d) == pytest.approx(kron, abs=1e-12)
        a, d = dec.terms[-1]
        assert a == functools.reduce(operator.mul, (w for w, _ in fold[-1]))
        with pytest.raises(IndexError):
            dec.terms[len(fold)]

    def test_joint_count_needs_no_term(self, monkeypatch):
        def no_tensor(*states):
            raise AssertionError("a joint term was built")

        monkeypatch.setattr(sc, "tensor", no_tensor)
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")] * 30)
        assert len(dec.terms) == 4**30
        assert len(dec.factors) == 30
        assert dec.l1 == pytest.approx((4 - 2 * np.sqrt(2)) ** 30, rel=1e-12)

    def test_factor_validated_at_any_width(self, monkeypatch):
        # a factor whose part weights sum to 2 has trace 2; the per-factor
        # check catches it above the six-qubit dense cap too
        real = dc.decompose_1q_state

        def doubled(rho):
            xi, parts = real(rho)
            return xi, [(2.0 * w, ext, terms) for w, ext, terms in parts]

        monkeypatch.setattr(dc, "decompose_1q_state", doubled)
        with pytest.raises(ChannelError):
            ch.dyadic_decompose_product([mono.BlochState.named("H")] * 7)
