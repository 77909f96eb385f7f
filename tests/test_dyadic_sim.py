"""Dyadic simulator: transition probabilities, unbiasedness, reproducibility."""

import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import magicsim.channels as ch
import magicsim.cli as cli
import magicsim.constrained_sim as cs
import magicsim.dense_oracle as do
import magicsim.dyadic_sim as dy
import magicsim.monotones as mono
import magicsim.stab_core as sc
from magicsim._util import CHUNK, RUN, kahan_sum, sample_rng

from conftest import philox_rng, random_gate, random_pauli, random_stab_state

DATA = pathlib.Path(__file__).parent / "data"


def proj_zero(n, qubit):
    letters = ["I"] * n
    letters[qubit] = "Z"
    return sc.StabProjector.from_strings([("".join(letters), 1)])


def plus_zero_dyad():
    L = sc.apply_circuit(sc.zero_state(2), [("H", 0)])
    R = sc.apply_circuit(sc.zero_state(2), [("H", 0), ("Z", 0)])
    return ch.Dyad(L, R)


def rooted(dyad, chan):
    """A trajectory tree with the one root dyad and the one head channel."""
    tree = dy._Tree(SimpleNamespace(head=[chan]))
    tree.phases.append(1)
    tree.levels[0].add(dyad)
    return tree


def expanded(dyad, chan):
    """rooted(dyad, chan) with its root expanded: cum row and Kraus children."""
    tree = rooted(dyad, chan)
    dy._expand(tree.levels[0], 0, chan, tree.levels[1])
    return tree


def child(tree, j):
    """The expanded root's child j, walked into by one sample if it is not
    built yet; None when branch j has probability zero."""
    root, below = tree.levels[0], tree.levels[1]
    lo = root.cum[0, j - 1] if j else 0.0
    if root.kids[0, j] < 0 and root.cum[0, j] > lo:
        # the draw lo lands on branch j: bisect_right counts the cum entries <= lo
        n = root.dyads[0].n
        tree.walk(np.array([0]), np.array([[lo]]), np.array([[0]]), [(b"", sc.PauliOp.from_letters("I" * n))])
    kid = root.kids[0, j]
    return None if kid < 0 else below.dyads[kid]


def z_measurement():
    return [
        (0.5, ch.StabKraus(1, sc.StabProjector.from_strings([("Z", 1)]), ())),
        (0.5, ch.StabKraus(1, sc.StabProjector.from_strings([("Z", -1)]), ())),
    ]


class TestRequiredSamples:
    def test_formula(self):
        M = dy.required_samples(1.0, 0.1, 0.05)
        assert M == int(np.ceil(2 * 0.1**-2 * np.log(40)))

    def test_scales_with_l1_squared(self):
        a = dy.required_samples(2.0, 0.1, 0.05)
        b = dy.required_samples(1.0, 0.1, 0.05)
        assert a == pytest.approx(4 * b, abs=2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dy.required_samples(1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            dy.required_samples(1.0, 0.1, 1.5)


class TestPauliTerms:
    def test_projector_terms_sum_to_projector(self):
        # random commuting, independent generators: images of Z on h qubits
        # under a random Clifford circuit, each with a random sign
        rng = np.random.default_rng(61)
        signs = set()
        for n in range(1, 5):
            for h in range(1, n + 1):
                for _ in range(3):
                    gates = [random_gate(rng, n) for _ in range(12)]
                    qubits = rng.choice(n, size=h, replace=False).tolist()
                    gens = [(sc.conjugate_pauli(sc.PauliOp.single(n, q, "Z"), gates),
                             int(rng.choice([1, -1]))) for q in qubits]
                    signs.update(sign for _, sign in gens)
                    proj = sc.StabProjector(n, gens)
                    terms = dy._pauli_terms(proj)
                    assert len(terms) == 2**h
                    total = np.zeros((2**n, 2**n), dtype=complex)
                    for w, p in terms:
                        assert w == 2.0**-h
                        assert p.is_hermitian()
                        m = do.pauli_matrix(p)
                        assert np.abs(m - m.conj().T).max() == 0.0
                        total += w * m
                    assert np.abs(total - do.projector_matrix(proj)).max() <= 1e-12
        assert signs == {1, -1}

    def test_pauli_is_its_own_term(self):
        p = sc.PauliOp.from_letters("XYZ", -1)
        assert dy._pauli_terms(p) == [(1.0, p)]


class TestStabilizerUpdate:
    """Branch distributions and children of one trajectory-tree expansion."""

    def test_unitary_certain(self):
        d = ch.Dyad(sc.zero_state(1), sc.zero_state(1))
        tree = expanded(d, ch.SimulableChannel(1, [(1.0, (("H", 0),))], []))
        assert tree.levels[0].cum[0].tolist() == [1.0]
        out = child(tree, 0)
        assert do.expand(out.L) == pytest.approx(np.array([1, 1]) / np.sqrt(2))
        assert do.expand(out.R) == pytest.approx(np.array([1, 1]) / np.sqrt(2))

    def test_selective_kraus_keeps_dyad(self):
        # dyad |+0><-0| against {I x |0><0|, X x |1><1|}: first branch certain
        d = plus_zero_dyad()
        kraus = [
            (0.5, ch.StabKraus(1, proj_zero(2, 1), ())),
            (0.5, ch.StabKraus(1, sc.StabProjector.from_strings([("IZ", -1)]), (("X", 0),))),
        ]
        tree = expanded(d, ch.SimulableChannel(2, [], kraus))
        assert tree.levels[0].cum[0] == pytest.approx([1.0, 1.0], abs=1e-12)
        first = child(tree, 0)
        assert child(tree, 1) is None
        assert do.expand(first.L) == pytest.approx(do.expand(d.L))
        assert do.expand(first.R) == pytest.approx(do.expand(d.R))

    def test_measure_branch_probabilities(self):
        # Z measure-and-keep on |+><+| splits 50/50 into |0><0| and |1><1|
        d = ch.Dyad(sc.plus_state(1), sc.plus_state(1))
        tree = expanded(d, ch.SimulableChannel(1, [], z_measurement()))
        assert tree.levels[0].cum[0] == pytest.approx([0.5, 1.0], abs=1e-12)
        for j, expect in enumerate((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))):
            kid = child(tree, j)
            dense = np.outer(do.expand(kid.L), do.expand(kid.R).conj())
            assert dense == pytest.approx(expect)

    def test_output_amplitudes_are_unit(self):
        d = ch.Dyad(sc.plus_state(1), sc.plus_state(1))
        tree = expanded(d, ch.SimulableChannel(1, [], z_measurement()))
        for kid in (child(tree, 0), child(tree, 1)):
            assert abs(kid.L.amplitude() - 1.0) < 1e-12
            assert abs(kid.R.amplitude() - 1.0) < 1e-12

    def test_unitary_children_built_on_first_walk(self, monkeypatch):
        # a depolarizing node costs no gate application until a branch is walked
        calls = []
        apply_circuit = sc.apply_circuit

        def counted(state, gates):
            calls.append(gates)
            return apply_circuit(state, gates)

        d = plus_zero_dyad()
        chan = ch.builtin_channel("depolarizing", [1], 2, {"lambda": 0.4})
        tree = rooted(d, chan)
        monkeypatch.setattr(sc, "apply_circuit", counted)
        dy._expand(tree.levels[0], 0, chan, tree.levels[1])
        assert calls == []
        assert tree.levels[0].cum[0] == pytest.approx([0.7, 0.8, 0.9, 1.0], abs=1e-12)
        kid = child(tree, 2)
        assert calls == [(("Y", 1),)] * 2
        assert child(tree, 2) is kid
        assert len(calls) == 2
        assert (tree.levels[0].kids[0] >= 0).tolist() == [False, False, True, False]
        for side in ("L", "R"):
            want = apply_circuit(getattr(d, side), [("Y", 1)])
            assert do.expand(getattr(kid, side)) == pytest.approx(do.expand(want))
        # both sides of a diagonal dyad are one state, so one application serves both
        diag = expanded(ch.Dyad(d.L, d.L), chan)
        kid = child(diag, 1)
        assert len(calls) == 3
        assert kid.L is kid.R

    def test_diagonal_dyad_stays_diagonal_through_kraus(self, monkeypatch):
        # one projection and one circuit per Kraus branch serve both sides
        calls = []
        project_stab = sc.project_stab

        def counted(state, proj):
            calls.append(proj)
            return project_stab(state, proj)

        state = sc.apply_circuit(sc.plus_state(2), [("S", 0), ("CX", 0, 1)])
        chan = ch.builtin_channel("t_gadget", [0, 1], 2)
        twin = expanded(ch.Dyad(state, state.copy()), ch.SimulableChannel(2, [], chan.kraus_part))
        # building a channel projects too (its completeness check), so the
        # channel is built before the count starts
        diag = rooted(ch.Dyad(state, state), chan)
        monkeypatch.setattr(sc, "project_stab", counted)
        dy._expand(diag.levels[0], 0, chan, diag.levels[1])
        assert len(calls) == len(chan.kraus_part)
        assert diag.levels[0].cum[0].tolist() == twin.levels[0].cum[0].tolist()
        for j in range(diag.levels[0].cum.shape[1]):
            kid, ref = child(diag, j), child(twin, j)
            assert kid.L is kid.R
            assert do.expand(kid.L) == pytest.approx(do.expand(ref.L))
            assert do.expand(kid.R) == pytest.approx(do.expand(ref.R))

    def test_empty_part_rejected(self):
        # an empty channel is refused at every width, here above the dense cap
        with pytest.raises(ch.ChannelError):
            ch.SimulableChannel(7, [], [])


class TestTreeWalk:
    def test_t_gadget_never_aborts(self):
        # T-gadget branches on every input dyad exhaust the probability mass,
        # so no walk through the gadget aborts
        dec = ch.dyadic_decompose_product(
            [mono.BlochState.named("+"), mono.BlochState.named("H")]
        )
        chan = ch.builtin_channel("t_gadget", [0, 1], 2)
        for _, d in dec.terms:
            tree = expanded(d, chan)
            cum = tree.levels[0].cum[0]
            assert cum[-1] == pytest.approx(1.0, abs=1e-12)
            assert len(cum) == 2
            assert all(child(tree, j) is not None for j in range(2))


class _EagerNode:
    """Trajectory-tree node that builds every child when first expanded."""

    def __init__(self, dyad):
        self.dyad = dyad
        self.cum = None
        self.children = None
        self.value = None

    def expand(self, chan):
        probs, kids = [], []
        L, R = self.dyad.L, self.dyad.R
        for p, gates in chan.unitary_part:
            kids.append(_EagerNode(ch.Dyad(sc.apply_circuit(L, gates), sc.apply_circuit(R, gates))))
            probs.append(p)
        for q, k in chan.kraus_part:
            Lp, nl = sc.project_stab(L, k.proj)
            Rp, nr = sc.project_stab(R, k.proj)
            pr = q * (2.0**k.h) * nl * nr
            if pr > 0.0:
                Lp = sc.with_unit_amplitude(sc.apply_circuit(Lp, k.circuit))[0]
                Rp = sc.with_unit_amplitude(sc.apply_circuit(Rp, k.circuit))[0]
                kids.append(_EagerNode(ch.Dyad(Lp, Rp)))
            else:
                kids.append(None)
            probs.append(pr)
        self.cum = np.cumsum(probs)
        self.children = kids


def reference_chunk(dec, chans, measurement, seed, lo, hi):
    """Chunk [lo, hi) walked on an eager tree with np.searchsorted on the same
    rows: column f picks the term of factor f, and the channels follow."""
    sampling = dec.sampling_arrays()
    nf = len(sampling)
    roots = {}
    values, aborted = [], 0
    for row in sample_rng(seed, lo).random((hi - lo, nf + len(chans))):
        idx = tuple(min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
                    for (cum, _), u in zip(sampling, row))
        phase = 1
        for (_, phases), j in zip(sampling, idx):
            phase = phase * phases[j]
        if idx not in roots:
            roots[idx] = _EagerNode(dec.terms.joint(idx)[1])
        node = roots[idx]
        for chan, u in zip(chans, row[nf:]):
            if node.children is None:
                node.expand(chan)
            j = int(np.searchsorted(node.cum, u, side="right"))
            if j >= len(node.children):
                values.append(0.0)
                aborted += 1
                break
            node = node.children[j]
        else:
            if node.value is None:
                node.value = _measure(node.dyad, measurement)
            values.append(dec.l1 * float(np.real(phase * node.value)))
    return kahan_sum(values), aborted


def _measure(dyad, measurement):
    """Tr[E |L><R|] after every channel, the Schroedinger-picture leaf value."""
    if isinstance(measurement, sc.PauliOp):
        Lm = sc.apply_pauli(dyad.L, measurement)
    else:
        Lm, _ = sc.project_stab(dyad.L, measurement)
    return sc.inner_product(dyad.R, Lm)


def gadget_noise_measure():
    """T gadget, depolarizing noise and a measure-and-forward step on |+,H,H>."""
    dec = ch.dyadic_decompose_product([mono.BlochState.named(s) for s in "+HH"])
    chans = [
        ch.builtin_channel("t_gadget", [0, 1], 3),
        ch.builtin_channel("depolarizing", [0], 3, {"lambda": 0.3}),
        ch.builtin_channel("pauli_measure_and_forward", [0, 2], 3, {"pauli": "XZ"}),
    ]
    return dec, chans, proj_zero(3, 0)


def gadget_then_clifford_tail(diagonal=False):
    """A T gadget followed by a Clifford tail: depolarizing noise and a
    two-term mix over H, S, SDG, CZ, SWAP and Y.  The input is |+,H,H>, or
    with diagonal set the stabilizer mixture of its robustness pair, whose
    dyads are all diagonal."""
    states = [mono.BlochState.named(s) for s in "+HH"]
    dec = cs.optimal_pair(states).sigma if diagonal else ch.dyadic_decompose_product(states)
    terms = [
        [0.55, [["H", 0], ["S", 1], ["CZ", 0, 2], ["SWAP", 1, 2]]],
        [0.45, [["SDG", 2], ["Y", 0], ["H", 1], ["CZ", 1, 0], ["S", 0]]],
    ]
    chans = [
        ch.builtin_channel("t_gadget", [0, 1], 3),
        ch.builtin_channel("depolarizing", [2], 3, {"lambda": 0.3}),
        ch.builtin_channel("clifford_mix", [0, 1, 2], 3, {"terms": terms}),
    ]
    return dec, chans


TAIL_MEASUREMENTS = {
    "pauli": sc.PauliOp.from_letters("XYZ", -1),
    "projector": sc.StabProjector.from_strings([("ZXI", 1), ("IIZ", -1)]),
}


class TestChunkStream:
    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("kind", sorted(TAIL_MEASUREMENTS))
    def test_tail_chunk_matches_eager_reference(self, kind, diagonal):
        # the tree stops at the gadget; the tail is pulled back onto the measurement
        dec, chans = gadget_then_clifford_tail(diagonal)
        # a joint dyad is diagonal when every factor's is, so only sigma is all diagonal
        diagonals = [d.R is d.L for _, d in dec.terms]
        assert all(diagonals) if diagonal else not all(diagonals)
        measurement = TAIL_MEASUREMENTS[kind]
        assert dy._tail_start(chans) == 1
        payload = dy._payload(dec, chans, measurement, 13)
        # one run of three chunks, then one chunk again on the warm trees
        bounds = ((0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 53))
        got = dy._chunk_worker(payload, 0, 2 * CHUNK + 53) + dy._chunk_worker(payload, CHUNK, 2 * CHUNK)
        for (total, aborted), (lo, hi) in zip(got, bounds + bounds[1:2]):
            want_total, want_aborted = reference_chunk(dec, chans, measurement, 13, lo, hi)
            assert aborted == want_aborted
            assert abs(total - want_total) <= 1e-12
            assert total != 0.0

    def test_tail_abort_matches_eager_reference(self):
        # a tail channel whose branches fall short of 1 aborts the sample, as
        # it does when the tree walks through it
        dec, chans = gadget_then_clifford_tail()
        short = SimpleNamespace(n=3, kraus_part=(), unitary_part=(
            (0.6, (("H", 2),)), (0.3, (("CZ", 0, 2), ("SDG", 1))),
        ))
        chans.insert(2, short)
        measurement = TAIL_MEASUREMENTS["projector"]
        payload = dy._payload(dec, chans, measurement, 19)
        got = dy._chunk_worker(payload, CHUNK, 2 * CHUNK + 7)
        assert len(got) == 2
        for (total, aborted), (lo, hi) in zip(got, ((CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 7))):
            want_total, want_aborted = reference_chunk(dec, chans, measurement, 19, lo, hi)
            assert aborted == want_aborted
            assert abs(total - want_total) <= 1e-12
        assert sum(aborted for _, aborted in got) > 0

    def test_tail_estimate_reproducible_across_workers(self):
        dec, chans = gadget_then_clifford_tail()
        for measurement in TAIL_MEASUREMENTS.values():
            reps = [dy.estimate_born(dec, chans, measurement, 0.12, 0.05, seed=17, workers=w)
                    for w in (1, 2)]
            assert reps[0].M > 3 * CHUNK
            assert repr(reps[0].to_dict()) == repr(reps[1].to_dict())

    def test_root_cache_cap_keeps_values(self, monkeypatch):
        # past the cap a drawn root is built for its sample and dropped
        dec, chans, proj = gadget_noise_measure()
        want = dy._chunk_worker(dy._payload(dec, chans, proj, 11), 0, CHUNK)
        monkeypatch.setattr(dy, "MAX_CACHED_ROOTS", 3)
        payload = dy._payload(dec, chans, proj, 11)
        assert dy._chunk_worker(payload, 0, CHUNK) == want
        # the gadget and the measure-and-forward step join all three qubits into one block
        (block,) = payload[4]
        assert len(block.tree.roots) == 3 < len(dec.terms)

    def test_chunk_matches_eager_reference(self):
        dec, chans, proj = gadget_noise_measure()
        payload = dy._payload(dec, chans, proj, 11)
        bounds = ((0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 37))
        got = dy._chunk_worker(payload, 0, 2 * CHUNK + 37) + dy._chunk_worker(payload, CHUNK, 2 * CHUNK)
        for (total, aborted), (lo, hi) in zip(got, bounds + bounds[1:2]):
            # the projector's Pauli terms sum in another order than the eager
            # projection, so the sum may move in its last bits
            want_total, want_aborted = reference_chunk(dec, chans, proj, 11, lo, hi)
            assert aborted == want_aborted
            assert abs(total - want_total) <= 1e-12
        aborted = sum(a for _, a in got[:3])
        assert 0 < aborted < 2 * CHUNK + 37


def random_product_decomposition(rng, n):
    """n one-qubit factors of one to three random dyads, mostly with L != R."""
    factors = []
    for _ in range(n):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            L = random_stab_state(rng, 1)
            R = L if rng.random() < 0.25 else random_stab_state(rng, 1)
            terms.append((complex(rng.normal(), rng.normal()), ch.Dyad(L, R)))
        l1 = sum(abs(a) for a, _ in terms)
        factors.append(ch.DyadicDecomposition([(1.5 * a / l1, d) for a, d in terms], validate=False))
    return ch.DyadicDecomposition.product(factors)


class TestQubitLeaves:
    """No Kraus channel and a Pauli measurement: one block per one-qubit factor."""

    def test_block_leaves_match_tableau_leaf(self):
        # i^k prod_q (phase_q <R_q|P_q|L_q>) is phase * <R|P|L> on the joint dyad
        rng = np.random.default_rng(47)
        i_pow = (1, 1j, -1, -1j)
        for n in range(1, 9):
            dec = random_product_decomposition(rng, n)
            for _ in range(12):
                idx = tuple(int(rng.integers(len(f))) for f in dec.factors)
                p = random_pauli(rng, n, hermitian=False)
                blocks = dy._blocks(dec, [])
                assert [b.qubits for b in blocks] == [[q] for q in range(n)]
                got = i_pow[p.k]
                for block, (key_of_pulled, keys) in zip(blocks, dy._block_keys(blocks, [p])):
                    values, live = dy._block_values(
                        block, np.array([[idx[block.factors[0]]]]), np.zeros((1, n)), key_of_pulled[:, None], keys)
                    assert live.tolist() == [True]
                    assert values.shape == (1, 1)
                    got = got * values[0, 0]
                alpha, dyad = dec.terms.joint(idx)
                want = alpha / abs(alpha) * sc.inner_product(dyad.R, sc.apply_pauli(dyad.L, p))
                assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("short", [False, True])
    def test_chunk_matches_eager_reference(self, short):
        # every root is a factor's own dyad, so no tableau is tensored, and
        # the chunks' leaves agree with the Schroedinger-picture walk
        rng = np.random.default_rng(53)
        dec = random_product_decomposition(rng, 4)
        chans = [
            ch.builtin_channel("depolarizing", [1], 4, {"lambda": 0.4}),
            ch.builtin_channel("clifford_mix", [0, 1, 2, 3], 4, {"terms": [
                [0.7, [["H", 0], ["CX", 0, 3], ["S", 2], ["SWAP", 1, 2]]],
                [0.3, [["CZ", 1, 3], ["SDG", 0], ["Y", 2]]],
            ]}),
        ]
        if short:
            chans.append(SimpleNamespace(n=4, kraus_part=(), unitary_part=((0.8, (("H", 3),)),)))
        measurement = sc.PauliOp.from_letters("XYZI", -1)
        payload = dy._payload(dec, chans, measurement, 23)
        assert [b.qubits for b in payload[4]] == [[0], [1], [2], [3]]
        got = dy._chunk_worker(payload, 0, CHUNK) + dy._chunk_worker(payload, CHUNK, 2 * CHUNK + 29)
        bounds = ((0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 29))
        for (total, aborted), (lo, hi) in zip(got, bounds):
            want_total, want_aborted = reference_chunk(dec, chans, measurement, 23, lo, hi)
            assert aborted == want_aborted
            assert (aborted > 0) == short
            assert abs(total - want_total) <= 1e-9
        for block, factor in zip(payload[4], dec.factors):
            dyads = [d for _, d in factor]
            assert all(any(root is d for d in dyads) for root in block.tree.levels[0].dyads)


def gadget_pairs(n_pairs, tail=True):
    """|+>^m (x) |T>^m with a T gadget on each pair (d, d + m), m = n_pairs,
    then optionally a CX chain over the data qubits and depolarizing noise
    on qubit 0: the perfbench estimate document at m = 3."""
    n = 2 * n_pairs
    dec = ch.dyadic_decompose_product([mono.BlochState.named(s) for s in "+" * n_pairs + "T" * n_pairs])
    chans = [ch.builtin_channel("t_gadget", [d, d + n_pairs], n) for d in range(n_pairs)]
    if tail:
        chain = [["CX", d, d + 1] for d in range(n_pairs - 1)]
        chans.append(ch.builtin_channel("clifford_mix", list(range(n_pairs)), n,
                                        {"terms": [[1.0, chain]]}))
        chans.append(ch.builtin_channel("depolarizing", [0], n, {"lambda": 0.05}))
    return dec, chans


def merged_by_projector():
    """A measure-and-forward ZZ on qubits 0 and 2 joins two factors' blocks,
    and a gadget on (1, 3) makes a second block; qubit 4 stays alone."""
    dec = ch.dyadic_decompose_product([mono.BlochState.named(s) for s in ("H", "+", "F", "T", "H")])
    chans = [
        ch.builtin_channel("pauli_measure_and_forward", [0, 2], 5, {"pauli": "ZZ"}),
        ch.builtin_channel("t_gadget", [1, 3], 5),
        ch.builtin_channel("depolarizing", [2], 5, {"lambda": 0.3}),
        ch.builtin_channel("clifford_mix", [0, 1, 4], 5, {"terms": [
            [0.6, [["H", 0], ["CZ", 0, 2], ["S", 1]]], [0.4, [["CX", 2, 1], ["SDG", 0]]],
        ]}),
    ]
    return dec, chans, sc.PauliOp.from_letters("XZYZX", -1), [[0, 2], [1, 3], [4]]


def two_qubit_factor():
    """A validated two-qubit dyads factor (the joint terms of H (x) T, so
    its dyads have L != R) next to |+> and |H>; a gadget joins the factor
    with qubit 2."""
    pair = ch.DyadicDecomposition(list(ch.dyadic_decompose_product(
        [mono.BlochState.named("H"), mono.BlochState.named("T")]).terms))
    dec = ch.DyadicDecomposition.product(
        [pair, ch.dyadic_decompose_product([mono.BlochState.named(s) for s in "+H"])])
    assert [len(f[0][1].L.s) for f in dec.factors] == [2, 1, 1]
    chans = [
        ch.builtin_channel("t_gadget", [2, 1], 4),
        ch.builtin_channel("clifford_mix", [0, 3], 4, {"terms": [[0.5, [["H", 1]]], [0.5, [["CX", 1, 0]]]]}),
    ]
    return dec, chans, sc.PauliOp.from_letters("YXXZ"), [[0, 1, 2], [3]]


def short_tail():
    """Two gadget blocks and a tail channel whose branches sum to 0.85."""
    dec, chans = gadget_pairs(2, tail=False)
    chans.append(SimpleNamespace(n=4, kraus_part=(), unitary_part=(
        (0.6, (("H", 0), ("CX", 0, 1))), (0.25, (("S", 2),)),
    )))
    return dec, chans, sc.PauliOp.from_letters("XYZI"), [[0, 2], [1, 3]]


BLOCK_CASES = {
    "disjoint-gadgets": lambda: (*gadget_pairs(3), sc.PauliOp.from_letters("XXYIII"),
                                 [[0, 3], [1, 4], [2, 5]]),
    # a projector is walked as its four Pauli terms over the same blocks
    "projector-blocks": lambda: (*gadget_pairs(3), sc.StabProjector.from_strings(
        [("XIIZII", 1), ("IXIIII", -1)]), [[0, 3], [1, 4], [2, 5]]),
    "projector-merge": merged_by_projector,
    "two-qubit-factor": two_qubit_factor,
    "short-tail": short_tail,
}


class TestBlocks:
    def test_benchmark_document_partition(self):
        # the perfbench estimate document: gadgets on (d, d + 3), then a Clifford tail
        dec, chans = gadget_pairs(3)
        blocks = dy._blocks(dec, chans)
        assert [b.qubits for b in blocks] == [[0, 3], [1, 4], [2, 5]]
        assert [b.factors for b in blocks] == [[0, 3], [1, 4], [2, 5]]
        assert [b.cols for b in blocks] == [[6], [7], [8]]
        # the partition ignores the measurement: a projector walks the Pauli's blocks
        for measurement in (sc.PauliOp.from_letters("XXXIII"), proj_zero(6, 0)):
            payload = dy._payload(dec, chans, measurement, 1)
            assert [b.qubits for b in payload[4]] == [[0, 3], [1, 4], [2, 5]]

    def test_restricted_channel_matches_joint_branches(self):
        # a block's local channel gives a product dyad's branches their joint probabilities
        dec, chans, _, _ = merged_by_projector()
        (block,) = [b for b in dy._blocks(dec, chans) if b.qubits == [0, 2]]
        local = block.head[0]
        assert local.kraus_part[0][1].proj.generators[0][0].letters() == "ZZ"
        for idx in [(0, 0, 0, 0, 0), (1, 0, 2, 0, 3), (3, 0, 1, 0, 1)]:
            joint = expanded(dec.terms.joint(idx)[1], chans[0])
            part = expanded(block.terms.joint((idx[0], idx[2]))[1], local)
            assert part.levels[0].cum[0].tolist() == joint.levels[0].cum[0].tolist()

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_chunks_match_eager_reference(self, case):
        dec, chans, measurement, partition = BLOCK_CASES[case]()
        payload = dy._payload(dec, chans, measurement, 29)
        assert [b.qubits for b in payload[4]] == partition
        bounds = [(lo, min(lo + CHUNK, 3 * CHUNK + 41)) for lo in range(0, 3 * CHUNK + 41, CHUNK)]
        got = dy._chunk_worker(payload, 0, 3 * CHUNK + 41)
        assert len(got) == len(bounds)
        for (total, aborted), (lo, hi) in zip(got, bounds):
            want_total, want_aborted = reference_chunk(dec, chans, measurement, 29, lo, hi)
            assert aborted == want_aborted
            assert abs(total - want_total) <= 1e-12
        if case == "short-tail":
            assert sum(a for _, a in got) > 0

    def test_gadget_product_at_20_qubits(self):
        # no CX chain: the exact value is the product of ten two-qubit dense values
        m = 10
        dec, chans = gadget_pairs(m, tail=False)
        letters = "XY" * (m // 2)
        measurement = sc.PauliOp.from_letters(letters + "I" * m)
        pair = ch.dyadic_decompose_product([mono.BlochState.named("+"), mono.BlochState.named("T")])
        rho = do.apply_channel_dense(pair.dense(), ch.builtin_channel("t_gadget", [0, 1], 2))
        want = np.prod([np.trace(rho @ do.pauli_matrix(sc.PauliOp.from_letters(c + "I"))).real
                        for c in letters])
        rep = dy.estimate_born(dec, chans, measurement, 0.15, 0.05, seed=31)
        assert rep.aborted == 0
        radius = dec.l1 * np.sqrt(2.0 * np.log(2.0 / 1e-9) / rep.M)
        assert abs(rep.mu_hat - want) <= radius


class TestProjectorDocument:
    def test_projector_is_mean_of_identity_and_pauli(self, monkeypatch):
        # (1 + X_0)/2 on the committed n=20 gadget document walks the ten
        # gadget pairs as blocks, and the three runs share every draw, so
        # mu_hat(Pi) = (mu_hat(I) + mu_hat(X_0)) / 2 holds sample by sample;
        # the pinned value was drawn from the Philox stream, patched in here
        monkeypatch.setattr(dy, "sample_rng", philox_rng)
        doc = json.loads((DATA / "estimate_projector_n20.json").read_text(encoding="utf-8"))
        dec = cli._decomp_from_state(doc["state"])
        chans = cli._circuit(doc, dec.n)
        proj = cli._measurement(doc, dec.n)
        assert isinstance(proj, sc.StabProjector) and proj.h == 1
        walked = set()
        block_values = dy._block_values

        def recorded(block, *args):
            walked.add(tuple(block.qubits))
            return block_values(block, *args)

        monkeypatch.setattr(dy, "_block_values", recorded)
        eps, p_fail = doc["params"]["epsilon"], doc["params"]["p_fail"]
        rep = dy.estimate_born(dec, chans, proj, eps, p_fail, seed=1)
        assert sorted(walked) == [(d, d + 10) for d in range(10)]
        ident = dy.estimate_born(dec, chans, sc.PauliOp.identity(20), eps, p_fail, seed=1)
        x0 = dy.estimate_born(dec, chans, sc.PauliOp.single(20, 0, "X"), eps, p_fail, seed=1)
        assert rep.M == ident.M == x0.M == 4378
        assert abs(rep.mu_hat - (ident.mu_hat + x0.mu_hat) / 2) <= 1e-12
        # the value of the joint projector walk this expansion replaced
        assert abs(rep.mu_hat - 0.7468657057349855) <= 1e-12

    def test_benchmark_estimate_under_philox_stream(self, monkeypatch):
        # the benchmark's estimate document (three T gadgets, n=6, M=33,123)
        # walked from the Philox stream gives the value recorded before the
        # stream became SplitMix64, bit for bit, so a change to the walk
        # cannot hide behind the change of stream
        monkeypatch.setattr(dy, "sample_rng", philox_rng)
        dec = ch.dyadic_decompose_product([mono.BlochState.named(s) for s in ["+"] * 3 + ["T"] * 3])
        chans = [ch.builtin_channel("t_gadget", [d, d + 3], 6) for d in range(3)]
        chans.append(ch.builtin_channel("clifford_mix", [0, 1, 2], 6, {"terms": [
            [1.0, [["CX", 0, 1], ["CX", 1, 2]]]]}))
        chans.append(ch.builtin_channel("depolarizing", [0], 6, {"lambda": 0.05}))
        rep = dy.estimate_born(dec, chans, sc.PauliOp.from_letters("XXXIII"), 0.024, 0.05, seed=1)
        assert (rep.M, rep.aborted) == (33123, 0)
        assert rep.mu_hat == 0.6734165471256561

    def test_eight_generators_walk_in_slices(self, monkeypatch):
        # X_0..X_7 expand into 256 terms; a run's 2,048 samples are walked in
        # slices that hold at most _SLICE_VALUES (sample, term) values, and
        # the chunk sums equal those of a run walked in one slice
        doc = json.loads((DATA / "estimate_projector_n20.json").read_text(encoding="utf-8"))
        doc["measurement"] = {"projector": [["I" * q + "X" + "I" * (19 - q), 1] for q in range(8)]}
        dec = cli._decomp_from_state(doc["state"])
        proj = cli._measurement(doc, dec.n)
        payload = dy._payload(dec, cli._circuit(doc, dec.n), proj, 1)
        shapes = []
        block_values = dy._block_values

        def recorded(block, rows, draws, key_ids, keys):
            shapes.append(key_ids.shape)
            return block_values(block, rows, draws, key_ids, keys)

        monkeypatch.setattr(dy, "_block_values", recorded)
        got = dy._chunk_worker(payload, 0, RUN * CHUNK)
        assert {cols for _, cols in shapes} == {256}
        assert max(rows * cols for rows, cols in shapes) <= dy._SLICE_VALUES < RUN * CHUNK * 256
        monkeypatch.setattr(dy, "_SLICE_VALUES", RUN * CHUNK * 256)
        fresh = dy._payload(dec, cli._circuit(doc, dec.n), proj, 1)
        assert dy._chunk_worker(fresh, 0, RUN * CHUNK) == got


class TestEstimateBorn:
    def test_plus_state_identity(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("+")])
        rep = dy.estimate_born(dec, [], proj_zero(1, 0), 0.02, 0.05, seed=101)
        assert rep.per_sample_bound == pytest.approx(1.0)
        assert abs(rep.mu_hat - 0.5) <= 0.02

    def test_H_state_identity(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        rep = dy.estimate_born(dec, [], proj_zero(1, 0), 0.02, 0.05, seed=102)
        assert abs(rep.mu_hat - np.cos(np.pi / 8) ** 2) <= 0.02
        assert rep.M >= dy.required_samples(dec.l1, 0.02, 0.05)

    def test_depolarized_H(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        chan = ch.builtin_channel("depolarizing", [0], 1, {"lambda": 0.35})
        rep = dy.estimate_born(dec, [chan], proj_zero(1, 0), 0.03, 0.05, seed=103)
        rho = np.outer(*(2 * [np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])]))
        want = do.born_probability_dense(do.apply_channel_dense(rho.astype(complex), chan), proj_zero(1, 0))
        assert abs(rep.mu_hat - want) <= 0.03

    def test_t_gadget_vs_dense(self):
        dec = ch.dyadic_decompose_product(
            [mono.BlochState.named("+"), mono.BlochState.named("H")]
        )
        chan = ch.builtin_channel("t_gadget", [0, 1], 2)
        proj = proj_zero(2, 0)
        rep = dy.estimate_born(dec, [chan], proj, 0.02, 0.05, seed=104)
        want = do.born_probability_dense(do.apply_channel_dense(dec.dense(), chan), proj)
        assert want == pytest.approx(0.5, abs=1e-9)
        assert abs(rep.mu_hat - want) <= 0.02

    def test_pauli_observable(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        obs = sc.PauliOp.from_letters("X")
        rep = dy.estimate_born(dec, [], obs, 0.03, 0.05, seed=105)
        assert abs(rep.mu_hat - 1 / np.sqrt(2)) <= 0.03

    def test_reproducible_across_workers(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        rep1 = dy.estimate_born(dec, [], proj_zero(1, 0), 0.05, 0.05, seed=42, workers=1)
        rep2 = dy.estimate_born(dec, [], proj_zero(1, 0), 0.05, 0.05, seed=42, workers=3)
        assert rep1.mu_hat == rep2.mu_hat
        assert rep1.M == rep2.M

    def test_reproducible_across_workers_with_channels(self):
        dec, chans, proj = gadget_noise_measure()
        reps = [dy.estimate_born(dec, chans, proj, 0.12, 0.05, seed=9, workers=w) for w in (1, 2)]
        assert reps[0].M > 3 * CHUNK and reps[0].M % CHUNK
        assert reps[0].aborted > 0
        assert reps[0].mu_hat == reps[1].mu_hat
        assert reps[0].aborted == reps[1].aborted

    def test_over_budget_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(dy, "run_chunked", no_sampling)
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        with pytest.raises(ValueError, match=str(dy.MAX_SAMPLES)):
            dy.estimate_born(dec, [], proj_zero(1, 0), 1e-9, 0.05, seed=1)

    def test_projector_over_generator_ceiling_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampling started")

        def run(n):
            dec = ch.dyadic_decompose_product([mono.BlochState.named("+")] * n)
            proj = sc.StabProjector.from_strings(
                [("I" * q + "Z" + "I" * (n - q - 1), 1) for q in range(n)])
            dy.estimate_born(dec, [], proj, 0.3, 0.05, seed=1)

        monkeypatch.setattr(dy, "run_chunked", no_sampling)
        # at the ceiling the run reaches sampling; one generator more is refused
        with pytest.raises(AssertionError, match="sampling started"):
            run(dy.MAX_PROJECTOR_GENERATORS)
        with pytest.raises(ValueError, match="generators"):
            run(dy.MAX_PROJECTOR_GENERATORS + 1)

    def test_seed_changes_result(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        rep1 = dy.estimate_born(dec, [], proj_zero(1, 0), 0.05, 0.05, seed=1)
        rep2 = dy.estimate_born(dec, [], proj_zero(1, 0), 0.05, 0.05, seed=2)
        assert rep1.mu_hat != rep2.mu_hat

    def test_width_mismatch(self):
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H")])
        with pytest.raises(ValueError):
            dy.estimate_born(dec, [], proj_zero(2, 0), 0.05, 0.05, seed=1)


class TestUnbiasedness:
    def test_mixed_input_noisy_circuit(self):
        # 2-qubit instance with a mid-circuit channel, moderate sample count:
        # the estimate must fall within 4 standard errors of the dense value
        rho_b = mono.BlochState.named("H").scaled(0.8)
        dec = ch.dyadic_decompose_product([mono.BlochState.named("H"), rho_b])
        chans = [
            ch.builtin_channel("clifford_mix", [0, 1], 2, {"terms": [[0.6, [["CX", 0, 1]]], [0.4, [["CZ", 0, 1]]]]}),
            ch.builtin_channel("depolarizing", [1], 2, {"lambda": 0.25}),
        ]
        proj = sc.StabProjector.from_strings([("ZI", 1), ("IZ", -1)])
        rho = dec.dense()
        for chan in chans:
            rho = do.apply_channel_dense(rho, chan)
        want = do.born_probability_dense(rho, proj)
        rep = dy.estimate_born(dec, chans, proj, 0.003, 0.05, seed=200)
        assert rep.M >= 1_000_000
        stderr = dec.l1 / np.sqrt(rep.M)
        assert abs(rep.mu_hat - want) <= 4 * stderr + 1e-12
