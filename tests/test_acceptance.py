"""Full-scale behavioral gate: one check per simulator-suite guarantee.

Each test exercises a component at its contracted size and tolerance, so
this file doubles as the release checklist; run it verbosely to get one
pass/fail line per guarantee.
"""

import math
import time
from pathlib import Path

import numpy as np

from magicsim import channels as ch
from magicsim import constrained_sim as cs
from magicsim import decompositions as dc
from magicsim import dense_oracle as do
from magicsim import distill
from magicsim import dyadic_sim as ds
from magicsim import monotones as mt
from magicsim import rank_sim as rs
from magicsim import stab_core as sc
from magicsim._util import sample_rng
from magicsim.cli import _csv_text, _random_gate, _random_pauli_word

SQRT2 = math.sqrt(2.0)
LAM_H = 4.0 - 2.0 * SQRT2


def test_1_stabilizer_core_matches_dense_oracle():
    """1000 random programs: states, norms, inner products agree to 1e-10."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        schedule = ["g"] * int(rng.integers(1, 61)) + ["p"] * int(rng.integers(0, 11))
        rng.shuffle(schedule)
        state = sc.zero_state(n)
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = 1.0
        alive = True
        for kind in schedule:
            if kind == "g":
                gate = _random_gate(rng, n)
                state = sc.apply_gate(state, gate)
                vec = do.apply_gate_dense(vec, n, gate)
            else:
                op = sc.PauliOp.from_letters(_random_pauli_word(rng, n))
                sign = 1 if rng.random() < 0.5 else -1
                before = np.linalg.norm(vec)
                state, rel = sc.project_pauli(state, op, sign)
                vec = 0.5 * (vec + sign * (do.pauli_matrix(op) @ vec))
                after = np.linalg.norm(vec)
                if after < 1e-14:
                    worst = max(worst, abs(rel))
                    alive = False
                    break
                worst = max(worst, abs(rel - after / before))
        if not alive:
            continue
        worst = max(worst, float(np.abs(do.expand(state) - vec).max()))
        other_gates = [_random_gate(rng, n) for _ in range(10)]
        other = sc.apply_circuit(sc.zero_state(n), other_gates)
        ovec = np.zeros(2**n, dtype=complex)
        ovec[0] = 1.0
        for gate in other_gates:
            ovec = do.apply_gate_dense(ovec, n, gate)
        worst = max(worst, abs(sc.inner_product(other, state) - np.vdot(ovec, vec)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 60.0


def _fixture_states(rng, n):
    # at most two strong magic factors per fixture keeps the l1 budget flat
    magic_budget = 2
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.55 and magic_budget > 0:
            out.append(mt.BlochState.named(str(rng.choice(["H", "T", "F"]))))
            magic_budget -= 1
        elif roll < 0.75:
            out.append(mt.BlochState.named("H").scaled(0.6 + 0.3 * rng.random()))
        else:
            out.append(mt.BlochState.named(str(rng.choice(["0", "1", "+", "-"]))))
    return out


def _fixture_channel(rng, n):
    options = ["depolarizing", "clifford_mix", "pauli_measure_and_forward"]
    if n >= 2:
        options.append("t_gadget")
    name = str(rng.choice(options))
    if name == "depolarizing":
        return ch.builtin_channel(name, [int(rng.integers(n))], n,
                                  {"lambda": 0.4 * rng.random()})
    if name == "clifford_mix":
        qs = list(range(n))
        terms = []
        for p in (0.65, 0.35):
            gates = [_random_gate(rng, n) for _ in range(int(rng.integers(1, 4)))]
            terms.append([p, gates])
        return ch.builtin_channel(name, qs, n, {"terms": terms})
    if name == "t_gadget":
        a, b = rng.choice(n, size=2, replace=False)
        return ch.builtin_channel(name, [int(a), int(b)], n, {})
    q = int(rng.integers(n))
    return ch.builtin_channel("pauli_measure_and_forward", [q], n,
                              {"pauli": "XYZ"[int(rng.integers(3))]})


def _fixture_measurement(rng, n, want_projector):
    if want_projector:
        pairs = []
        for q in range(min(n, 2)):
            letters = "".join("Z" if j == q else "I" for j in range(n))
            pairs.append((letters, 1 if rng.random() < 0.5 else -1))
        return sc.StabProjector.from_strings(pairs)
    return sc.PauliOp.from_letters(_random_pauli_word(rng, n))


def test_2_dyadic_estimator_accuracy_over_fixtures():
    """20 channel fixtures, 10 repetitions each: failure fraction within bound."""
    rng = np.random.default_rng(202)
    fixtures = []
    for i in range(20):
        n = 1 + i % 3
        states = _fixture_states(rng, n)
        decomp = ch.dyadic_decompose_product(states)
        chans = [_fixture_channel(rng, n) for _ in range(1 + i % 2)]
        meas = _fixture_measurement(rng, n, want_projector=(i % 2 == 0))
        rho = decomp.dense()
        for chan in chans:
            rho = do.apply_channel_dense(rho, chan)
        if isinstance(meas, sc.StabProjector):
            truth = do.born_probability_dense(rho, meas)
        else:
            truth = float(np.real(np.trace(do.pauli_matrix(meas) @ rho)))
        fixtures.append((decomp, chans, meas, truth))

    epsilon, p_fail, reps = 0.02, 0.05, 10
    failures = 0
    seed = 0
    for decomp, chans, meas, truth in fixtures:
        for _ in range(reps):
            rep = ds.estimate_born(decomp, chans, meas, epsilon=epsilon,
                                   p_fail=p_fail, seed=20_000 + seed)
            seed += 1
            if abs(rep.mu_hat - truth) > epsilon:
                failures += 1
    total = len(fixtures) * reps
    assert total == 200
    sigma = math.sqrt(p_fail * (1.0 - p_fail) / total)
    assert failures / total <= p_fail + 3.0 * sigma


def test_3_single_qubit_monotone_constants():
    """Closed-form monotone values for the named magic states."""
    h = mt.BlochState.named("H")
    lam_h = mt.product_monotone([h])
    assert abs(lam_h - LAM_H) <= 1e-9
    assert abs(math.log2(lam_h) - 0.228443) <= 5e-6
    d_h = mt.stab_norm_1q(h)
    assert abs(d_h - 1.2071) <= 1e-4
    assert abs(math.log2(d_h) - 0.271553) <= 5e-6
    xi_f, _ = dc.extent_pure_1q(mt.BlochState.named("F"))
    assert abs(xi_f - (3.0 - math.sqrt(3.0))) <= 1e-9


def test_4_sparsification_mean_and_variance():
    """100k sparsifications of three H copies at k=100: mean and variance."""
    d = rs.mixed_input_product([mt.BlochState.named("H")] * 3).ensemble[0][1]
    k = 100
    draws = 100_000
    vals = np.empty(draws)
    for i in range(draws):
        vals[i] = rs.sparsify(d, k, sample_rng(404, i)).norm_sq()
    expect = 1.0 + (d.l1**2 - 1.0) / k
    sigma = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.mean() - expect) <= 4.0 * sigma
    bound = (
        4.0 * (k**3 - 3.0 * k**2 + 2.0 * k) / k**4 * d.C
        + 2.0 * (d.l1**4 / k**2) * (1.0 - 1.0 / k)
        - (4.0 * k**3 - 10.0 * k**2 + 6.0 * k) / k**4
    )
    assert vals.var(ddof=1) <= bound


def test_5_sampler_distribution_and_uniform_cost():
    """100k strings from a noisy two-qubit magic product: l1 close, flat cost."""
    noisy = mt.BlochState.named("H").scaled(0.9)
    inp = rs.mixed_input_product([noisy, noisy])
    delta = 0.15
    n_str = 100_000
    strings, report = rs.sample_bitstrings(inp, 2, delta, 0.05, n_str, seed=505,
                                           norm_backend="exact")
    truth = np.real(np.diag(inp.dense()))
    counts = np.zeros(4)
    for s in strings:
        counts[int(s, 2)] += 1.0
    emp = counts / n_str
    sigma = sum(math.sqrt(p * (1.0 - p) / n_str) for p in truth)
    assert np.abs(emp - truth).sum() <= delta + 3.0 * sigma
    # equimagical input: worst-case cost equals the average
    assert report.ks.min() == report.ks.max()


def test_6_constrained_interval_coverage_and_cost():
    """200 runs per fixture: coverage within bound, sample count lambda-free."""
    h = mt.BlochState.named("H")
    t = mt.BlochState.named("T")
    bell_circuit = [ch.SimulableChannel(2, [(1.0, (("CX", 0, 1),))], [])]
    fixtures = [
        ([h], [], sc.PauliOp.from_letters("X"), 1.0 / SQRT2),
        ([t], [], sc.PauliOp.from_letters("Y"), 1.0 / SQRT2),
        ([h, mt.BlochState.named("0")], bell_circuit,
         sc.StabProjector.from_strings([("ZI", 1)]),
         math.cos(math.pi / 8.0) ** 2),
    ]
    c, p_fail, runs = 0.1, 0.05, 200
    expected_m = math.ceil(2.0 * c**-2 * math.log(2.0 / p_fail))
    sigma = math.sqrt(0.95 * 0.05 / runs)
    counts = set()
    for states, circuit, meas, truth in fixtures:
        pair = cs.optimal_pair(states)
        hits = 0
        for r in range(runs):
            rep = cs.constrained_estimate(pair, circuit, meas, c=c,
                                          p_fail=p_fail, seed=60_000 + r)
            counts.add(rep.samples)
            if rep.E_min <= truth <= rep.E_max:
                hits += 1
        assert hits / runs >= 0.95 - 3.0 * sigma
    # the per-run cost never depends on the pair's lambda
    assert counts == {expected_m}


def test_7_robustness_lp_values_and_gap():
    """LP equals the l1 closed form on single qubits; H pair in known range."""
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 50:
        b = mt.BlochState(*(rng.uniform(-1.0, 1.0, size=3) / math.sqrt(3.0)))
        if b.l1 <= 1.0 + 1e-6:
            continue
        value, _, cert = mt.robustness_lp(b.density())
        assert abs(value - b.l1) <= 1e-7
        assert abs(cert["duality_gap"]) <= 1e-7
        checked += 1
    h2 = np.kron(mt.BlochState.named("H").density(), mt.BlochState.named("H").density())
    value, _, cert = mt.robustness_lp(h2)
    d_h = mt.stab_norm_1q(mt.BlochState.named("H"))
    assert d_h**2 - 1e-4 <= value <= 2.0 + 1e-9
    assert 1.4571 - 1e-4 <= value <= 2.0
    assert abs(cert["duality_gap"]) <= 1e-7


def test_8_monotone_inequality_ladder():
    """R >= 2 Lambda+ - 1 and the sharper single-qubit line on 500 states."""
    rng = np.random.default_rng(808)
    for _ in range(500):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        radius = rng.random() ** (1.0 / 3.0)
        b = mt.BlochState(*(radius * v))
        lam_plus, _ = mt.lambda_plus_1q(b)
        r = mt.robustness_lp(b.density())[0]
        assert r - (2.0 * lam_plus - 1.0) >= -1e-9
        assert r - ((1.0 + SQRT2) * lam_plus - SQRT2) >= -1e-9


def test_9_distillation_sweeps_monotone_and_locked():
    """Copy bounds tighten with eps and m; alpha sweep matches the frozen file."""
    states = (distill.noisy_h(0.75),)
    eps_grid = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-14]
    _, rows = distill.sweep_epsilon(states, "H", 4, 0.9, eps_grid)
    ks = [row[3] for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(ks, ks[1:]))

    m_grid = [1, 2, 4, 8, 16, 32]
    header, rows = distill.sweep_m(states, "H", m_grid, 1e-10, 0.9)
    ks = [row[3] for row in rows]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    per_copy = [row[4] for row in rows]
    # larger m tightens the per-copy demand
    assert per_copy[-1] > per_copy[0]

    # identical queries are formula-deterministic
    q = distill.DistillQuery(states=states, target="H", m=4, eps=1e-10, p=0.9)
    assert distill.copies_lower_bound(q) == distill.copies_lower_bound(q)

    header, rows = distill.sweep_alpha(
        "H", [0.60, 0.70, 0.72, 0.75, 0.80, 0.85, 0.90, 0.95, 0.98],
        24, 1e-20, 0.9)
    text = _csv_text(header, rows)
    locked = (Path(__file__).parent / "data" / "distill_sweep.csv").read_text("utf-8")
    assert text == locked
