"""Benchmark workloads: run documents, CLI arguments and output checks.

Each workload builds its jobs from the seed, and a pass runs each job once.
A job is one CLI invocation:
its arguments, the run document it reads, and a check that compares the
JSON output with a reference computed in ``dense_ref`` without the layers
under test.  Statistical checks use Hoeffding radii at a false-alarm
probability of 1e-9, so a change to the RNG streams cannot trip them by luck.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dense_ref as dr

FALSE_ALARM = 1e-9


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    doc: dict | None = None
    # checks on values captured by the traced run, keyed by traced function
    trace_check: Callable[[dict], list[str]] = field(default=lambda facts: [])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Callable[[int], list[Job]]


def _within(errors: list[str], what: str, got: float, want: float, tol: float) -> None:
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        errors.append(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


# -- estimate job (dyadic_walk) ---------------------------------------------------
# Three |+> data qubits each receive a T gate by gadget injection from a T-state
# ancilla; the estimator's l1 weight is (4 - 2 sqrt 2)^3 from the ancillas.

EST_EPSILON = 0.024
EST_P_FAIL = 0.05
EST_L1 = (4.0 - 2.0 * math.sqrt(2.0)) ** 3
EST_SAMPLES = 33_123  # ceil(2 l1^2 eps^-2 ln(2 / p_fail))
EST_WORD = "XXXIII"
EST_CX = [["CX", 0, 1], ["CX", 1, 2]]


def _estimate_jobs(seed: int) -> list[Job]:
    doc = {
        "state": {"product": ["+", "+", "+", "T", "T", "T"]},
        "circuit": [
            *({"type": "t_gadget", "qubits": [d, d + 3]} for d in range(3)),
            {"type": "clifford_mix", "qubits": [0, 1, 2],
             "params": {"terms": [[1.0, EST_CX]]}},
            {"type": "depolarizing", "qubits": [0], "params": {"lambda": 0.05}},
        ],
        "measurement": {"pauli": EST_WORD},
        "params": {"epsilon": EST_EPSILON, "p_fail": EST_P_FAIL},
    }
    rho = dr.product_density([dr.BLOCH[s] for s in doc["state"]["product"]])
    for d in range(3):
        rho = dr.t_gadget(rho, d, d + 3)
    rho = dr.apply_gates(rho, EST_CX)
    rho = dr.depolarize(rho, 0, 0.05)
    exact = dr.pauli_expectation(rho, EST_WORD)

    def check(out: dict) -> list[str]:
        errors: list[str] = []
        if out.get("samples") != EST_SAMPLES:
            errors.append(f"samples {out.get('samples')!r} != {EST_SAMPLES}")
        _within(errors, "l1", out.get("l1"), EST_L1, 1e-9)
        radius = dr.hoeffding_radius(EST_L1, EST_SAMPLES, FALSE_ALARM)
        _within(errors, "mu_hat", out.get("mu_hat"), exact, radius)
        return errors

    return [Job("estimate", ["estimate"], check, doc)]


# -- constrained job (dyadic_walk) ------------------------------------------------
# Two independent 6-qubit blocks, so exact values factor into two dense 6-qubit
# expectations even though the simulator sees 12 qubits.

CON_N = 12
CON_ALPHA = 0.8
CON_C = 0.07
CON_P_FAIL = 0.05
CON_SAMPLES = 1_506  # ceil(2 c^-2 ln(2 / p_fail)), independent of lambda
CON_SIGMA_TERMS = 4_096
CON_DEPOL = 0.05


def _ladder(base: int) -> list[list]:
    return [["CX", base + i, base + i + 1] for i in range(5)]


def _block_value(bloch) -> float:
    """<Z^6> after one block's ladder and noise, from the product input bloch^6."""
    rho = dr.product_density([bloch] * 6)
    rho = dr.apply_gates(rho, _ladder(0))
    for q in range(6):
        rho = dr.depolarize(rho, q, CON_DEPOL)
    return dr.pauli_expectation(rho, "Z" * 6)


def _constrained_jobs(seed: int) -> list[Job]:
    doc = {
        "state": {"product": [{"named": "H", "alpha": CON_ALPHA}] * CON_N},
        "circuit": [
            {"type": "clifford_mix", "qubits": list(range(CON_N)),
             "params": {"terms": [[1.0, _ladder(0) + _ladder(6)]]}},
            *({"type": "depolarizing", "qubits": [q], "params": {"lambda": CON_DEPOL}}
              for q in range(CON_N)),
        ],
        "measurement": {"pauli": "Z" * CON_N},
        "params": {"epsilon": CON_C, "p_fail": CON_P_FAIL},
    }
    b = CON_ALPHA * np.array(dr.BLOCH["H"])
    target = _block_value(b) ** 2

    def check(out: dict) -> list[str]:
        errors: list[str] = []
        if out.get("samples") != CON_SAMPLES:
            errors.append(f"samples {out.get('samples')!r} != {CON_SAMPLES}")
        lam = out.get("lam")
        if not isinstance(lam, float) or lam < 1.0:
            return errors + [f"lam {lam!r} is not a float >= 1"]
        # sigma is the product of per-qubit octahedron points nearest b / lam_j
        b_sig = dr.l1_ball_projection(b / lam ** (1.0 / CON_N))
        mu_exact = _block_value(b_sig) ** 2
        mu = out.get("E_sigma", math.nan) / lam
        r = dr.hoeffding_radius(1.0, CON_SAMPLES, FALSE_ALARM)
        _within(errors, "sigma-side mean", mu, mu_exact, r)
        lo = lam * (mu - r) - (lam - 1.0)
        hi = lam * (mu + r) + (lam - 1.0)
        if not lo - 1e-12 <= target <= hi + 1e-12:
            errors.append(f"exact value {target} outside widened interval [{lo}, {hi}]")
        if not out.get("E_min", 2) <= out.get("E_hat", 0) <= out.get("E_max", -2):
            errors.append("E_hat outside [E_min, E_max]")
        return errors

    def trace_check(facts: dict) -> list[str]:
        terms = [f["sigma_terms"] for f in facts.get("constrained_sim.optimal_pair", [])]
        return [] if terms == [CON_SIGMA_TERMS] else [f"sigma terms {terms} != {CON_SIGMA_TERMS}"]

    return [Job("constrained", ["constrained"], check, doc, trace_check)]


# -- sample job (rank_lp) ---------------------------------------------------------
# The prefix CX chain runs from qubit 1 to 3, so the measured qubits 0 and 1
# keep independent marginals with P(0) = 0.82 and every string takes 2w+1
# fast_norm calls; the documented bound is w+1 to 2w+1 per string.

SAMP_N = 4
SAMP_ALPHA = 0.9
SAMP_W = 2
SAMP_DELTA = 0.15
SAMP_COUNT = 2
SAMP_K = 160  # sharpened rule ceil(4 l1^2 (D / delta_s^2 + 1 / delta_s)), delta_s = delta / 3


def _sample_jobs(seed: int) -> list[Job]:
    doc = {
        "state": {"product": [{"named": "H", "alpha": SAMP_ALPHA}] * SAMP_N},
        "circuit": [{"unitary": [[1.0, [["CX", 1, 2], ["CX", 2, 3]]]]}],
        "params": {"w": SAMP_W, "delta": SAMP_DELTA, "samples": SAMP_COUNT},
    }
    pattern = re.compile(f"[01]{{{SAMP_W}}}")

    def check(out: dict) -> list[str]:
        errors: list[str] = []
        strings = out.get("strings")
        if not (isinstance(strings, list) and len(strings) == SAMP_COUNT
                and all(isinstance(s, str) and pattern.fullmatch(s) for s in strings)):
            errors.append(f"malformed strings {strings!r}")
        if (out.get("k_min"), out.get("k_max"), out.get("regime")) != (SAMP_K, SAMP_K, "sharpened"):
            errors.append(f"k range {out.get('k_min')!r}..{out.get('k_max')!r} "
                          f"in {out.get('regime')!r}, want {SAMP_K} sharpened")
        calls = out.get("fastnorm_calls")
        if not (isinstance(calls, int)
                and (SAMP_W + 1) * SAMP_COUNT <= calls <= (2 * SAMP_W + 1) * SAMP_COUNT):
            errors.append(f"fastnorm_calls {calls!r} outside the per-string bound")
        return errors

    return [Job("sample", ["sample"], check, doc)]


# -- monotone jobs (rank_lp) ------------------------------------------------------
# A fixed grid of noisy single-qubit states; each point solves the robustness LP
# at one, two and three copies.  The seed only rotates the grid's start.

MONO_GRID = (("H", 0.9), ("T", 0.85), ("F", 0.95))
MONO_COPIES = 3
MONO_LP_CALLS = 3  # one robustness LP per width 1..3


def _monotone_jobs(seed: int) -> list[Job]:
    states = {n: dr.stabilizer_states(n) for n in range(1, MONO_COPIES + 1)}
    for n, found in states.items():
        want = 2**n * math.prod(2**k + 1 for k in range(1, n + 1))
        if len(found) != want:
            raise RuntimeError(f"reference enumeration found {len(found)} states, want {want}")
    jobs = []
    start = seed % len(MONO_GRID)
    for name, alpha in MONO_GRID[start:] + MONO_GRID[:start]:
        b = alpha * np.array(dr.BLOCH[name])
        l1 = float(np.abs(b).sum())
        rho1 = dr.bloch_density(b)
        rows_want = []
        rho = np.ones((1, 1), dtype=complex)
        for n in range(1, MONO_COPIES + 1):
            rho = np.kron(rho, rho1)
            scale = 2.0 ** (-n)
            r_lower = (((1.0 + l1) / 2.0) ** n - scale) / (1.0 - scale)
            rows_want.append((n, dr.robustness(rho, states[n]), r_lower, max(l1, 1.0) ** n))
        jobs.append(Job(f"monotone {name} {alpha}",
                        ["monotone", "--state", name, "--alpha", str(alpha),
                         "--copies", str(MONO_COPIES), "--format", "json"],
                        _monotone_check(rows_want), None, _certificate_check))
    return jobs


def _monotone_check(rows_want):
    def check(out: dict) -> list[str]:
        errors: list[str] = []
        rows = out.get("rows")
        if not isinstance(rows, list) or len(rows) != len(rows_want):
            return [f"rows {rows!r}"]
        lam1 = rows[0][1]
        for row, (n, r_ref, r_lower, r_upper) in zip(rows, rows_want):
            got_n, lam, r_lp, lo, hi = row
            if got_n != n:
                errors.append(f"row {n} labelled {got_n!r}")
            _within(errors, f"lam at n={n}", lam, lam1**n, 1e-9 * lam)
            _within(errors, f"r_lp at n={n}", r_lp, r_ref, 1e-6 * r_ref)
            _within(errors, f"r_lower at n={n}", lo, r_lower, 1e-9 * r_lower)
            _within(errors, f"r_upper at n={n}", hi, r_upper, 1e-9 * r_upper)
            if isinstance(r_lp, float) and not lo - 1e-9 <= r_lp <= hi + 1e-9:
                errors.append(f"r_lp {r_lp} outside [{lo}, {hi}] at n={n}")
        return errors

    return check


def _certificate_check(facts: dict) -> list[str]:
    certs = facts.get("monotones.robustness_lp", [])
    if len(certs) != MONO_LP_CALLS:
        return [f"{len(certs)} robustness LPs, want {MONO_LP_CALLS}"]
    return [f"LP certificate {c}" for c in certs
            if not (abs(c["duality_gap"]) <= 1e-7 and c["feasibility_defect"] <= 1e-7)]


def _jobs(*makers):
    return lambda seed: [job for make in makers for job in make(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dyadic_walk",
                 "estimate n=6, M=33123, 96% leaf-cache hits, plus constrained n=12, 4096 "
                 "sigma terms, M=1506, 6% hits: dyadic walk, sample_rng and stab_core; "
                 "rank_sim and the LP idle",
                 _jobs(_estimate_jobs, _constrained_jobs)),
        Workload("rank_lp",
                 "sample n=4, k=160, 10 fast_norm calls, plus monotone --copies 3 on 3 "
                 "states, 3 solve_lp calls each: rank_sim, monotones and _simplex; the "
                 "dyadic walk idle",
                 _jobs(_sample_jobs, _monotone_jobs)),
    )
}


def write_doc(job: Job, workdir: Path) -> list[str]:
    """CLI arguments for a job, writing its run document if it has one."""
    if job.doc is None:
        return list(job.argv)
    path = workdir / f"{job.label.replace(' ', '_')}.json"
    path.write_text(json.dumps(job.doc), encoding="utf-8")
    return [*job.argv, "--input", str(path)]
