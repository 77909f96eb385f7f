"""Measurement loop, output checks and metrics of the benchmark; see run.py.

Each measured run is a fresh ``python3 -m magicsim.cli`` process on the
sources under ``src/``, pinned to one worker and one BLAS thread, and one
process runs at a time.  Every run's output is checked against an exact
reference.  Wall time, CPU time and peak RSS come from ``os.wait4`` on that
one child, in spawner.py.  Set-up time is a fresh interpreter importing
``magicsim.cli``, probed once per pass over a workload's jobs.  With
``--trace 1`` each untraced run is followed by the same command run through
tracer.py, whose spans give the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from spawner import Spawner
from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
OUT = ROOT / ".perfbench"

MIN_SETUP_PROBES = 5

E2E = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}



def _traced_function_units() -> dict[str, str]:
    units = {}
    for name in TARGETS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
        if name.startswith("stab_core."):
            # the primitives' cost per call at the workload's width
            units[f"{name}.us_per_call"] = "us"
    return units


PER_LAYER = {
    **_traced_function_units(),
    "dyadic_sim.samples": "count",
    "dyadic_sim.aborts": "count",
    "dyadic_sim.abort_ratio": "ratio",
    "dyadic_sim.leaf_inner_products": "count",
    "dyadic_sim.leaf_hit_ratio": "ratio",
    "dyadic_sim.us_per_sample": "us",
    "channels.terms": "count",
    "constrained_sim.sigma_terms": "count",
    "rank_sim.k_mean": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MAGICSIM_WORKERS", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Runs one child at a time through the spawner, with the run's output files."""

    def __init__(self, spawner: Spawner, workdir: Path, deadline: float):
        self.spawner = spawner
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, argv: list[str]) -> dict:
        self.count += 1
        out_path = self.workdir / f"out-{self.count}.txt"
        err_path = self.workdir / f"err-{self.count}.txt"
        res = self.spawner.run(argv, self.env, str(ROOT), str(out_path), str(err_path),
                               timeout=max(1.0, self.deadline - time.monotonic()))
        res["stdout"] = out_path.read_text(encoding="utf-8", errors="replace")
        res["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")
        return res

    def setup_probe(self) -> float:
        """Seconds from spawning a fresh interpreter to magicsim.cli imported."""
        code = ("import magicsim.cli, sys, time; "
                "sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
        res = self.run([sys.executable, "-c", code])
        if res["code"] != 0:
            raise RuntimeError(f"import probe failed: {res['stderr'][-400:]}")
        return float(res["stdout"]) - res["t0"]


class Bench:
    """Jobs, per-pass samples and failures of one workload within a run.

    A pass runs every job of the workload once.  Its wall and CPU times are
    the sums over its processes and its peak RSS the largest of them; the
    reported metrics are medians over the passes in which every run passed
    its checks.
    """

    def __init__(self, workload: wl.Workload, seed: int, runner: Runner, trace: bool):
        self.workload = workload
        self.runner = runner
        self.trace = trace
        self.jobs = []
        for job in workload.jobs(seed):
            args = wl.write_doc(job, runner.workdir)
            self.jobs.append((job, [*args, "--seed", str(seed), "--workers", "1"]))
        self.samples = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        self.traced_walls: list[float] = []
        self.layer_passes: list[dict] = []
        self.outputs: dict[str, str] = {}
        self.first_counts: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.last_spans: dict[str, Path] = {}

    def pass_estimate(self) -> float:
        """Expected seconds for the next pass, from the medians so far."""
        if not self.samples["wall_s"]:
            return 0.0
        traced = statistics.median(self.traced_walls) if self.traced_walls else 0.0
        return (statistics.median(self.samples["wall_s"]) + traced
                + statistics.median(self.samples["setup_s"]))

    def run_pass(self) -> None:
        """A set-up probe, then every job once; each traced run follows its untraced one."""
        self.samples["setup_s"].append(self.runner.setup_probe())
        runs, traced = [], []
        for job, args in self.jobs:
            res = self._measure(job, args, traced=False)
            if res is not None:
                runs.append(res)
            if self.trace:
                res = self._measure(job, args, traced=True)
                if res is not None:
                    traced.append(res)
        if len(runs) == len(self.jobs):
            self.samples["wall_s"].append(sum(r["wall_s"] for r in runs))
            self.samples["cpu_s"].append(sum(r["cpu_s"] for r in runs))
            self.samples["peak_rss_mb"].append(max(r["peak_rss_mb"] for r in runs))
        if self.trace and len(traced) == len(self.jobs):
            self.traced_walls.append(sum(r["wall_s"] for r in traced))
            total = {k: sum(r["raw"][k] for r in traced) for k in traced[0]["raw"]}
            self.layer_passes.append(derive_layer_metrics(total))

    def _measure(self, job: wl.Job, args: list[str], traced: bool) -> dict | None:
        """Run one job; None if it failed, else its measurements."""
        self.attempted += 1
        spans = self.runner.workdir / f"spans-{self.attempted}-{self.workload.name}.npz"
        if traced:
            argv = [sys.executable, str(TRACER), str(spans), str(self.attempted), *args]
        else:
            argv = [sys.executable, "-m", "magicsim.cli", *args]
        res = self.runner.run(argv)
        errors = self._check(job, res)
        if traced and not errors:
            res["raw"], facts = summarize_spans(spans)
            errors = job.trace_check(facts) + self._repeat_check(job, res["raw"])
            self.last_spans[job.label] = spans
        if errors:
            self.failures.append(f"{job.label}: " + "; ".join(errors))
            return None
        return res

    def _repeat_check(self, job: wl.Job, raw: dict) -> list[str]:
        """Counts must repeat exactly: same document, same seed, fresh process."""
        counts = {k: v for k, v in raw.items() if isinstance(v, int)}
        first = self.first_counts.setdefault(job.label, counts)
        return [f"count {k} is {v}, was {first[k]} in the first traced run"
                for k, v in counts.items() if v != first[k]]

    def _check(self, job: wl.Job, res: dict) -> list[str]:
        if res["code"] != 0:
            return [f"exit code {res['code']}: {res['stderr'][-400:]}"]
        previous = self.outputs.setdefault(job.label, res["stdout"])
        if res["stdout"] != previous:
            return ["output differs from an earlier run with the same seed"]
        try:
            return job.check(json.loads(res["stdout"]))
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            return [f"unreadable output ({exc!r}): {res['stdout'][-400:]}"]

    def metrics(self) -> dict[str, float]:
        if not self.trace:
            return {k: statistics.median(v) for k, v in self.samples.items() if v}
        if not self.layer_passes:
            return {}
        out = {k: statistics.median(p[k] for p in self.layer_passes) for k in self.layer_passes[0]}
        out["trace.wall_s"] = statistics.median(self.traced_walls)
        if self.samples["wall_s"]:
            out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(self.samples["wall_s"])
        return out


def summarize_spans(path: Path) -> tuple[dict[str, float], dict]:
    """Additive per-layer totals of one traced run: calls, times and counts.

    Counts are ints, times floats; a pass sums them over its jobs before
    derive_layer_metrics turns them into ratios and per-call costs.
    """
    with np.load(path) as data:
        fn, parent = data["fn"], data["parent"]
        dur = data["end"] - data["start"]
        names = [str(x) for x in data["names"]]
        facts = json.loads(str(data["facts"]))
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child_time
    index = {name: i for i, name in enumerate(names)}
    raw: dict[str, float] = {}
    for name in TARGETS:
        mask = fn == index[name]
        raw[f"{name}.calls"] = int(mask.sum())
        raw[f"{name}.s"] = float(dur[mask].sum())
        raw[f"{name}.self_s"] = float(self_time[mask].sum())

    def total(fn_name: str, key: str) -> int:
        return int(sum(f[key] for f in facts.get(fn_name, [])))

    # leaf values are the inner products the walk itself makes, one per new leaf
    walk = np.flatnonzero(fn == index["_util.run_chunked"])
    raw.update({
        "dyadic_sim.samples": total("dyadic_sim.estimate_born", "samples"),
        "dyadic_sim.aborts": total("dyadic_sim.estimate_born", "aborts"),
        "dyadic_sim.leaf_inner_products":
            int(np.isin(parent[fn == index["stab_core.inner_product"]], walk).sum()),
        "channels.terms": total("channels.dyadic_decompose_product", "terms"),
        "constrained_sim.sigma_terms": total("constrained_sim.optimal_pair", "sigma_terms"),
        "rank_sim.k_sum": total("rank_sim.sample_bitstrings", "k_sum"),
        "rank_sim.strings": total("rank_sim.sample_bitstrings", "strings"),
    })
    return raw, facts


def derive_layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics of one pass from its summed totals; ratios with a zero base read 0."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {k: v for k, v in raw.items() if k in PER_LAYER}
    for name in TARGETS:
        if f"{name}.us_per_call" in PER_LAYER:
            out[f"{name}.us_per_call"] = 1e6 * ratio(raw[f"{name}.s"], raw[f"{name}.calls"])
    samples, aborts = raw["dyadic_sim.samples"], raw["dyadic_sim.aborts"]
    out["dyadic_sim.abort_ratio"] = ratio(aborts, samples)
    out["dyadic_sim.leaf_hit_ratio"] = (
        1.0 - ratio(raw["dyadic_sim.leaf_inner_products"], samples - aborts)
        if samples > aborts else 0.0)
    out["dyadic_sim.us_per_sample"] = 1e6 * ratio(raw["dyadic_sim.estimate_born.s"], samples)
    out["rank_sim.k_mean"] = ratio(raw["rank_sim.k_sum"], raw["rank_sim.strings"])
    return out


def measure(spawner: Spawner, deadline: float, names: list[str], seed: int,
            seconds: float, trace: bool) -> list[Bench]:
    """Interleave the workloads' passes until the next round would overrun."""
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(spawner, workdir, deadline)
        # the first import may compile bytecode; users pay that once, not per run
        runner.setup_probe()
        benches = [Bench(wl.WORKLOADS[n], seed, runner, trace) for n in names]
        t0 = time.monotonic()
        while True:
            for bench in benches:
                bench.run_pass()
            elapsed = time.monotonic() - t0
            upcoming = sum(b.pass_estimate() for b in benches)
            if elapsed + upcoming > seconds:
                break
        for bench in benches:
            while len(bench.samples["setup_s"]) < MIN_SETUP_PROBES:
                bench.samples["setup_s"].append(runner.setup_probe())
        for bench in benches:
            for label, spans in bench.last_spans.items():
                shutil.copy(spans, OUT / f"spans-{label.replace(' ', '_')}.npz")
        return benches
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(args, spawner: Spawner, deadline: float) -> int:
    """Measure, check and print the results; deadline bounds every child's run."""
    if args.workload not in (*wl.WORKLOADS, "all"):
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {[*wl.WORKLOADS]}\n")
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    benches = measure(spawner, deadline, names, args.seed, args.seconds, bool(args.trace))

    units = PER_LAYER if args.trace else E2E
    metrics = {}
    for bench in benches:
        prefix = f"{bench.workload.name}." if args.workload == "all" else ""
        values = bench.metrics()
        n = bench.attempted
        walls = sorted(bench.samples["wall_s"])
        spread = f", pass wall_s {walls[0]:.4g} to {walls[-1]:.4g} s" if walls else ""
        print(f"# {bench.workload.name}: {n} runs, {len(bench.failures)} failed "
              f"(failed_ratio {len(bench.failures) / n:.4f}), {len(walls)} complete passes, "
              f"{len(bench.samples['setup_s'])} set-up probes{spread}")
        for failure in bench.failures:
            print(f"#   FAILED {failure}")
        for key, unit in units.items():
            if key in values:
                print(f"{prefix}{key} {values[key]:.6g} {unit}")
                metrics[f"{prefix}{key}"] = {"value": values[key], "unit": unit}
    attempted = sum(b.attempted for b in benches)
    failed = sum(len(b.failures) for b in benches)
    complete = all(f"{p}{k}" in metrics for k in units
                   for p in ([f"{n}." for n in names] if args.workload == "all" else [""]))
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
