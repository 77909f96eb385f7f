"""Run one magicsim CLI command with a span around every call into each layer.

Usage: python3 perfbench/tracer.py SPANS.npz RUN_ID <magicsim arguments...>

The public functions named in TARGETS are wrapped by rebinding every name
that resolves to them: module attributes reached as ``sc.inner_product``, and
names imported with ``from ._util import sample_rng``.  Spans (function,
start, end, parent span, run id) stay in memory and are written to SPANS.npz
when the command returns, together with the values in FACTS taken from the
traced functions' results.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

TARGETS = (
    "cli.main",
    "_util.sample_rng",
    "_util.run_chunked",
    "dyadic_sim.estimate_born",
    "stab_core.apply_circuit",
    "stab_core.project_stab",
    "stab_core.project_pauli",
    "stab_core.inner_product",
    "stab_core.tensor",
    "stab_core.zeroing_ops",
    "stab_core.replay_ops",
    "stab_core.equatorial_overlap",
    "channels.dyadic_decompose_product",
    "channels.DyadicDecomposition.dense",
    "constrained_sim.optimal_pair",
    "constrained_sim.constrained_estimate",
    "rank_sim.mixed_input_product",
    "rank_sim.sample_bitstrings",
    "rank_sim.fast_norm",
    "dense_oracle.expand",
    "monotones.enumerate_stabilizer_states",
    "monotones.robustness_lp",
    "_simplex.solve_lp",
)

FACTS = {
    "dyadic_sim.estimate_born": lambda r: {"samples": r.M, "aborts": r.aborted},
    "channels.dyadic_decompose_product": lambda r: {"terms": len(r.terms)},
    "constrained_sim.optimal_pair": lambda r: {"sigma_terms": len(r.sigma.terms)},
    "rank_sim.sample_bitstrings": lambda r: {"k_sum": int(r[1].ks.sum()), "strings": len(r[1].ks)},
    "monotones.robustness_lp": lambda r: {
        "duality_gap": float(r[2]["duality_gap"]),
        "feasibility_defect": float(r[2]["feasibility_defect"]),
    },
}


class Recorder:
    """Span store shared by the wrappers of one traced process."""

    def __init__(self):
        self.fn: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.facts: dict[str, list] = {}

    def wrap(self, fn_id: int, name: str, fn):
        extract = FACTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.fn)
            self.fn.append(fn_id)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if extract is not None:
                self.facts.setdefault(name, []).append(extract(result))
            return result

        return functools.update_wrapper(traced, fn)

    def save(self, path: str, run_id: int) -> None:
        np.savez(
            path,
            fn=np.asarray(self.fn, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int32),
            run=np.int32(run_id),
            names=np.asarray(TARGETS),
            facts=np.asarray(json.dumps(self.facts)),
        )


def install(recorder: Recorder) -> None:
    """Rebind each target, in its owner and wherever a module imported it by name."""
    modules = [importlib.import_module("magicsim")]
    modules += [importlib.import_module(f"magicsim.{m}")
                for m in sorted({t.split(".")[0] for t in TARGETS})]
    for fn_id, name in enumerate(TARGETS):
        module, *path = name.split(".")
        owner = importlib.import_module(f"magicsim.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, path[-1], None)
        if original is None:
            continue
        wrapper = recorder.wrap(fn_id, name, original)
        setattr(owner, path[-1], wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], int(argv[1]), argv[2:]
    from magicsim import cli

    recorder = Recorder()
    install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.save(spans_path, run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
