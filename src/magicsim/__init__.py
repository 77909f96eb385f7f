"""Classical simulators for stabilizer circuits with magic-state inputs.

Subpackages cover Pauli operators (pauli), the stabilizer engine (stab_core),
a dense reference (dense_oracle), channels (channels), the dyadic-frame Born
estimator (dyadic_sim), the stabilizer-rank sampler (rank_sim), the
constrained-path estimator (constrained_sim), magic monotones (monotones),
single-qubit expansions (decompositions), distillation bounds (distill) and the CLI (cli).

Importing the package loads no submodule: each name below is read from its
submodule on first use (PEP 562), so a process loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_OWNER = {name: module for module, names in {
    "pauli": ("PauliOp", "StabProjector"),
    "stab_core": ("StabState", "apply_circuit", "apply_gate", "basis_state", "inner_product",
                  "plus_state", "project_pauli", "project_stab", "tensor", "zero_state"),
    "channels": ("DyadicDecomposition", "SimulableChannel", "builtin_channel",
                 "channel_from_json", "dyadic_decompose_product"),
    "dyadic_sim": ("estimate_born", "required_samples"),
    "monotones": ("BlochState", "lambda_plus_1q", "robustness_lp"),
    "decompositions": ("decompose_1q_state", "extent_pure_1q"),
    "rank_sim": ("MixedInput", "SparseDecomposition", "fast_norm", "mixed_input_product",
                 "sample_bitstrings", "sparsify"),
    "constrained_sim": ("ConstrainedReport", "RobustnessPair", "constrained_estimate",
                        "interval_from_estimate", "optimal_pair"),
    "distill": ("DistillQuery", "asymptotic_rate_bound", "copies_lower_bound"),
}.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
