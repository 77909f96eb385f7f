"""Classical simulators for stabilizer circuits with magic-state inputs.

Subpackages cover the stabilizer engine (stab_core), a dense reference
(dense_oracle), channel representations (channels), the dyadic-frame Born
estimator (dyadic_sim), the stabilizer-rank sampler (rank_sim), the
constrained-path estimator (constrained_sim), magic monotones (monotones),
distillation bounds (distill) and the command line front end (cli).
"""

__version__ = "0.1.0"

from .stab_core import (  # noqa: F401
    PauliOp,
    StabProjector,
    StabState,
    apply_circuit,
    apply_gate,
    basis_state,
    inner_product,
    plus_state,
    project_pauli,
    project_stab,
    tensor,
    zero_state,
)
from .channels import (  # noqa: F401
    DyadicDecomposition,
    SimulableChannel,
    builtin_channel,
    channel_from_json,
    dyadic_decompose_product,
)
from .dyadic_sim import estimate_born, required_samples  # noqa: F401
from .monotones import (  # noqa: F401
    BlochState,
    decompose_1q_state,
    extent_pure_1q,
    lambda_plus_1q,
    robustness_lp,
)
from .rank_sim import (  # noqa: F401
    MixedInput,
    SparseDecomposition,
    fast_norm,
    mixed_input_product,
    sample_bitstrings,
    sparsify,
)
from .constrained_sim import (  # noqa: F401
    ConstrainedReport,
    RobustnessPair,
    constrained_estimate,
    interval_from_estimate,
    optimal_pair,
)
from .distill import (  # noqa: F401
    DistillQuery,
    asymptotic_rate_bound,
    copies_lower_bound,
)
