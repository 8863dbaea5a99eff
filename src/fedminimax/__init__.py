"""Federated minimax optimization lab.

Normalized and orthonormalized momentum methods for federated saddle-point
problems under heavy-tailed gradient noise, with synthetic problems whose
convergence metrics are exact, statistically validated noise models, and a
runtime verifier for the protocol's per-round guarantees.
"""

from .core import (
    ALGORITHMS,
    HyperParams,
    NoiseModel,
    Shape,
    SmoothnessInfo,
    theorem1_schedule,
    theorem2_schedule,
)
from .fedopt import (
    RoundRecord,
    RunSpec,
    RunTrace,
    ServerState,
    clip_step,
    local_momentum,
    muon_step,
    normalized_step,
    run,
    run_stack,
    trace_from_csv,
    trace_to_csv,
)
from .linalg import newton_schulz_polar, orthonormality_defect, svd_polar
from .metrics import InvariantReport, auc_score, phi_value_and_grad, verify_invariants
from .noise import derive_stream, empirical_moment, sample
from .problems import (
    Dataset,
    MinimaxProblem,
    gen_imbalanced_data,
    make_auc_problem,
    make_saddle_problem,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Dataset",
    "HyperParams",
    "InvariantReport",
    "MinimaxProblem",
    "NoiseModel",
    "RoundRecord",
    "RunSpec",
    "RunTrace",
    "ServerState",
    "Shape",
    "SmoothnessInfo",
    "auc_score",
    "clip_step",
    "derive_stream",
    "empirical_moment",
    "gen_imbalanced_data",
    "local_momentum",
    "make_auc_problem",
    "make_saddle_problem",
    "muon_step",
    "newton_schulz_polar",
    "normalized_step",
    "orthonormality_defect",
    "phi_value_and_grad",
    "run",
    "run_stack",
    "sample",
    "svd_polar",
    "theorem1_schedule",
    "theorem2_schedule",
    "trace_from_csv",
    "trace_to_csv",
    "verify_invariants",
]
