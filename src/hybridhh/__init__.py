"""Hybrid-model differentially private heavy-hitter estimation.

Combines a trusted-curator pipeline over a small opt-in population
(noisy-threshold head-list construction plus Laplace-mechanism
probability estimation) with a local-model pipeline over the remaining
clients (two-stage randomized response, denoised server-side), and
fuses the two unbiased estimates with inverse-variance weights.
"""

from .core import (
    STAR,
    WILDCARD,
    EstimateVector,
    HeadList,
    PrivacyParams,
    Record,
    Stage,
    canonicalize,
)
from .blend import BlendedOutput, blend_probabilities, blend_weight, project_to_simplex
from .client import (
    ReportModel,
    build_report_model,
    denoise_query,
    denoise_record,
    local_privatize,
)
from .optin import (
    OptinOutput,
    compute_threshold,
    create_head_list,
    estimate_optin_probabilities,
    optin_variance,
)

__all__ = [
    "STAR",
    "WILDCARD",
    "BlendedOutput",
    "EstimateVector",
    "HeadList",
    "OptinOutput",
    "PrivacyParams",
    "Record",
    "ReportModel",
    "Stage",
    "blend_probabilities",
    "blend_weight",
    "build_report_model",
    "canonicalize",
    "compute_threshold",
    "create_head_list",
    "denoise_query",
    "denoise_record",
    "estimate_optin_probabilities",
    "local_privatize",
    "optin_variance",
    "project_to_simplex",
]

__version__ = "0.1.0"
