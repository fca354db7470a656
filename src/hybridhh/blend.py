"""Variance-optimal fusion of the opt-in and client estimates.

Each record's final probability is the convex combination of the two
unbiased estimates weighted inversely to their sample variances, which
minimizes the variance of the combination. A pipeline run always
projects the fused vector onto the probability simplex; `project=False`
keeps the raw combination, which acceptance criterion 5 measures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import EstimateVector, HeadList, ParamError, Record


@dataclass(frozen=True)
class BlendedOutput:
    probs: Mapping[Record, float]
    weights: Mapping[Record, float]   # weight on the opt-in estimate
    projected: bool

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))
        object.__setattr__(self, "weights", dict(self.weights))


def blend_weight(var_optin: float, var_client: float) -> float:
    """Weight on the opt-in estimate: var_C / (var_O + var_C)."""
    if var_optin < 0 or var_client < 0:
        raise ParamError("variances must be non-negative")
    total = var_optin + var_client
    if total == 0:
        warnings.warn("both variance estimates are zero; splitting the weight evenly")
        return 0.5
    return var_client / total


def blend_probabilities(
    optin: EstimateVector,
    client: EstimateVector,
    hl: HeadList,
    project: bool = True,
) -> BlendedOutput:
    """Per-record inverse-variance blend over the final head list.

    The client vector may carry extra star-url entries from head-list
    augmentation; blending covers exactly the opt-in keys, which must
    all be present on the client side.
    """
    missing = [r for r in optin.record_probs if r not in client.record_probs]
    if missing:
        raise ParamError(f"client estimates missing records: {missing[:3]}")
    probs: dict[Record, float] = {}
    weights: dict[Record, float] = {}
    for rec, p_o in optin.record_probs.items():
        w = blend_weight(optin.record_vars[rec], client.record_vars[rec])
        weights[rec] = w
        probs[rec] = w * p_o + (1.0 - w) * client.record_probs[rec]
    if project:
        keys = list(probs)
        projected = project_to_simplex(np.array([probs[r] for r in keys]))
        probs = {r: float(p) for r, p in zip(keys, projected)}
    return BlendedOutput(probs=probs, weights=weights, projected=project)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1}.

    Sort-based thresholding: find the largest prefix whose running
    average admits a positive shift, subtract that threshold, clamp.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ParamError("projection requires finite entries")
    n = v.size
    s = np.sort(v)[::-1]
    cumsum = np.cumsum(s)
    rho = np.nonzero(s + (1.0 - cumsum) / np.arange(1, n + 1) > 0)[0][-1]
    theta = (cumsum[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)
