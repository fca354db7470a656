"""Variance-optimal fusion of the opt-in and client estimates.

Each record's final probability is the convex combination of the two
unbiased estimates weighted inversely to their sample variances, which
minimizes the variance of the combination, as array arithmetic over
the final head list's slots. A pipeline run always projects the fused
vector onto the probability simplex; `project=False` keeps the raw
combination, which acceptance criterion 5 measures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import EstimateVector, HeadList, ParamError, keyed


@dataclass(frozen=True, eq=False)
class BlendedOutput:
    head_list: HeadList
    p: np.ndarray   # in head_list.records() order, as are w and client_slots
    w: np.ndarray   # weight on the opt-in estimate
    client_slots: np.ndarray   # each record's slot in the client estimates read

    probs = cached_property(lambda self: keyed(self.head_list.records(), self.p))


def blend_weight(
    var_optin: float | np.ndarray, var_client: float | np.ndarray
) -> float | np.ndarray:
    """Weight on the opt-in estimate, var_C / (var_O + var_C), elementwise; 0.5 if both are 0."""
    if np.any(np.minimum(var_optin, var_client) < 0):
        raise ParamError("variances must be non-negative")
    total = np.add(var_optin, var_client)
    if np.any(total == 0):
        warnings.warn("both variance estimates are zero; splitting the weight evenly")
    w = np.divide(var_client, total, out=np.full(np.shape(total), 0.5), where=total != 0)
    return w if w.ndim else float(w)


def blend_probabilities(
    optin: EstimateVector,
    client: EstimateVector,
    hl: HeadList,
    project: bool = True,
) -> BlendedOutput:
    """Per-record inverse-variance blend over the final head list.

    The opt-in vector is over `hl`; the client vector may carry extra
    star-url entries from head-list augmentation, and is read at the
    slots of `hl`'s records, which it must all hold.
    """
    if optin.head_list != hl:
        raise ParamError("opt-in estimates are not over the given head list")
    records = hl.records()
    at = client.head_list.slots(records)
    if np.any(at < 0):
        raise ParamError(f"client estimates missing record {records[np.argmin(at)]}")
    w = blend_weight(optin.var, client.var[at])
    p = w * optin.p + (1.0 - w) * client.p[at]
    return BlendedOutput(hl, project_to_simplex(p) if project else p, w, at)


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
