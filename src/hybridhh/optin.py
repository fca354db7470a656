"""Trusted-curator side: head-list construction and probability estimation.

Head-list admission adds Laplace noise to each distinct record's count
and keeps records whose noisy count clears a threshold calibrated to
the privacy budget. Probabilities over the admitted list are then
estimated on held-out opt-in data with the Laplace mechanism, and the
list is trimmed to the M queries with the highest estimated marginal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .core import (
    STAR,
    WILDCARD,
    EstimateVector,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    Stage,
    canonicalize,
)
from .sampling import laplace_samples

# Optional noise override, for tests only (never wired to the CLI).
NoiseFn = Callable[[float, int, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class OptinOutput:
    head_list: HeadList            # Final stage, <= M queries plus wildcard
    estimates: EstimateVector      # p_hat / var_hat over the final list
    b_S: float
    tau: float
    b_T: float


def compute_threshold(params: PrivacyParams) -> tuple[float, float]:
    """Noise scale and admission threshold for head-list creation.

    b_S = 2 m_O / eps; tau = b_S * (ln(exp(eps/2) + m_O - 1) - ln(delta)).
    Requires eps > ln 2 and the resulting tau >= 1; outside that range
    the admission mechanism's privacy guarantee does not hold.
    """
    if not params.epsilon > math.log(2):
        raise ParamError("head-list creation requires epsilon > ln(2)")
    b_s = 2.0 * params.m_O / params.epsilon
    tau = b_s * (math.log(math.exp(params.epsilon / 2.0) + params.m_O - 1) - math.log(params.delta))
    if not tau >= 1.0:
        raise ParamError(f"admission threshold tau = {tau:.4g} < 1")
    return b_s, tau


def create_head_list(
    params: PrivacyParams,
    s_records: Iterable[Record],
    rng: np.random.Generator,
    *,
    _noise_fn: Optional[NoiseFn] = None,
) -> HeadList:
    """Noisy-threshold admission over the records held by partition S.

    Each distinct record gets one independent Lap(b_S) draw; the record's
    query and url are admitted iff count + noise exceeds tau. The draws
    follow the records' sorted order so the sequence is reproducible.
    Records filed under the star query are never admitted: their mass is
    already wildcard mass.
    """
    b_s, tau = compute_threshold(params)
    counts = Counter(s_records)
    distinct = sorted(counts)
    noise = (_noise_fn or laplace_samples)(b_s, len(distinct), rng).tolist()
    entries: dict[str, list[str]] = {}
    for record, z in zip(distinct, noise):
        if record.query != STAR and counts[record] + z > tau:
            entries.setdefault(record.query, []).append(record.url)
    entries[STAR] = [STAR]
    return HeadList(entries, Stage.INITIAL)


def optin_variance(p_hat: float, n: int, b_t: float) -> float:
    """Unbiased sample variance of a Laplace-mechanism frequency estimate.

    (n/(n-1)) * (p(1-p)/n + 2 (b/n)^2), i.e. the Bernoulli sampling term
    with Bessel's correction plus the Laplace noise term. Noise can push
    the estimate outside [0,1]; the Bernoulli term is evaluated at the
    clamped value so the variance stays non-negative while the estimate
    itself is left unbiased.
    """
    if n < 2:
        raise ParamError("variance estimate needs n >= 2")
    if not b_t > 0:
        raise ParamError("noise scale must be positive")
    p_eff = min(max(p_hat, 0.0), 1.0)
    return (n / (n - 1.0)) * (p_eff * (1.0 - p_eff) / n + 2.0 * (b_t / n) ** 2)


def estimate_optin_probabilities(
    params: PrivacyParams,
    t_records: Iterable[Record],
    hl_initial: HeadList,
    rng: np.random.Generator,
    *,
    _noise_fn: Optional[NoiseFn] = None,
) -> OptinOutput:
    """Laplace-mechanism estimates over the initial head list, trimmed to M.

    Records outside the initial list are collapsed onto the wildcard
    before counting. The M queries with the highest estimated marginal
    are retained (ties broken lexicographically); trimmed records'
    probabilities are folded into the wildcard entry and its variance is
    recomputed with the same formula. The final list is ordered by
    descending estimated marginal.
    """
    if hl_initial.stage is not Stage.INITIAL:
        raise ParamError("expected an initial-stage head list")
    b_s, tau = compute_threshold(params)
    b_t = 2.0 * params.m_O / params.epsilon

    canon = [canonicalize(r, hl_initial) for r in t_records]
    n = len(canon)
    if n < 2:
        raise ParamError("need at least 2 records in partition T")
    counts = Counter(canon)

    records = list(hl_initial.records())
    noise = (_noise_fn or laplace_samples)(b_t, len(records), rng).tolist()
    p_hat = {r: (counts[r] + z) / n for r, z in zip(records, noise)}

    # Trim to the top-M queries by estimated marginal probability. The
    # wildcard is always retained on top of the M regular queries, and
    # the trimmed queries' mass joins it in list order.
    regular = [q for q in hl_initial.queries if q != STAR]
    marginals = {q: sum(p_hat[Record(q, u)] for u in hl_initial.urls(q)) for q in regular}
    ranked = sorted(regular, key=lambda q: (-marginals[q], q))
    trimmed = set(ranked[params.M:])
    star_mass = p_hat[WILDCARD]
    for q in regular:
        if q in trimmed:
            star_mass += marginals[q]
    marginals[STAR] = p_hat[WILDCARD] = star_mass

    order = sorted(ranked[: params.M] + [STAR], key=lambda q: (-marginals[q], q))
    hl_final = HeadList({q: hl_initial.urls(q) for q in order}, Stage.FINAL)
    record_probs = {r: p_hat[r] for r in hl_final.records()}
    estimates = EstimateVector(
        record_probs=record_probs,
        # Reusing the record-level variance formula for the accumulated
        # wildcard mass is known to be statistically loose; kept for
        # faithfulness to the estimation procedure.
        record_vars={r: optin_variance(p, n, b_t) for r, p in record_probs.items()},
        query_probs={q: marginals[q] for q in order},
        query_vars={q: optin_variance(marginals[q], n, b_t) for q in order},
        sample_size=n,
    )
    return OptinOutput(hl_final, estimates, b_S=b_s, tau=tau, b_T=b_t)
