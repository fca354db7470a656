"""Local-model side: the per-client two-stage randomizer and server-side
aggregation with denoising.

A client first decides whether to report its true query (probability t)
or a uniformly random other query; if truthful at the query stage, it
then decides whether to report its true url (probability t_q) or a
uniformly random other url from the query's list. The server knows the
channel exactly and inverts it to recover unbiased probability
estimates from the aggregated report fractions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    WILDCARD,
    EstimateVector,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    Stage,
    canonicalize,
)

# Guard against near-singular denoising denominators (t ~ 1/k).
_GAP_EPS = 1e-12


class DegenerateChannelError(ValueError):
    """Raised when the randomizer carries no information to invert."""


def _truth_probability(eps: float, delta: float, k: int) -> float:
    if k == 1:
        return 1.0
    e = math.exp(eps)
    return (e + (delta / 2.0) * (k - 1)) / (e + k - 1)


@dataclass(frozen=True)
class ReportModel:
    """The randomizer's parameters; fully determines its output law."""

    k: int                               # number of queries in the augmented list
    t: float                             # truthful-query probability
    k_q: Mapping[str, int]               # per-query url-list length
    t_q: Mapping[str, float]             # per-query truthful-url probability
    budgets: tuple[float, float, float, float]  # (eps_Q, delta_Q, eps_U, delta_U)

    def __post_init__(self):
        object.__setattr__(self, "k_q", dict(self.k_q))
        object.__setattr__(self, "t_q", dict(self.t_q))


def build_report_model(params: PrivacyParams, hl: HeadList) -> ReportModel:
    """Budgets and truth probabilities for a client-augmented head list."""
    if hl.stage is not Stage.CLIENT_AUGMENTED:
        raise ParamError("report model requires a client-augmented head list")
    k = hl.k
    t = _truth_probability(params.eps_q, params.delta_q, k)
    if k >= 2 and t <= 1.0 / k + _GAP_EPS:
        raise DegenerateChannelError("query randomizer is uninformative (t ~ 1/k)")
    k_q: dict[str, int] = {}
    t_q: dict[str, float] = {}
    for q in hl.queries:
        kq = hl.k_q(q)
        tq = _truth_probability(params.eps_u, params.delta_u, kq)
        if kq >= 2 and tq <= 1.0 / kq + _GAP_EPS:
            raise DegenerateChannelError(f"url randomizer for {q!r} is uninformative")
        k_q[q] = kq
        t_q[q] = tq
    budgets = (params.eps_q, params.delta_q, params.eps_u, params.delta_u)
    return ReportModel(k=k, t=t, k_q=k_q, t_q=t_q, budgets=budgets)


def local_privatize(
    record: Record,
    model: ReportModel,
    hl: HeadList,
    rng: np.random.Generator,
) -> Record:
    """One client report: two-stage randomized response over the head list.

    Branch probabilities: other-query (1-t) with uniform (q', u') over
    q' != q and u' in hl[q']; same-query-other-url t*(1-t_q) uniform over
    u' != u; truthful otherwise. "Other" draws take an index j below the
    list length minus one and shift it past the true entry's index.
    """
    q, u = canonicalize(record, hl)
    if model.k == 1:
        return WILDCARD
    if rng.random() < 1.0 - model.t:
        queries = hl.queries
        j = int(rng.integers(model.k - 1))
        q_prime = queries[j + (j >= queries.index(q))]
        urls = hl.urls(q_prime)
        return Record(q_prime, urls[int(rng.integers(len(urls)))])
    kq = model.k_q[q]
    urls = hl.urls(q)
    if kq == 1:
        return Record(q, urls[0])
    if rng.random() < 1.0 - model.t_q[q]:
        j = int(rng.integers(kq - 1))
        return Record(q, urls[j + (j >= urls.index(u))])
    return Record(q, u)


def denoise_query(r_hat_q: float, t: float, k: int) -> float:
    """Invert the query-stage channel: p = (r - (1-t)/(k-1)) / (t - (1-t)/(k-1))."""
    if k < 2:
        raise ParamError("query denoising needs k >= 2")
    background = (1.0 - t) / (k - 1)
    gap = t - background
    if abs(gap) <= _GAP_EPS:
        raise DegenerateChannelError("uninformative randomizer: t = 1/k")
    return (r_hat_q - background) / gap


def denoise_record(
    r_hat_qu: float,
    p_hat_q: float,
    t: float,
    t_q: float,
    k: int,
    k_q: int,
) -> float:
    """Invert the record-level channel given the query-level estimate."""
    if k < 2:
        raise ParamError("record denoising needs k >= 2")
    if k_q == 1:
        # A single-url query carries no information at the url stage; the
        # record probability is the query probability.
        return p_hat_q
    gap = t_q - (1.0 - t_q) / (k_q - 1)
    if abs(gap) <= _GAP_EPS:
        raise DegenerateChannelError("uninformative url randomizer: t_q = 1/k_q")
    numer = (
        r_hat_qu
        - (1.0 - t_q) * t * p_hat_q / (k_q - 1)
        - (1.0 - t) * (1.0 - p_hat_q) / ((k - 1) * k_q)
    )
    return numer / (t * gap)


def query_variance(r_hat_q: float, n: int, t: float, k: int) -> float:
    """Sample variance of the denoised query estimate (Bessel-corrected)."""
    if n < 2:
        raise ParamError("variance estimate needs n >= 2")
    gap = t - (1.0 - t) / (k - 1)
    return (1.0 / gap) ** 2 * r_hat_q * (1.0 - r_hat_q) / (n - 1)


def record_variance(
    r_hat_qu: float,
    var_hat_q: float,
    n: int,
    t: float,
    t_q: float,
    k: int,
    k_q: int,
) -> float:
    """Sample variance of the denoised record estimate.

    Combines the report-fraction sampling variance, the propagated
    query-estimate variance, and their (negative) covariance term, all
    Bessel-corrected. The covariance term can overshoot for extreme
    report fractions, so the result is clamped at zero.
    """
    if n < 2:
        raise ParamError("variance estimate needs n >= 2")
    gap = t_q - (1.0 - t_q) / (k_q - 1)
    coef = (1.0 - t) / ((k - 1) * k_q) - (t - t * t_q) / (k_q - 1)
    inner = (
        r_hat_qu * (1.0 - r_hat_qu) / (n - 1)
        + coef**2 * var_hat_q
        + (2.0 / (n - 1)) * coef * ((k - 2 + t) / (k * t - 1)) * r_hat_qu
    )
    return max(0.0, inner / (t**2 * gap**2))


def client_estimates_from_counts(
    counts: Mapping[Record, int],
    n: int,
    model: ReportModel,
    hl: HeadList,
) -> EstimateVector:
    """Denoised estimates from aggregated report counts.

    Counts must be keyed by members of the client-augmented head list.
    """
    if hl.stage is not Stage.CLIENT_AUGMENTED:
        raise ParamError("client estimation requires a client-augmented head list")
    if n < 2:
        raise ParamError("need at least 2 client reports")
    for r in counts:
        if r not in hl:
            raise ParamError(f"report {r} is not in the head list")

    query_counts: Counter[str] = Counter()
    for r, c in counts.items():
        query_counts[r.query] += c

    query_probs: dict[str, float] = {}
    query_vars: dict[str, float] = {}
    for q in hl.queries:
        r_hat = query_counts[q] / n
        if model.k == 1:
            query_probs[q] = 1.0
            query_vars[q] = 0.0
        else:
            query_probs[q] = denoise_query(r_hat, model.t, model.k)
            query_vars[q] = query_variance(r_hat, n, model.t, model.k)

    record_probs: dict[Record, float] = {}
    record_vars: dict[Record, float] = {}
    for q in hl.queries:
        kq = model.k_q[q]
        tq = model.t_q[q]
        for u in hl.urls(q):
            rec = Record(q, u)
            r_hat = counts.get(rec, 0) / n
            if model.k == 1:
                record_probs[rec] = 1.0
                record_vars[rec] = 0.0
            elif kq == 1:
                record_probs[rec] = query_probs[q]
                record_vars[rec] = query_vars[q]
            else:
                record_probs[rec] = denoise_record(
                    r_hat, query_probs[q], model.t, tq, model.k, kq
                )
                record_vars[rec] = record_variance(
                    r_hat, query_vars[q], n, model.t, tq, model.k, kq
                )
    return EstimateVector(record_probs, record_vars, query_probs, query_vars, n)
