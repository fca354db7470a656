"""Local-model side: the per-client two-stage randomizer, its aggregate
simulation over a client population, and server-side aggregation with
denoising.

A client first decides whether to report its true query (probability t)
or a uniformly random other query; if truthful at the query stage, it
then decides whether to report its true url (probability t_q) or a
uniformly random other url from the query's list. The server knows the
channel exactly and inverts it to recover unbiased probability
estimates from the aggregated report fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
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
    """Budgets and truth probabilities for a client-augmented head list.

    The channel needs a regular query besides the star query (k >= 2), and
    each stage's truth probability must beat a uniform guess; every
    consumer of the model relies on both.
    """
    if hl.stage is not Stage.CLIENT_AUGMENTED:
        raise ParamError("report model requires a client-augmented head list")
    k = hl.k
    if k < 2:
        raise ParamError("report model needs a regular query besides the star query")
    t = _truth_probability(params.eps_q, params.delta_q, k)
    if t <= 1.0 / k + _GAP_EPS:
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


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def simulate_reports(
    true_counts: Mapping[Record, int],
    model: ReportModel,
    hl: HeadList,
    rng: np.random.Generator,
) -> dict[Record, int]:
    """Report counts of a whole client population, drawn in aggregate.

    `true_counts[r]` clients hold record r, canonicalized first as in
    `local_privatize`. The server sees only how many reports land on each
    record, and the n clients holding r report independently, so their
    counts are one multinomial draw of size n from r's row of the
    channel; it is drawn stage by stage. Per row: Binomial(n, t) keep the
    query, Binomial(that, t_q) of those keep the url, and the rest spread
    uniformly over the other urls. The other-query reports are pooled per
    true query, spread uniformly over the k-1 other queries, and what
    lands on a query spreads uniformly over its urls. The result has the
    law of summing one `local_privatize` call per client.
    """
    records = list(hl.records())
    index = {r: i for i, r in enumerate(records)}
    held = np.zeros(len(records), dtype=np.int64)
    for rec, n in true_counts.items():
        held[index[canonicalize(rec, hl)]] += n

    queries = hl.queries
    starts = np.cumsum([0] + [model.k_q[q] for q in queries]).tolist()
    reports = np.zeros_like(held)
    other_query = np.zeros(model.k, dtype=np.int64)   # by true-query index
    for qi, q in enumerate(queries):
        start, kq = starts[qi], model.k_q[q]
        for ui in np.flatnonzero(held[start:start + kq]).tolist():
            n = int(held[start + ui])
            n_q = int(rng.binomial(n, model.t))
            n_u = int(rng.binomial(n_q, model.t_q[q]))
            other_query[qi] += n - n_q
            reports[start + ui] += n_u
            if n_q > n_u:
                j = np.arange(kq - 1)
                reports[start + j + (j >= ui)] += rng.multinomial(n_q - n_u, _uniform(kq - 1))

    landed = np.zeros(model.k, dtype=np.int64)
    j = np.arange(model.k - 1)
    for qi in np.flatnonzero(other_query).tolist():
        landed[j + (j >= qi)] += rng.multinomial(int(other_query[qi]), _uniform(model.k - 1))
    for qi in np.flatnonzero(landed).tolist():
        start, kq = starts[qi], model.k_q[queries[qi]]
        reports[start:start + kq] += rng.multinomial(int(landed[qi]), _uniform(kq))

    return {r: c for r, c in zip(records, reports.tolist()) if c}


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
    if k_q == 1:
        # The record estimate is the query estimate (see denoise_record).
        return var_hat_q
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

    query_probs: dict[str, float] = {}
    query_vars: dict[str, float] = {}
    record_probs: dict[Record, float] = {}
    record_vars: dict[Record, float] = {}
    t, k = model.t, model.k
    for q in hl.queries:
        kq, tq = model.k_q[q], model.t_q[q]
        reported = [counts.get(Record(q, u), 0) for u in hl.urls(q)]
        r_hat_q = sum(reported) / n
        p_hat_q = query_probs[q] = denoise_query(r_hat_q, t, k)
        var_hat_q = query_vars[q] = query_variance(r_hat_q, n, t, k)
        for u, c in zip(hl.urls(q), reported):
            rec = Record(q, u)
            record_probs[rec] = denoise_record(c / n, p_hat_q, t, tq, k, kq)
            record_vars[rec] = record_variance(c / n, var_hat_q, n, t, tq, k, kq)
    return EstimateVector(record_probs, record_vars, query_probs, query_vars, n)
