"""Local-model side: the per-client two-stage randomizer, its aggregate
simulation over a client population, and server-side aggregation with
denoising.

A client first decides whether to report its true query (probability t)
or a uniformly random other query; if truthful at the query stage, it
then decides whether to report its true url (probability t_q) or a
uniformly random other url from the query's list. The server knows the
channel exactly and inverts it to recover unbiased probability
estimates from the aggregated report fractions. The simulation takes
the clients' records already folded onto the list's slots by
`core.record_slots`; the server takes report counts keyed by record.
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
    estimate_variance,
)

# Guard against near-singular denoising denominators (t ~ 1/k).
_GAP_EPS = 1e-12


class DegenerateChannelError(ParamError):
    """Raised when the randomizer carries no information to invert."""


def _truth_probability(e_eps, delta, k: int) -> tuple:
    """A stage's truth probability t over k choices given e^eps, and 1 - t without subtracting
    from 1, in the arguments' arithmetic: floats for the run, mpmath numbers for the oracle."""
    if k == 1:  # e_eps + k - 1 is formed as (e_eps + 1) - 1, which rounds: t would miss 1
        return 1.0, 0.0
    spread = e_eps + k - 1
    return (e_eps + (delta / 2.0) * (k - 1)) / spread, (k - 1) * (1 - delta / 2.0) / spread


@dataclass(frozen=True)
class ReportModel:
    """The randomizer's parameters; fully determines its output law."""

    k: int                               # number of queries in the augmented list
    t: float                             # truthful-query probability
    k_q: Mapping[str, int]               # per-query url-list length
    t_q: Mapping[str, float]             # per-query truthful-url probability
    budgets: tuple[float, float, float, float]  # (eps_Q, delta_Q, eps_U, delta_U)


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
    # f_C splits the per-user budget between the query and url stages.
    eps_q, delta_q = params.f_C * params.epsilon, params.f_C * params.delta
    eps_u, delta_u = params.epsilon - eps_q, params.delta - delta_q
    t, _ = _truth_probability(math.exp(eps_q), delta_q, k)
    if t <= 1.0 / k + _GAP_EPS:
        raise DegenerateChannelError("query randomizer is uninformative (t ~ 1/k)")
    k_q = dict(zip(hl.entries, map(len, hl.entries.values())))
    # The url stage's truth probability depends on the list length alone.
    e_u = math.exp(eps_u)
    by_width = {kq: _truth_probability(e_u, delta_u, kq)[0] for kq in set(k_q.values())}
    t_q = {q: by_width[kq] for q, kq in k_q.items()}
    for q, kq in k_q.items():
        if kq >= 2 and t_q[q] <= 1.0 / kq + _GAP_EPS:
            raise DegenerateChannelError(f"url randomizer for {q!r} is uninformative")
    return ReportModel(k=k, t=t, k_q=k_q, t_q=t_q, budgets=(eps_q, delta_q, eps_u, delta_u))


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


def simulate_reports(
    held: np.ndarray,
    model: ReportModel,
    hl: HeadList,
    rng: np.random.Generator,
) -> dict[Record, int]:
    """Report counts of a whole client population, drawn in aggregate,
    keyed by the records of `hl` that got a report, in `hl.records()` order.

    `held[i]` clients hold the i-th record of `hl.records()`, their own
    record once canonicalized as in `local_privatize` (see
    `core.record_slots`). The server sees only how many reports land on each
    record, and the n clients holding r report independently, so their
    counts are one multinomial draw of size n from r's row of the
    channel. Each stage is drawn in whole-array calls over the held
    slots: Binomial(n, t) keep the query, Binomial(that, t_q) of those
    the url, and the rest spread uniformly over the other urls, one
    multinomial per url-list length. Each other-query report draws one
    of the k-1 other queries, all in one `integers` call, and what lands
    on a query spreads uniformly over its urls, one multinomial per
    url-list length. "Other" draws shift an index past the true entry;
    unheld slots draw nothing. The result has the law of summing one
    `local_privatize` call per client.
    """
    widths, starts = np.bincount(hl.of_query), hl.starts
    slot = np.flatnonzero(held)
    qi = hl.of_query[slot]
    ui = slot - starts[qi]       # the slot's url within its query's list
    n = held[slot]
    n_q = rng.binomial(n, model.t)
    n_u = rng.binomial(n_q, np.array([model.t_q[q] for q in hl.queries])[qi])
    reports = np.zeros(hl.num_records(), dtype=np.int64)
    reports[slot] = n_u

    spill = n_q - n_u
    for w in sorted(set(widths[qi][spill > 0].tolist())):
        rows = np.flatnonzero((widths[qi] == w) & (spill > 0))
        j = np.arange(w - 1)
        moved = rng.multinomial(spill[rows], np.full(w - 1, 1.0 / (w - 1)))
        np.add.at(reports, starts[qi[rows], None] + j + (j >= ui[rows, None]), moved)

    # One entry per other-query report; int32 draws the stream as int64 does.
    dest = rng.integers(model.k - 1, size=int((n - n_q).sum()), dtype=np.int32)
    dest += dest >= np.repeat(qi.astype(np.int32), n - n_q)
    landed = np.bincount(dest, minlength=model.k)
    for w in sorted(set(widths[landed > 0].tolist())):
        got = np.flatnonzero((widths == w) & (landed > 0))
        moved = rng.multinomial(landed[got], np.full(w, 1.0 / w))
        reports[starts[got, None] + np.arange(w)] += moved

    got = np.flatnonzero(reports)
    return dict(zip(map(hl.records().__getitem__, got.tolist()), reports[got].tolist()))


def _affine_form(t: float, k: int, t_q: float, k_q: int) -> tuple[float, ...]:
    """The channel inverse for a query listing k_q urls, as affine forms in
    the report fractions: p_q = (r_q - background) / g_q and
    p_qu = a * r_qu + b_p * p_q + c_p. Returns (background, g_q, a, b_p, c_p).

    A single-url query carries no information at the url stage, so its
    record estimate is its query estimate: (a, b_p, c_p) = (0, 1, 0).
    """
    if k < 2:
        raise ParamError("denoising needs k >= 2")
    background = (1.0 - t) / (k - 1)
    g_q = t - background
    if abs(g_q) <= _GAP_EPS:
        raise DegenerateChannelError("uninformative randomizer: t = 1/k")
    if k_q == 1:
        return background, g_q, 0.0, 1.0, 0.0
    g_u = t_q - (1.0 - t_q) / (k_q - 1)
    if abs(g_u) <= _GAP_EPS:
        raise DegenerateChannelError("uninformative url randomizer: t_q = 1/k_q")
    a = 1.0 / (t * g_u)
    spill = background / k_q    # other-query reports landing on each url of q
    return background, g_q, a, a * (spill - t * (1.0 - t_q) / (k_q - 1)), -a * spill


def denoise_query(r_hat_q: float, t: float, k: int) -> float:
    """Invert the query-stage channel: p = (r - (1-t)/(k-1)) / (t - (1-t)/(k-1))."""
    # The query stage does not depend on the url stage; any list length reads it.
    background, g_q, *_ = _affine_form(t, k, 1.0, 1)
    return (r_hat_q - background) / g_q


def denoise_record(
    r_hat_qu: float,
    p_hat_q: float,
    t: float,
    t_q: float,
    k: int,
    k_q: int,
) -> float:
    """Invert the record-level channel given the query-level estimate."""
    _, _, a, b_p, c_p = _affine_form(t, k, t_q, k_q)
    return a * r_hat_qu + b_p * p_hat_q + c_p


def client_estimates_from_counts(
    counts: Mapping[Record, int],
    n: int,
    model: ReportModel,
    hl: HeadList,
) -> EstimateVector:
    """Denoised estimates from aggregated report counts, with their
    Bessel-corrected sample variances.

    Counts are keyed by members of the client-augmented head list, as
    `simulate_reports` returns them, and folded onto its slots by name.
    Each variance is `core.estimate_variance`'s: a query's estimate is
    1/g_q per report on q, and with b = b_p / g_q a record's is a + b per
    report on (q, u), b per report on q's other urls and 0 elsewhere.
    """
    if hl.stage is not Stage.CLIENT_AUGMENTED:
        raise ParamError("client estimation requires a client-augmented head list")
    if n < 2:
        raise ParamError("need at least 2 client reports")
    at = hl.slots(counts)
    if np.any(at < 0):
        raise ParamError(f"report {list(counts)[np.argmin(at)]} is not in the head list")
    c = np.bincount(at, weights=list(counts.values()), minlength=hl.num_records())

    queries = hl.queries
    shapes = list(zip(map(model.t_q.__getitem__, queries), map(model.k_q.__getitem__, queries)))
    forms = {shape: _affine_form(model.t, model.k, *shape) for shape in dict.fromkeys(shapes)}
    background, g_q, a, b_p, c_p = np.array(list(map(forms.__getitem__, shapes))).T
    of_query = hl.of_query
    c_q = np.bincount(of_query, weights=c, minlength=len(queries))
    r_q, off_q = c_q / n, (n - c_q) / n
    p_q = (r_q - background) / g_q
    var_q = estimate_variance([1.0 / g_q], [r_q, off_q], n)

    a, b_p, c_p = a[of_query], b_p[of_query], c_p[of_query]
    r_qu, r_other, off = c / n, (c_q[of_query] - c) / n, off_q[of_query]
    p = a * r_qu + b_p * p_q[of_query] + c_p
    var = estimate_variance([a, b_p / g_q[of_query]], [r_qu, r_other, off], n)
    return EstimateVector(hl, p, var, p_q, var_q)
