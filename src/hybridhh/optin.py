"""Trusted-curator side: head-list construction and probability estimation.

Head-list admission adds Laplace noise to each distinct record's count
and keeps records whose noisy count clears a threshold calibrated to
the privacy budget. Probabilities over the admitted list are then
estimated on held-out opt-in data with the Laplace mechanism, its
records counted on the list's slots by `core.record_slots`, and the
list is trimmed to the M queries with the highest estimated marginal.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .core import (
    STAR,
    EstimateVector,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    RecordCounts,
    Stage,
    record_slots,
)
from .sampling import laplace_samples


class OptinOutput(NamedTuple):
    head_list: HeadList            # Final stage, <= M queries plus wildcard
    estimates: EstimateVector      # p_hat / var_hat over the final list


def compute_threshold(params: PrivacyParams) -> tuple[float, float]:
    """The curator's Laplace scale b_S and admission threshold tau.

    b_S = 2 m_O / eps; tau = b_S * (ln(exp(eps/2) + m_O - 1) - ln(delta)).
    Opt-in estimation draws at the same scale: b_T = b_S.
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


def _as_counts(records: Iterable[Record] | Mapping[Record, int]) -> RecordCounts:
    """Records, or counts keyed by record, as counts over a sorted record
    table; a `RecordCounts` is one already."""
    if isinstance(records, RecordCounts):
        return records
    return RecordCounts.of(records if isinstance(records, Mapping) else Counter(records))


def create_head_list(
    params: PrivacyParams,
    s_records: Iterable[Record] | Mapping[Record, int],
    rng: np.random.Generator,
) -> HeadList:
    """Noisy-threshold admission over the records held by partition S,
    given as a record list, as record counts, or as a `RecordCounts` over
    a dataset's record table, as a run passes them.

    Each distinct record gets one independent Lap(b_S) draw; the record's
    query and url are admitted iff count + noise exceeds tau. The draws
    follow the record table's order, which is the records' sorted order,
    so the sequence is reproducible. The threshold is one array
    comparison, and the admitted records are named from the table's id
    columns. Records whose query or url is the star are never admitted:
    their mass is already unlisted mass. The list carries the admitted
    records' table ids, and -1 for the wildcard.
    """
    b_s, tau = compute_threshold(params)
    counts = _as_counts(s_records)
    table = counts.table
    # int64 + float64 rounds as Python's int + float does.
    held = counts.counts[counts.nonzero]
    admitted = counts.nonzero[held + laplace_samples(b_s, len(held), rng) > tau]
    star_q, star_u = table.star
    star_free = (table.query_ids[admitted] != star_q) & (table.url_ids[admitted] != star_u)
    admitted = admitted[star_free]
    # Ids follow query order: each query's urls are one run of them.
    query = table.query_ids[admitted]
    first = np.flatnonzero(np.diff(query, prepend=-1)).tolist()
    urls = list(map(table.urls.__getitem__, table.url_ids[admitted].tolist()))
    runs = zip(query[first].tolist(), first, first[1:] + [len(urls)])
    entries = {table.queries[q]: urls[start:stop] for q, start, stop in runs}
    entries[STAR] = [STAR]
    return HeadList(entries, Stage.INITIAL, (table, np.append(admitted, -1)))


def optin_variance(p_hat: np.ndarray, n: int, b_t: float) -> np.ndarray:
    """Unbiased sample variances of Laplace-mechanism frequency estimates.

    (n/(n-1)) * (p(1-p)/n + 2 (b/n)^2), i.e. the Bernoulli sampling term
    with Bessel's correction plus the Laplace noise term. Noise can push
    an estimate outside [0,1]; the Bernoulli term is evaluated at the
    clamped value so the variance stays non-negative while the estimate
    itself is left unbiased.
    """
    if n < 2:
        raise ParamError("variance estimate needs n >= 2")
    if not b_t > 0:
        raise ParamError("noise scale must be positive")
    p_eff = np.clip(p_hat, 0.0, 1.0)
    return (n / (n - 1.0)) * (p_eff * (1.0 - p_eff) / n + 2.0 * (b_t / n) ** 2)


def estimate_optin_probabilities(
    params: PrivacyParams,
    t_records: Iterable[Record] | Mapping[Record, int],
    hl_initial: HeadList,
    rng: np.random.Generator,
) -> OptinOutput:
    """Laplace-mechanism estimates over the initial head list, trimmed to M.

    `t_records` holds partition T's records, as `create_head_list` takes
    S's. They are counted on the initial list's slots, each record
    canonicalized (see `core.record_slots`): a listed record keeps its
    own count and the wildcard takes the rest. The M queries with the
    highest estimated marginal are retained (ties broken
    lexicographically); trimmed records' probabilities are folded into
    the wildcard entry and its variance is recomputed with the same
    formula. The final list is ordered by descending estimated marginal.
    """
    if hl_initial.stage is not Stage.INITIAL:
        raise ParamError("expected an initial-stage head list")
    b_t, _ = compute_threshold(params)

    held = _as_counts(t_records)
    n = int(held.counts.sum())
    if n < 2:
        raise ParamError("need at least 2 records in partition T")
    size = hl_initial.num_records()
    # Only T's held records are counted, not the whole table. Float sums of
    # integer counts are exact below 2**53, so adding the float64 draws
    # rounds as Python's int + float does.
    slots = record_slots(held.table, hl_initial)[held.nonzero]
    counts = np.bincount(slots, weights=held.counts[held.nonzero], minlength=size)
    p_hat = (counts + laplace_samples(b_t, size, rng)) / n

    # Trim to the top-M queries by estimated marginal, which bincount sums
    # left to right as `sum` does. The wildcard is always kept on top of
    # the M regular queries; the trimmed queries' mass joins it in list order.
    queries = hl_initial.queries
    marginals = dict(zip(queries, np.bincount(hl_initial.of_query, weights=p_hat).tolist()))
    wildcard = hl_initial.wildcard
    regular = [q for q in queries if q != STAR]
    ranked = sorted(regular, key=lambda q: (-marginals[q], q))
    trimmed = set(ranked[params.M:])
    star_mass = float(p_hat[wildcard])
    for q in regular:
        if q in trimmed:
            star_mass += marginals[q]
    marginals[STAR] = p_hat[wildcard] = star_mass

    order = sorted(ranked[: params.M] + [STAR], key=lambda q: (-marginals[q], q))
    entries = {q: hl_initial.urls(q) for q in order}
    # The final list's slots on the initial one; its carried ids are read there.
    start = dict(zip(queries, hl_initial.starts.tolist()))
    at = np.fromiter(
        chain.from_iterable(range(start[q], start[q] + len(entries[q])) for q in order), np.int64
    )
    carried = hl_initial.carried and (hl_initial.carried[0], hl_initial.carried[1][at])
    hl_final = HeadList(entries, Stage.FINAL, carried)
    record_probs = p_hat[at]
    query_probs = np.array([marginals[q] for q in order])
    # Reusing the record-level variance formula for the accumulated
    # wildcard mass is known to be statistically loose; kept for
    # faithfulness to the estimation procedure.
    record_vars = optin_variance(record_probs, n, b_t)
    query_vars = optin_variance(query_probs, n, b_t)
    estimates = EstimateVector(hl_final, record_probs, record_vars, query_probs, query_vars, n)
    return OptinOutput(hl_final, estimates)
