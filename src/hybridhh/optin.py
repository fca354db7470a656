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
    estimate_variance,
    left_sum,
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
    columns and grouped by query in id order. Records whose query or url
    is the star are never admitted: their mass is already unlisted mass.
    The list carries the admitted records' table ids, and -1 for the
    wildcard.
    """
    b_s, tau = compute_threshold(params)
    counts = RecordCounts.of(s_records)
    table = counts.table
    # int64 + float64 rounds as Python's int + float does.
    held = counts.counts[counts.nonzero]
    admitted = counts.nonzero[held + laplace_samples(b_s, len(held), rng) > tau]
    star_q, star_u = table.star
    star_free = (table.query_ids[admitted] != star_q) & (table.url_ids[admitted] != star_u)
    admitted = admitted[star_free]
    entries: dict[str, list[str]] = {}
    for q, u in zip(table.query_ids[admitted].tolist(), table.url_ids[admitted].tolist()):
        entries.setdefault(table.queries[q], []).append(table.urls[u])
    entries[STAR] = [STAR]
    return HeadList(entries, Stage.INITIAL, (table, np.append(admitted, -1)))


def optin_variance(p_hat: np.ndarray, n: int, b_t: float, cells=1) -> np.ndarray:
    """Unbiased sample variances of Laplace-mechanism frequency estimates by
    `core.estimate_variance`: one step of 1, at the estimate clamped to [0, 1], as noise
    can push it out, plus the noisy cells each estimate sums, one for a record and k_q
    for a query's marginal. The estimate itself is left unclamped, so unbiased."""
    p_eff = np.clip(p_hat, 0.0, 1.0)
    return estimate_variance([1.0], [p_eff, 1.0 - p_eff], n, cells, b_t)


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

    held = RecordCounts.of(t_records)
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

    # Trim to the top M of the initial list's query indices by estimated
    # marginal. The wildcard is always kept on top of them; the trimmed
    # queries' mass joins it one by one in list order.
    queries, of_query, wildcard = hl_initial.queries, hl_initial.of_query, hl_initial.wildcard
    marginal = np.bincount(of_query, weights=p_hat).tolist()
    star = int(of_query[wildcard])
    regular = (i for i in range(len(queries)) if i != star)
    ranked = sorted(regular, key=lambda i: (-marginal[i], queries[i]))
    kept, trimmed = ranked[: params.M], ranked[params.M:]
    star_mass = left_sum(map(marginal.__getitem__, sorted(trimmed)), float(p_hat[wildcard]))
    marginal[star] = p_hat[wildcard] = star_mass
    order = sorted(kept + [star], key=lambda i: (-marginal[i], queries[i]))
    # The final list's slots on the initial one, where its carried ids are
    # read: the slots stably sorted by their query's rank, trimmed queries last.
    rank = np.argsort(order + trimmed)[of_query]
    at = np.argsort(rank, kind="stable")[: np.count_nonzero(rank < len(order))]
    carried = hl_initial.carried and (hl_initial.carried[0], hl_initial.carried[1][at])
    entries = {queries[i]: hl_initial.urls(queries[i]) for i in order}
    hl_final = HeadList(entries, Stage.FINAL, carried)
    record_probs = p_hat[at]
    query_probs = np.array(marginal)[order]
    # A query's marginal sums one noisy cell per url. The wildcard, and so the star,
    # counts one, although its mass holds the trimmed queries' cells: known to be
    # statistically loose, kept for faithfulness to the estimation procedure.
    record_vars = optin_variance(record_probs, n, b_t)
    query_vars = optin_variance(query_probs, n, b_t, np.bincount(hl_final.of_query))
    estimates = EstimateVector(hl_final, record_probs, record_vars, query_probs, query_vars)
    return OptinOutput(hl_final, estimates)
