"""Utility metrics: L1 distance, NDCG, and the nested list-of-lists NDCG.

The estimate is a ranked list of queries, each carrying a ranked url
list. Plain NDCG scores a single list; the generalized score discounts
each query's gain by how well its url list was ranked. Wildcard entries
are stripped and the remaining mass rescaled before scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import STAR, ParamError, Record


@dataclass(frozen=True)
class RankedEstimate:
    """Star-free, renormalized estimate in ranked form.

    Queries are sorted by descending marginal probability; urls within a
    query by descending record probability. Ties break lexicographically
    so that identical inputs always rank identically.
    """

    queries: tuple[str, ...]
    query_probs: Mapping[str, float]
    url_orders: Mapping[str, tuple[str, ...]]
    record_probs: Mapping[Record, float]

    def __post_init__(self):
        object.__setattr__(self, "query_probs", dict(self.query_probs))
        object.__setattr__(self, "url_orders", dict(self.url_orders))
        object.__setattr__(self, "record_probs", dict(self.record_probs))

    def conditional_url_probs(self, query: str) -> dict[str, float]:
        total = self.query_probs[query]
        if total <= 0:
            # Degenerate marginal; fall back to the raw record mass.
            return {u: self.record_probs[Record(query, u)] for u in self.url_orders[query]}
        return {
            u: self.record_probs[Record(query, u)] / total
            for u in self.url_orders[query]
        }


def strip_stars_and_rescale(probs: Mapping[Record, float]) -> RankedEstimate:
    """Drop wildcard entries and renormalize the remaining mass to 1."""
    kept = {
        r: p for r, p in probs.items() if r.query != STAR and r.url != STAR
    }
    total = sum(kept.values())
    if not kept or total <= 0:
        raise ParamError("no probability mass outside the wildcard entries")
    record_probs = {r: p / total for r, p in kept.items()}
    query_probs: dict[str, float] = {}
    for r, p in record_probs.items():
        query_probs[r.query] = query_probs.get(r.query, 0.0) + p
    queries = tuple(sorted(query_probs, key=lambda q: (-query_probs[q], q)))
    url_orders = {
        q: tuple(
            sorted(
                (r.url for r in record_probs if r.query == q),
                key=lambda u: (-record_probs[Record(q, u)], u),
            )
        )
        for q in queries
    }
    return RankedEstimate(queries, query_probs, url_orders, record_probs)


def l1_distance(p_hat: Mapping, p: Mapping) -> float:
    """Manhattan distance between identically keyed probability vectors."""
    if set(p_hat) != set(p):
        raise ParamError("L1 requires identically keyed vectors")
    return sum(abs(p_hat[k] - p[k]) for k in p)


def _gain(rel: float) -> float:
    return 2.0**rel - 1.0


def ndcg_list(
    estimated_order: Sequence,
    true_weights: Mapping,
    k: int | None = None,
) -> float:
    """NDCG of a single ranked list against true frequencies.

    The relevance of an item is its share of the total true weight; the
    ideal ordering sorts by descending relevance.
    """
    total = sum(true_weights.values())
    if total <= 0:
        raise ParamError("true weights must not be all zero")
    if any(w < 0 for w in true_weights.values()):
        raise ParamError("true weights must be non-negative")
    rel = {item: w / total for item, w in true_weights.items()}
    if k is None:
        k = len(estimated_order)
    if k > len(estimated_order):
        raise ParamError("k exceeds the list length")
    dcg = sum(
        _gain(rel.get(item, 0.0)) / math.log2(i + 2)
        for i, item in enumerate(estimated_order[:k])
    )
    ideal_order = sorted(rel, key=lambda it: (-rel[it], str(it)))
    idcg = sum(
        _gain(rel[item]) / math.log2(i + 2)
        for i, item in enumerate(ideal_order[:k])
    )
    return dcg / idcg if idcg > 0 else 0.0


def generalized_ndcg(
    estimate: RankedEstimate,
    truth: RankedEstimate,
    k: int | None = None,
) -> float:
    """List-of-lists NDCG with per-query url-list discounting.

    Each query's gain (from its true probability) is multiplied by the
    NDCG of its estimated url list. The normalizer is the fully ideal
    score (true query ordering, perfectly ranked url lists), so the
    result never exceeds the query-level NDCG and a perfect estimate
    scores exactly 1.
    """
    if not truth.queries:
        raise ParamError("truth is empty")

    def url_factor(q: str) -> float:
        if q not in truth.query_probs:
            return 1.0
        true_urls = truth.conditional_url_probs(q)
        order = estimate.url_orders.get(q)
        if order is None or len(true_urls) <= 1:
            return 1.0
        url_k = len(order) if k is None else min(k, len(order))
        return ndcg_list(order, true_urls, url_k)

    est_top = estimate.queries if k is None else estimate.queries[:k]
    numer = sum(
        _gain(truth.query_probs.get(q, 0.0)) / math.log2(i + 2) * url_factor(q)
        for i, q in enumerate(est_top)
    )
    true_top = truth.queries if k is None else truth.queries[:k]
    denom = sum(
        _gain(truth.query_probs[q]) / math.log2(i + 2)
        for i, q in enumerate(true_top)
    )
    return numer / denom if denom > 0 else 0.0


def score(
    estimate: Mapping[Record, float],
    truth: Mapping[Record, float],
) -> tuple[float, float]:
    """(L1, generalized NDCG) of an estimate against the truth.

    L1 compares the star-free records of the estimate directly, with
    missing truth counted as zero; only the NDCG relevance scores are
    renormalized after discarding the wildcard.
    """
    star_free = [r for r in estimate if r.query != STAR and r.url != STAR]
    l1 = l1_distance(
        {r: estimate[r] for r in star_free},
        {r: truth.get(r, 0.0) for r in star_free},
    )
    ndcg = generalized_ndcg(
        strip_stars_and_rescale(estimate), strip_stars_and_rescale(truth)
    )
    return l1, ndcg
