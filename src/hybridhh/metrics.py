"""Utility metrics: L1 distance, NDCG, and the nested list-of-lists NDCG.

The estimate is a ranked list of queries, each carrying a ranked url
list. Plain NDCG scores a single list; the generalized score discounts
each query's gain by how well its url list was ranked. Wildcard entries
are stripped and the remaining mass rescaled before scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, lt, mul, neg, sub, truediv
from typing import Iterable, Mapping, Sequence

from .core import STAR, ParamError, Record


@dataclass(frozen=True)
class RankedEstimate:
    """Star-free, renormalized estimate in ranked form.

    Queries are sorted by descending marginal probability; urls within a
    query by descending record probability, and `ranked` holds each
    query's records in that order as (-probability, url) pairs. Ties
    break lexicographically so that identical inputs always rank
    identically.
    """

    queries: tuple[str, ...]
    query_probs: Mapping[str, float]
    url_orders: Mapping[str, tuple[str, ...]]
    ranked: Mapping[str, list[tuple[float, str]]]

    def conditional_url_probs(self, query: str) -> dict[str, float]:
        # -p / -total is p / total.
        total = -self.query_probs[query]
        negated = map(itemgetter(0), self.ranked[query])
        return dict(zip(self.url_orders[query], map(truediv, negated, repeat(total))))


def strip_stars_and_rescale(probs: Mapping[Record, float]) -> RankedEstimate:
    """Drop wildcard entries and renormalize the remaining mass to 1."""
    kept = {r: p for r, p in probs.items() if STAR not in r}
    total = sum(kept.values())
    if not kept or total <= 0:
        raise ParamError("no probability mass outside the wildcard entries")
    # Each record's rescaled probability p, negated for the rank order; a
    # query's mass adds them in input order (0 - (-p) is 0 + p).
    query_probs: dict[str, float] = {}
    by_query: dict[str, list[tuple[float, str]]] = {}
    for (q, u), negated in zip(kept, map(truediv, kept.values(), repeat(-total))):
        query_probs[q] = query_probs.get(q, 0.0) - negated
        by_query.setdefault(q, []).append((negated, u))
    queries = tuple(map(itemgetter(1), sorted(zip(map(neg, query_probs.values()), query_probs))))
    ranked = {q: sorted(by_query[q]) for q in queries}
    url_orders = {q: tuple(map(itemgetter(1), pairs)) for q, pairs in ranked.items()}
    return RankedEstimate(queries, query_probs, url_orders, ranked)


def l1_distance(p_hat: Mapping, p: Mapping) -> float:
    """Manhattan distance between identically keyed probability vectors."""
    if p_hat.keys() != p.keys():
        raise ParamError("L1 requires identically keyed vectors")
    return sum(map(abs, map(sub, map(p_hat.__getitem__, p), p.values())))


def _discounted_gains(rels: Iterable[float], discounts: Iterable[float]) -> map:
    """The gain 2**rel - 1 of each relevance over its discount, by Python's `**`."""
    return map(truediv, map(sub, map(pow, repeat(2.0), rels), repeat(1.0)), discounts)


@lru_cache(maxsize=64)
def _discounts(n: int) -> tuple[float, ...]:
    """The discount log2(i + 2) of each rank i below n."""
    return tuple(math.log2(i + 2) for i in range(n))


def ndcg_list(estimated_order: Sequence, true_weights: Mapping) -> float:
    """NDCG of a single ranked list against true frequencies.

    The relevance of an item is its share of the total true weight; the
    ideal ordering sorts by descending relevance.
    """
    ideal_order = sorted(true_weights, key=true_weights.get, reverse=True)
    return _ndcg(estimated_order, true_weights, ideal_order)


def _ndcg(estimated_order: Sequence, true_weights: Mapping, ideal_order: Sequence) -> float:
    """`ndcg_list`, given the items in descending order of weight: their
    relevances then descend too, so any such order scores the same."""
    total = sum(true_weights.values())
    if total <= 0:
        raise ParamError("true weights must not be all zero")
    if any(map(lt, true_weights.values(), repeat(0))):
        raise ParamError("true weights must be non-negative")
    rel = dict(zip(true_weights, map(truediv, true_weights.values(), repeat(total))))
    discounts = _discounts(max(len(estimated_order), len(rel)))
    dcg = sum(_discounted_gains(map(rel.get, estimated_order, repeat(0.0)), discounts))
    ideal = map(rel.__getitem__, ideal_order[:len(estimated_order)])
    idcg = sum(_discounted_gains(ideal, discounts))
    return dcg / idcg if idcg > 0 else 0.0


def generalized_ndcg(estimate: RankedEstimate, truth: RankedEstimate) -> float:
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
        # A query without true mass has gain 0, so its url list cannot count.
        if truth.query_probs.get(q, 0.0) <= 0 or len(truth.url_orders[q]) <= 1:
            return 1.0
        true_urls = truth.conditional_url_probs(q)
        return _ndcg(estimate.url_orders[q], true_urls, truth.url_orders[q])

    queries, true_queries = estimate.queries, truth.queries
    discounts = _discounts(max(len(queries), len(true_queries)))
    gains = _discounted_gains(map(truth.query_probs.get, queries, repeat(0.0)), discounts)
    numer = sum(map(mul, gains, map(url_factor, queries)))
    denom = sum(_discounted_gains(map(truth.query_probs.__getitem__, true_queries), discounts))
    return numer / denom if denom > 0 else 0.0


def score(
    estimate: Mapping[Record, float],
    truth: Mapping[Record, float],
) -> tuple[float, float]:
    """(L1, generalized NDCG) of an estimate against the truth.

    The truth is first restricted to the estimate's star-free records,
    in the estimate's record order, with a missing record counted as
    zero; mass outside the list plays no part. L1 compares the estimate
    with that restriction directly. NDCG renormalizes both after
    discarding the wildcard, so a truth file covering the whole log
    scores the same as one already folded onto the list.
    """
    star_free = [r for r in estimate if STAR not in r]
    on_list = dict(zip(star_free, map(truth.get, star_free, repeat(0.0))))
    l1 = l1_distance(dict(zip(star_free, map(estimate.__getitem__, star_free))), on_list)
    ndcg = generalized_ndcg(
        strip_stars_and_rescale(estimate), strip_stars_and_rescale(on_list)
    )
    return l1, ndcg
