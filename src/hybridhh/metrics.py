"""Utility metrics: L1 distance, NDCG, and the nested list-of-lists NDCG.

The estimate is a ranked list of queries, each carrying a ranked url
list. Plain NDCG scores a single list; the generalized score discounts
each query's gain by how well its url list was ranked, comparing two
rankings of one record set in one array pass. Wildcard entries are
stripped and the remaining mass rescaled before scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import lt, sub, truediv
from typing import Mapping, Sequence

import numpy as np

from .core import STAR, ParamError, Record, RecordTable, left_sum


@dataclass(frozen=True, eq=False)
class RankedEstimate:
    """Star-free, renormalized estimate in ranked form: the rescaled p,
    table id and query id of each of `records`, and each query's marginal
    by id. `order` lists the records by descending query marginal, then
    each query's urls by descending p; ids follow the names' code-point
    order, so ties break lexicographically and identical inputs always
    rank identically."""

    records: tuple[Record, ...]
    p: np.ndarray
    ids: np.ndarray
    of_query: np.ndarray
    query_p: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, records, p, ids, of_query) -> RankedEstimate:
        """Rank `records` given their rescaled p, table ids and query ids."""
        # A query's mass adds its records' p in input order.
        query_p = np.bincount(of_query, weights=p)
        query_rank = np.argsort(np.argsort(-query_p, kind="stable"))
        order = np.lexsort((ids, -p, query_rank[of_query]))
        return cls(records, p, ids, of_query, query_p, order)

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first record of each query's url list in `order`, by query
        rank, and the rank of each ordered record in its query's list."""
        queries = self.of_query[self.order]
        starts = np.flatnonzero(np.diff(queries, prepend=-1))
        ranks = np.arange(len(queries)) - np.repeat(starts, np.diff(starts, append=len(queries)))
        return self.order[starts], ranks

    queries = cached_property(lambda self: tuple(self.records[i].query for i in self._runs[0]))
    query_probs = cached_property(
        lambda self: dict(zip(self.queries, self.query_p[self.of_query[self._runs[0]]].tolist()))
    )


def strip_stars_and_rescale(probs: Mapping[Record, float]) -> RankedEstimate:
    """Drop wildcard entries, renormalize the remaining mass to 1 and rank the records."""
    kept = {r: p for r, p in probs.items() if STAR not in r}
    total = left_sum(kept.values())
    if not kept or total <= 0:
        raise ParamError("no probability mass outside the wildcard entries")
    table, ids = RecordTable.of(*zip(*kept))
    p = np.fromiter(kept.values(), float, len(kept)) / total
    return RankedEstimate.of(tuple(kept), p, ids, table.query_ids[ids])


def l1_distance(p_hat: Sequence[float], p: Sequence[float]) -> float:
    """Manhattan distance between two probability vectors over the same records."""
    if len(p_hat) != len(p):
        raise ParamError("L1 requires vectors of one length")
    return left_sum(map(abs, map(sub, p_hat, p)))


def _gains(rels: Sequence[float]) -> np.ndarray:
    """The gain 2**rel - 1 of each relevance, by Python's `pow`."""
    return np.fromiter(map(pow, repeat(2.0), rels), float, len(rels)) - 1.0


def _discounts(n: int) -> np.ndarray:
    """The discount log2(i + 2) of each rank i below n, by `math.log2`."""
    return np.array([math.log2(i + 2) for i in range(n)])


def _dcg(rels: Sequence[float]) -> float:
    """The discounted gains of relevances in rank order, summed left to right."""
    return left_sum((_gains(rels) / _discounts(len(rels))).tolist())


def ndcg_list(estimated_order: Sequence, true_weights: Mapping) -> float:
    """NDCG of a single ranked list against true frequencies.

    The relevance of an item is its share of the total true weight; the
    ideal ordering sorts by descending relevance.
    """
    total = left_sum(true_weights.values())
    if total <= 0:
        raise ParamError("true weights must not be all zero")
    if any(map(lt, true_weights.values(), repeat(0))):
        raise ParamError("true weights must be non-negative")
    rel = dict(zip(true_weights, map(truediv, true_weights.values(), repeat(total))))
    dcg = _dcg([rel.get(item, 0.0) for item in estimated_order])
    idcg = _dcg(sorted(rel.values(), reverse=True)[:len(estimated_order)])
    return dcg / idcg if idcg > 0 else 0.0


def generalized_ndcg(estimate: RankedEstimate, truth: RankedEstimate) -> float:
    """List-of-lists NDCG with per-query url-list discounting.

    Both rankings must rank the same records, given in the same order,
    with non-negative probabilities. Each query's gain (from its true
    probability) is multiplied by the NDCG of its estimated url list.
    The normalizer is the fully ideal score (true query ordering,
    perfectly ranked url lists), so the result never exceeds the
    query-level NDCG and a perfect estimate scores exactly 1.
    """
    if estimate.records != truth.records:
        raise ParamError("the two rankings do not rank the same records in the same order")
    of_query, true_p = truth.of_query, truth.query_p
    discounts = _discounts(len(of_query))
    # A query without true mass divides 0 by 0: its gain is 0, so its url list cannot count.
    with np.errstate(divide="ignore", invalid="ignore"):
        # Each url's conditional relevance, renormalized by its sum in the truth's url order.
        cond = truth.p / true_p[of_query]
        rel = cond / np.bincount(of_query[truth.order], cond[truth.order], len(true_p))[of_query]
        gain = _gains(rel.tolist())
        dcg, idcg = (
            np.bincount(of_query[r.order], gain[r.order] / discounts[r._runs[1]], len(true_p))
            for r in (estimate, truth)
        )
        factor = np.where(true_p > 0, dcg / idcg, 1.0)
    queries = of_query[estimate._runs[0]]
    numer = _gains(true_p[queries].tolist()) / discounts[:len(queries)] * factor[queries]
    return left_sum(numer.tolist()) / _dcg(true_p[of_query[truth._runs[0]]].tolist())


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
    scores the same as one already folded onto the list. The truth is
    ranked on the estimate's record and query ids.
    """
    try:
        ranked = strip_stars_and_rescale(estimate)
    except ParamError:
        raise ParamError("the estimate has no mass on its star-free records") from None
    on_list = list(map(truth.get, ranked.records, repeat(0.0)))
    l1 = l1_distance(list(map(estimate.__getitem__, ranked.records)), on_list)
    total = left_sum(on_list)
    if total <= 0:
        raise ParamError("the truth puts no mass on the estimate's star-free records")
    p = np.array(on_list, dtype=float) / total
    truth_ranked = RankedEstimate.of(ranked.records, p, ranked.ids, ranked.of_query)
    return l1, generalized_ndcg(ranked, truth_ranked)
