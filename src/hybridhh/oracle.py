"""Exact verification tools for the client randomizer.

The randomizer's output law is written down in closed form: the
per-input report distribution, the expected report fractions for a
whole population, and two checks of the (epsilon, delta) inequality.
`verify_dp_closed_form` computes the worst slack per class of input
pair, at a cost set by the number of distinct url-list lengths; it is
what `hybridhh verify-dp` runs. `verify_dp` is the independent
brute-force cross-check that enumerates every input pair and output.
High-precision arithmetic keeps the checks' own rounding well below the
tolerances being certified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import mpmath as mp

from .core import HeadList, ParamError, Record, Stage, canonicalize
from .client import ReportModel

_SIZE_GUARD = 10_000  # max k * max(k_q) handled by enumeration (not the closed form)
_DPS = 50             # working precision (decimal digits)


def _check_size(hl: HeadList) -> None:
    if hl.k * max(hl.k_q(q) for q in hl.queries) > _SIZE_GUARD:
        raise ParamError("head list too large for exact enumeration")


def _truth_probability_mp(eps, delta, k: int):
    if k == 1:
        return mp.mpf(1)
    e = mp.e**mp.mpf(eps)
    return (e + (mp.mpf(delta) / 2) * (k - 1)) / (e + k - 1)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact output law of the randomizer for one canonical input."""

    probs: Mapping[Record, mp.mpf]

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))

    def total(self):
        return sum(self.probs.values())

    def as_float(self) -> dict[Record, float]:
        return {r: float(p) for r, p in self.probs.items()}


def _model_mp(model: ReportModel):
    """Recompute t and t_q from the budgets at high precision."""
    with mp.workdps(_DPS):
        eps_q, delta_q, eps_u, delta_u = model.budgets
        t = _truth_probability_mp(eps_q, delta_q, model.k)
        by_length = {
            kq: _truth_probability_mp(eps_u, delta_u, kq)
            for kq in set(model.k_q.values())
        }
    return t, {q: by_length[kq] for q, kq in model.k_q.items()}


def enumerate_report_distribution(
    record: Record,
    model: ReportModel,
    hl: HeadList,
) -> ExactDistribution:
    """Closed-form output probabilities for one input record.

    Truthful: t * t_q; same query, other url: t (1 - t_q) / (k_q - 1);
    other query q', any url there: (1 - t) / ((k - 1) k_{q'}).
    """
    if hl.stage is not Stage.CLIENT_AUGMENTED:
        raise ParamError("enumeration requires a client-augmented head list")
    _check_size(hl)
    q, u = canonicalize(record, hl)
    t, t_q = _model_mp(model)
    with mp.workdps(_DPS):
        probs: dict[Record, mp.mpf] = {}
        for q2 in hl.queries:
            k_q2 = model.k_q[q2]
            if q2 == q:
                # k_q2 = 1 means t_q = 1, so only the truthful term remains.
                for uu in hl.urls(q2):
                    if uu == u:
                        probs[Record(q2, uu)] = t * t_q[q2]
                    else:
                        probs[Record(q2, uu)] = t * (1 - t_q[q2]) / (k_q2 - 1)
            else:
                share = (1 - t) / ((model.k - 1) * k_q2)
                for uu in hl.urls(q2):
                    probs[Record(q2, uu)] = share
    return ExactDistribution(probs)


def forward_report_map(
    p: Mapping[Record, float],
    model: ReportModel,
    hl: HeadList,
) -> tuple[dict[Record, float], dict[str, float]]:
    """Expected report fractions for a population with true distribution p.

    Returns (record-level, query-level) expected fractions; this is the
    exact forward image of the randomizer, i.e. what the aggregation
    stage's denoising inverts.
    """
    _check_size(hl)
    total = sum(p.values())
    if abs(total - 1.0) > 1e-9:
        raise ParamError(f"true distribution sums to {total}, not 1")
    r_records: dict[Record, float] = {rec: 0.0 for rec in hl.records()}
    for rec, mass in p.items():
        if mass == 0:
            continue
        dist = enumerate_report_distribution(rec, model, hl)
        for out, prob in dist.probs.items():
            r_records[out] += mass * float(prob)
    r_queries: dict[str, float] = {q: 0.0 for q in hl.queries}
    for rec, prob in r_records.items():
        r_queries[rec.query] += prob
    return r_records, r_queries


def verify_dp(
    model: ReportModel,
    hl: HeadList,
    eps: float,
    delta: float,
) -> float:
    """Max excess of the additive DP slack over delta; <= 0 means pass.

    Computes max over input pairs (r, r') of
    sum_y max(0, P[y|r] - e^eps P[y|r']), which equals the smallest
    delta' making the channel (eps, delta')-private, then subtracts
    delta.
    """
    _check_size(hl)
    # Each input's law in hl.records() order, the order enumeration inserts.
    laws = [
        list(enumerate_report_distribution(r, model, hl).probs.values())
        for r in hl.records()
    ]
    with mp.workdps(_DPS):
        e_eps = mp.e**mp.mpf(eps)
        scaled = [[e_eps * p for p in law] for law in laws]
        worst = max(
            sum(max(p - q, 0) for p, q in zip(law, other))
            for i, law in enumerate(laws)
            for j, other in enumerate(scaled)
            if i != j
        )
        return float(worst - mp.mpf(delta))


def verify_dp_closed_form(model: ReportModel, eps: float, delta: float) -> float:
    """The quantity `verify_dp` computes, without enumerating outputs.

    Permuting queries of equal k_q, or the non-true urls of a query,
    leaves the channel unchanged, so a pair's slack depends only on its
    class: the same query with another url (keyed by k_q >= 2), or two
    different queries (keyed by the ordered pair of their k_q; equal
    values need two such queries). Each class splits the outputs into
    groups with one probability per side, and its slack sums
    size * max(0, P - e^eps P') over the groups.
    """
    t, t_q = _model_mp(model)
    k = model.k
    tally = Counter(model.k_q.values())
    with mp.workdps(_DPS):
        e_eps = mp.e**mp.mpf(eps)
        # Per k_q: the truthful url, one other url of the same query, and
        # one url as reached from another query.
        law = {
            kq: (
                t * tq,
                t * (1 - tq) / (kq - 1) if kq > 1 else mp.mpf(0),
                (1 - t) / ((k - 1) * kq),
            )
            for kq, tq in {model.k_q[q]: tq for q, tq in t_q.items()}.items()
        }

        def slack(groups, shared):
            # `shared` is the mass both inputs put on the same outputs alike.
            return (
                sum(n * max(p - e_eps * p2, 0) for n, p, p2 in groups)
                + max(shared * (1 - e_eps), 0)
            )

        slacks = []
        for a, (hit, miss, away) in law.items():
            if a >= 2:
                same_query = [(1, hit, miss), (1, miss, hit)]
                slacks.append(slack(same_query, (a - 2) * miss + (1 - t)))
            for b, (hit2, miss2, away2) in law.items():
                if a != b or tally[a] >= 2:
                    two_queries = [
                        (1, hit, away), (a - 1, miss, away),
                        (1, away2, hit2), (b - 1, away2, miss2),
                    ]
                    slacks.append(slack(two_queries, (k - 2) * (1 - t) / (k - 1)))
        return float(max(slacks) - mp.mpf(delta))
