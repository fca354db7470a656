"""Exact verification tools for the client randomizer.

The randomizer's output law is written down once, as one table per
url-list length (`_law`) that both checks of the (epsilon, delta)
inequality read, from the budgets by the run's own formula
(`client._truth_probability`) at 50 digits. That formula gives each
complement of t, which subtracting t from 1 would round to 0 at large epsilon.
`verify_dp_closed_form` computes the worst slack per class of input
pair, at a cost set by the number of distinct url-list lengths; it is
what `hybridhh verify-dp` runs. `verify_dp` is the brute-force
cross-check: it enumerates every input pair and every output through
the per-input report distribution, which also gives the expected report
fractions for a whole population.
High-precision arithmetic keeps the checks' own rounding well below the
tolerances being certified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import mpmath as mp

from .core import HeadList, ParamError, Record, Stage, canonicalize
from .client import ReportModel, _truth_probability

_SIZE_GUARD = 10_000  # max k * max(k_q) handled by enumeration (not the closed form)
_DPS = 50             # working precision (decimal digits)


def _check_size(hl: HeadList) -> None:
    if hl.k * max(map(len, hl.entries.values())) > _SIZE_GUARD:
        raise ParamError("head list too large for exact enumeration")


@dataclass(frozen=True)
class ExactDistribution:
    """Exact output law of the randomizer for one canonical input."""

    probs: Mapping[Record, mp.mpf]

    def as_float(self) -> dict[Record, float]:
        return {r: float(p) for r, p in self.probs.items()}


def _law(model: ReportModel):
    """t's complement off, and the channel's law (hit, miss, away) per url-list length k_q.

    The probability of reporting the true record (hit, t * t_q), one
    other url of the true query (miss, t * off_q / (k_q - 1), or 0 when
    k_q = 1), or one url of another query of that length (away,
    off / ((k - 1) k_q)), where off_q is the complement of t_q.
    """
    with mp.workdps(_DPS):
        eps_q, delta_q, eps_u, delta_u = map(mp.mpf, model.budgets)
        t, off = _truth_probability(mp.exp(eps_q), delta_q, model.k)
        law = {}
        for kq in dict.fromkeys(model.k_q.values()):
            tq, off_q = _truth_probability(mp.exp(eps_u), delta_u, kq)
            law[kq] = (
                t * tq,
                t * off_q / (kq - 1) if kq > 1 else mp.mpf(0),
                off / ((model.k - 1) * kq),
            )
    return off, law


def enumerate_report_distribution(
    record: Record,
    model: ReportModel,
    hl: HeadList,
) -> ExactDistribution:
    """Output probabilities for one input record: the input gets its
    length's hit, the rest of its query miss, every other url its query's away."""
    if hl.stage is not Stage.CLIENT_AUGMENTED:
        raise ParamError("enumeration requires a client-augmented head list")
    _check_size(hl)
    q, u = canonicalize(record, hl)
    _, law = _law(model)
    probs: dict[Record, mp.mpf] = {}
    for q2 in hl.queries:
        hit, miss, away = law[model.k_q[q2]]
        for uu in hl.urls(q2):
            probs[Record(q2, uu)] = away if q2 != q else hit if uu == u else miss
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
        e_eps = mp.exp(eps)
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
    off_query, law = _law(model)   # the other-query mass, t's complement
    k = model.k
    tally = Counter(model.k_q.values())
    with mp.workdps(_DPS):
        e_eps = mp.exp(eps)

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
                slacks.append(slack(same_query, (a - 2) * miss + off_query))
            for b, (hit2, miss2, away2) in law.items():
                if a != b or tally[a] >= 2:
                    two_queries = [
                        (1, hit, away), (a - 1, miss, away),
                        (1, away2, hit2), (b - 1, away2, miss2),
                    ]
                    slacks.append(slack(two_queries, (k - 2) * off_query / (k - 1)))
        return float(max(slacks) - mp.mpf(delta))
