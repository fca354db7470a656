import math
import re
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, lt, mul, neg, sub, truediv

import pytest

from hybridhh import data, harness, metrics
from hybridhh.core import (
    STAR, WILDCARD, ParamError, PrivacyParams, Record, canonicalize, left_sum,
)
from hybridhh.harness import ExperimentConfig, SynthSpec
from hybridhh.metrics import (
    generalized_ndcg,
    l1_distance,
    ndcg_list,
    score,
    strip_stars_and_rescale,
)
from hybridhh.sampling import substream

from conftest import LOG_WORDS, text_log


def ranked(probs):
    return strip_stars_and_rescale(probs)


class TestL1:
    def test_identical_vectors(self):
        v = [0.6, 0.4]
        assert l1_distance(v, v) == 0.0

    def test_hand_value(self):
        assert l1_distance([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParamError):
            l1_distance([1.0], [0.5, 0.5])


class TestNdcgList:
    def test_perfect_order_scores_one(self):
        assert ndcg_list(["a", "b", "c"], {"a": 5, "b": 3, "c": 1}) == pytest.approx(1.0)

    def test_swapped_pair_frozen_value(self):
        # Two items with true counts [3, 1], estimated order reversed.
        got = ndcg_list(["lo", "hi"], {"hi": 3, "lo": 1})
        g_hi, g_lo = 2**0.75 - 1, 2**0.25 - 1
        expected = (g_lo + g_hi / math.log2(3)) / (g_hi + g_lo / math.log2(3))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.7731, abs=1e-4)

    def test_single_item(self):
        assert ndcg_list(["only"], {"only": 7}) == 1.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ParamError):
            ndcg_list(["a"], {"a": 0})
        with pytest.raises(ParamError):
            ndcg_list(["a"], {"a": 1, "b": -1})


def url_orders(est):
    """Each query's urls in rank order, read from the one record order."""
    orders = {}
    for i in est.order.tolist():
        query, url = est.records[i]
        orders[query] = orders.get(query, ()) + (url,)
    return orders


def _per_query_scan(probs):
    """Query and url order as first written: each query scans every
    record for its urls."""
    kept = {r: p for r, p in probs.items() if r.query != STAR and r.url != STAR}
    total = sum(kept.values())
    record_probs = {r: p / total for r, p in kept.items()}
    query_probs = {}
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
    return queries, url_orders


class TestStripStars:
    def test_strips_and_renormalizes(self):
        est = ranked(
            {
                Record("a", "x"): 0.3,
                Record("a", STAR): 0.1,
                Record("b", "y"): 0.3,
                Record(STAR, STAR): 0.3,
            }
        )
        assert est.records == (Record("a", "x"), Record("b", "y"))
        assert sorted(est.order.tolist()) == [0, 1]
        assert sum(est.p.tolist()) == pytest.approx(1.0)
        assert est.query_probs["a"] == pytest.approx(0.5)

    def test_query_and_url_order(self):
        est = ranked(
            {
                Record("b", "y2"): 0.25,
                Record("b", "y1"): 0.35,
                Record("a", "x"): 0.4,
            }
        )
        assert est.queries == ("b", "a")  # 0.6 > 0.4
        assert url_orders(est)["b"] == ("y1", "y2")

    def test_ties_break_lexicographically(self):
        est = ranked({Record("b", "y"): 0.5, Record("a", "x"): 0.5})
        assert est.queries == ("a", "b")

    def test_url_ties_break_lexicographically(self):
        est = ranked(
            {
                Record("a", "z"): 0.2,
                Record("a", "y"): 0.2,
                Record("a", "x"): 0.2,
                Record("a", "w"): 0.4,
            }
        )
        assert url_orders(est)["a"] == ("w", "x", "y", "z")

    @pytest.mark.parametrize("seed", range(20))
    def test_ranking_matches_a_per_query_scan(self, seed):
        # Coarse probabilities make ties between queries and between urls.
        rng = substream(seed, 0)
        probs = {}
        for qi in rng.permutation(8):
            for ui in rng.permutation(int(rng.integers(1, 6))):
                probs[Record(f"q{qi}", f"u{ui}")] = float(rng.integers(1, 4)) / 8
        probs[Record("q0", STAR)] = 0.125
        probs[WILDCARD] = 0.25
        est = ranked(probs)
        queries, scanned = _per_query_scan(probs)
        assert est.queries == queries
        assert url_orders(est) == scanned

    def test_all_star_mass_rejected(self):
        with pytest.raises(ParamError):
            ranked({Record(STAR, STAR): 1.0})


class TestGeneralizedNdcg:
    def truth(self):
        return ranked(
            {
                Record("q1", "a"): 0.4,
                Record("q1", "b"): 0.2,
                Record("q2", "c"): 0.3,
                Record("q2", "d"): 0.1,
            }
        )

    def test_perfect_estimate_scores_one(self):
        truth = self.truth()
        assert generalized_ndcg(truth, truth) == pytest.approx(1.0)

    def test_url_swap_matches_hand_computation(self):
        truth = self.truth()
        est = ranked(
            {
                Record("q1", "a"): 0.2,   # q1's urls swapped in rank
                Record("q1", "b"): 0.4,
                Record("q2", "c"): 0.3,
                Record("q2", "d"): 0.1,
            }
        )
        got = generalized_ndcg(est, truth)

        g = lambda x: 2.0**x - 1.0
        # url factor for q1: order [b, a] against conditionals a=2/3, b=1/3.
        f1 = (g(1 / 3) + g(2 / 3) / math.log2(3)) / (g(2 / 3) + g(1 / 3) / math.log2(3))
        numer = g(0.6) * f1 + g(0.4) / math.log2(3) * 1.0
        denom = g(0.6) + g(0.4) / math.log2(3)
        assert got == pytest.approx(numer / denom, abs=1e-9)
        assert got < 1.0

    def test_near_tie_swap_costs_less_than_clear_swap(self):
        def instance(p_top):
            return {
                Record("q1", "a"): 0.5 * p_top,
                Record("q1", "b"): 0.5 * (1 - p_top),
                Record("q2", "c"): 0.5,
            }

        for p_top, worse_p_top in [(0.51, 0.9)]:
            near = generalized_ndcg(
                ranked(
                    {
                        Record("q1", "a"): 0.5 * (1 - p_top),
                        Record("q1", "b"): 0.5 * p_top,
                        Record("q2", "c"): 0.5,
                    }
                ),
                ranked(instance(p_top)),
            )
            clear = generalized_ndcg(
                ranked(
                    {
                        Record("q1", "a"): 0.5 * (1 - worse_p_top),
                        Record("q1", "b"): 0.5 * worse_p_top,
                        Record("q2", "c"): 0.5,
                    }
                ),
                ranked(instance(worse_p_top)),
            )
            assert clear < near < 1.0

    def test_never_exceeds_query_level_ndcg(self):
        rng = substream(41, 0)
        for _ in range(200):
            nq, nu = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            recs = [Record(f"q{i}", f"q{i}/u{j}") for i in range(nq) for j in range(nu)]
            t = rng.dirichlet([0.5] * len(recs))
            e = rng.dirichlet([0.5] * len(recs))
            truth = ranked(dict(zip(recs, t)))
            est = ranked(dict(zip(recs, e)))
            gen = generalized_ndcg(est, truth)
            query_level = ndcg_list(est.queries, truth.query_probs)
            assert gen <= query_level + 1e-12

    def test_query_without_true_mass_gains_nothing(self):
        # q2 is listed but holds no true mass: its url list is not scored,
        # and the score is the query-level one over q1's gain.
        truth = ranked(
            {
                Record("q1", "a"): 0.7,
                Record("q1", "b"): 0.3,
                Record("q2", "c"): 0.0,
                Record("q2", "d"): 0.0,
            }
        )
        est = ranked(
            {
                Record("q1", "a"): 0.3,
                Record("q1", "b"): 0.1,
                Record("q2", "c"): 0.4,
                Record("q2", "d"): 0.2,
            }
        )
        assert generalized_ndcg(est, truth) == pytest.approx(1 / math.log2(3))

    def test_rankings_of_different_records_rejected(self):
        truth = self.truth()
        other = ranked({Record("q1", "a"): 0.5, Record("q1", "e"): 0.2, Record("q2", "c"): 0.3})
        reordered = ranked(dict(reversed(
            {Record("q1", "a"): 0.4, Record("q1", "b"): 0.2,
             Record("q2", "c"): 0.3, Record("q2", "d"): 0.1}.items()
        )))
        for est in (other, reordered):
            with pytest.raises(ParamError, match="same records"):
                generalized_ndcg(est, truth)


class TestScore:
    def test_truth_outside_the_estimate_plays_no_part(self):
        estimate = {
            Record("a", "x"): 0.5,
            Record("a", "y"): 0.2,
            Record("b", "z"): 0.2,
            WILDCARD: 0.1,
        }
        on_list = {Record("a", "x"): 0.3, Record("a", "y"): 0.3, Record("b", "z"): 0.2}
        wider = {**on_list, Record("c", "w"): 0.15, Record("a", "v"): 0.05}
        assert score(estimate, wider) == score(estimate, on_list)
        assert score(estimate, on_list)[0] == pytest.approx(0.2 + 0.1)

    def test_truth_missing_a_listed_query_scores_it_as_zero(self):
        estimate = {Record("a", "x"): 0.5, Record("a", "y"): 0.3, Record("b", "z"): 0.2}
        l1, ndcg = score(estimate, {Record("b", "z"): 1.0})
        assert l1 == pytest.approx(0.5 + 0.3 + 0.8)
        assert ndcg == pytest.approx(1 / math.log2(3))

    @pytest.mark.parametrize("source", ["synthetic", "tsv"])
    def test_raw_truth_scores_as_the_truth_folded_onto_the_list(self, source, monkeypatch):
        """The truth over every record, that truth folded onto the final
        head list, and the truth the run hands `score` give the same
        floats. A TSV log's raw truth is rebuilt from the run's own S and
        T picks, the first two `sample_per_user` results; either raw truth
        is read over every table record."""
        config = ExperimentConfig(
            params=PrivacyParams(M=10), synth=SynthSpec(users=3000, queries=40, urls=3), seed=5
        )
        dataset = harness.load_dataset(config)
        if source == "tsv":
            # Two log lines per user, and no known truth.
            dataset = data.parse_log(text_log("".join(
                f"u{i // 2}\t{user.records[0].query}\t{user.records[0].url}\n"
                for i, user in enumerate(dataset.users)
            )))
        truths, picks = [], []
        real_score, real_sample = metrics.score, data.sample_per_user
        monkeypatch.setattr(
            metrics, "score", lambda est, truth: truths.append(truth) or real_score(est, truth)
        )
        monkeypatch.setattr(
            data, "sample_per_user", lambda *args: picks.append(real_sample(*args)) or picks[-1]
        )
        result = harness.run_blender(config, dataset)
        monkeypatch.undo()

        (passed,) = truths
        if source == "tsv":
            held = (picks[0] + picks[1]).tolist()
            total = sum(held)
            raw_p = [n / total for n in held]
        else:
            raw_p = dataset.true_distribution.tolist()
        raw = dict(zip(dataset.record_table, raw_p, strict=True))
        hl = result.head_list
        assert any(rec not in hl for rec in raw), "the truth should reach past the list"
        folded = {r: 0.0 for r in hl.records()}
        for rec, mass in raw.items():
            folded[canonicalize(rec, hl)] += mass
        by_raw = score(result.blended.probs, raw)
        assert by_raw == score(result.blended.probs, folded)
        assert by_raw == score(result.blended.probs, passed)
        assert by_raw == (result.row.l1, result.row.ndcg)


# The dict scorer that the array pass replaced, kept as the reference
# for `score`'s floats: each query's url list is ranked and scored by
# name, one `_dict_ndcg` call per listed query. Its sums add left to
# right, as `sum` no longer does on floats from Python 3.12.
@dataclass(frozen=True)
class _DictRanked:
    queries: tuple
    query_probs: dict
    url_orders: dict
    ranked: dict

    def conditional_url_probs(self, query):
        total = -self.query_probs[query]
        negated = map(itemgetter(0), self.ranked[query])
        return dict(zip(self.url_orders[query], map(truediv, negated, repeat(total))))


def _dict_strip(probs, empty="no probability mass outside the wildcard entries"):
    kept = {r: p for r, p in probs.items() if STAR not in r}
    total = left_sum(kept.values())
    if not kept or total <= 0:
        raise ParamError(empty)
    query_probs, by_query = {}, {}
    for (q, u), negated in zip(kept, map(truediv, kept.values(), repeat(-total))):
        query_probs[q] = query_probs.get(q, 0.0) - negated
        by_query.setdefault(q, []).append((negated, u))
    queries = tuple(map(itemgetter(1), sorted(zip(map(neg, query_probs.values()), query_probs))))
    ranked = {q: sorted(by_query[q]) for q in queries}
    url_orders = {q: tuple(map(itemgetter(1), pairs)) for q, pairs in ranked.items()}
    return _DictRanked(queries, query_probs, url_orders, ranked)


def _dict_gains(rels, discounts):
    return map(truediv, map(sub, map(pow, repeat(2.0), rels), repeat(1.0)), discounts)


def _dict_discounts(n):
    return tuple(math.log2(i + 2) for i in range(n))


def _dict_ndcg(estimated_order, true_weights, ideal_order):
    total = left_sum(true_weights.values())
    if total <= 0:
        raise ParamError("true weights must not be all zero")
    if any(map(lt, true_weights.values(), repeat(0))):
        raise ParamError("true weights must be non-negative")
    rel = dict(zip(true_weights, map(truediv, true_weights.values(), repeat(total))))
    discounts = _dict_discounts(max(len(estimated_order), len(rel)))
    dcg = left_sum(_dict_gains(map(rel.get, estimated_order, repeat(0.0)), discounts))
    ideal = map(rel.__getitem__, ideal_order[:len(estimated_order)])
    idcg = left_sum(_dict_gains(ideal, discounts))
    return dcg / idcg if idcg > 0 else 0.0


def _dict_generalized_ndcg(estimate, truth):
    if not truth.queries:
        raise ParamError("truth is empty")

    def url_factor(q):
        if truth.query_probs.get(q, 0.0) <= 0 or len(truth.url_orders[q]) <= 1:
            return 1.0
        true_urls = truth.conditional_url_probs(q)
        return _dict_ndcg(estimate.url_orders[q], true_urls, truth.url_orders[q])

    queries, true_queries = estimate.queries, truth.queries
    discounts = _dict_discounts(max(len(queries), len(true_queries)))
    gains = _dict_gains(map(truth.query_probs.get, queries, repeat(0.0)), discounts)
    numer = left_sum(map(mul, gains, map(url_factor, queries)))
    denom = left_sum(_dict_gains(map(truth.query_probs.__getitem__, true_queries), discounts))
    return numer / denom if denom > 0 else 0.0


def _dict_score(estimate, truth):
    star_free = [r for r in estimate if STAR not in r]
    on_list = dict(zip(star_free, map(truth.get, star_free, repeat(0.0))))
    l1 = left_sum(map(abs, map(sub, map(estimate.__getitem__, star_free), on_list.values())))
    return l1, _dict_generalized_ndcg(
        _dict_strip(estimate, "the estimate has no mass on its star-free records"),
        _dict_strip(on_list, "the truth puts no mass on the estimate's star-free records"),
    )


def _score_input(rng):
    """1-7 queries of 1-4 urls named from LOG_WORDS, so that star records,
    prefixes and non-ASCII names occur; probabilities in eighths, so that
    queries and urls tie; a fifth of the queries without true mass; 30 %
    of the truth's records dropped, and one truth record off the list."""
    estimate, truth = {}, {}
    for qi in rng.choice(len(LOG_WORDS), int(rng.integers(1, 8)), replace=False):
        massless = rng.random() < 0.2
        for ui in rng.choice(len(LOG_WORDS), int(rng.integers(1, 5)), replace=False):
            record = Record(LOG_WORDS[qi], LOG_WORDS[ui])
            estimate[record] = int(rng.integers(0, 9)) / 8
            if rng.random() >= 0.3:
                truth[record] = 0.0 if massless else int(rng.integers(0, 9)) / 8
    if rng.random() < 0.5:
        estimate[WILDCARD] = int(rng.integers(0, 9)) / 8
    truth[Record("off", "list")] = 0.25
    items = list(truth.items())
    return estimate, dict(items[i] for i in rng.permutation(len(items)))


def test_score_matches_the_dict_scorer_bit_for_bit():
    rng = substream(0x5C0, 0)
    raised = 0
    for _ in range(3000):
        estimate, truth = _score_input(rng)
        try:
            want = _dict_score(estimate, truth)
        except ParamError as exc:
            raised += 1
            with pytest.raises(ParamError, match=re.escape(str(exc))):
                score(estimate, truth)
            continue
        got = score(estimate, truth)
        assert [x.hex() for x in got] == [x.hex() for x in want], (estimate, truth)
    assert 0 < raised < 600  # both outcomes are exercised, mostly the scored one


def _wide_score_input(rng):
    """9-60 queries of 1-12 urls, so that the query-level sums run over
    more than eight terms, where `np.sum` stops adding left to right;
    uniform probabilities, a fifth of the queries without true mass and
    30 % of the truth's records dropped."""
    estimate, truth = {}, {}
    for qi in rng.permutation(int(rng.integers(9, 61))):
        massless = rng.random() < 0.2
        for ui in rng.permutation(int(rng.integers(1, 13))):
            record = Record(f"q{qi}", f"u{ui}")
            estimate[record] = float(rng.random())
            if rng.random() >= 0.3:
                truth[record] = 0.0 if massless else float(rng.random())
    estimate[WILDCARD] = float(rng.random())
    return estimate, truth


def test_score_matches_the_dict_scorer_on_wide_lists():
    rng = substream(0x5C1, 0)
    for _ in range(300):
        estimate, truth = _wide_score_input(rng)
        got, want = score(estimate, truth), _dict_score(estimate, truth)
        assert [x.hex() for x in got] == [x.hex() for x in want], (estimate, truth)


def _compensated_sum(values, start=0):
    """Python 3.12's `sum`, which adds floats with Neumaier's compensation."""
    values = list(values)
    if not any(isinstance(x, float) for x in values):
        return sum(values, start)
    total, compensation = float(start), 0.0
    for x in map(float, values):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_scores_are_the_same_floats_under_a_compensated_sum(monkeypatch):
    # The emulation does differ from a left-to-right sum.
    terms = [1e16, 1.0, -1e16]
    assert _compensated_sum(terms) == 1.0 and left_sum(terms) == 0.0
    config = ExperimentConfig()
    dataset = harness.load_dataset(config)
    probs = [
        harness.run_blender(config, dataset, seed=harness.derive_seed(1, i)).blended.probs
        for i in range(20)
    ]
    truth = dict(zip(dataset.record_table, dataset.true_distribution.tolist()))
    want = [score(p, truth) for p in probs]
    monkeypatch.setattr(metrics, "sum", _compensated_sum, raising=False)
    got = [score(p, truth) for p in probs]
    assert [[x.hex() for x in s] for s in got] == [[x.hex() for x in s] for s in want]
