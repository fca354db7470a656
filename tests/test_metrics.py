import math

import pytest

from hybridhh import data, harness, metrics
from hybridhh.core import (
    STAR, WILDCARD, ParamError, PrivacyParams, Record, RecordCounts, canonicalize,
)
from hybridhh.harness import ExperimentConfig, SynthSpec
from hybridhh.metrics import (
    RankedEstimate,
    generalized_ndcg,
    l1_distance,
    ndcg_list,
    score,
    strip_stars_and_rescale,
)
from hybridhh.sampling import substream


def ranked(probs):
    return strip_stars_and_rescale(probs)


class TestL1:
    def test_identical_vectors(self):
        v = {Record("a", "x"): 0.6, Record("b", "y"): 0.4}
        assert l1_distance(v, v) == 0.0

    def test_hand_value(self):
        a = {Record("a", "x"): 0.6, Record("b", "y"): 0.4}
        b = {Record("a", "x"): 0.5, Record("b", "y"): 0.5}
        assert l1_distance(a, b) == pytest.approx(0.2)

    def test_key_mismatch_rejected(self):
        with pytest.raises(ParamError):
            l1_distance({Record("a", "x"): 1.0}, {Record("b", "y"): 1.0})


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
        records = {Record(q, u) for q in est.queries for u in est.url_orders[q]}
        assert records == {Record("a", "x"), Record("b", "y")}
        assert sum(-p for pairs in est.ranked.values() for p, _ in pairs) == pytest.approx(1.0)
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
        assert est.url_orders["b"] == ("y1", "y2")

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
        assert est.url_orders["a"] == ("w", "x", "y", "z")

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
        queries, url_orders = _per_query_scan(probs)
        assert est.queries == queries
        assert est.url_orders == url_orders

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
                Record("q2", "c"): 0.4,
                Record("q2", "d"): 0.2,
                Record("q1", "a"): 0.3,
                Record("q1", "b"): 0.1,
            }
        )
        assert generalized_ndcg(est, truth) == pytest.approx(1 / math.log2(3))

    def test_empty_truth_rejected(self):
        truth = self.truth()
        with pytest.raises(ParamError):
            generalized_ndcg(
                truth,
                RankedEstimate((), {}, {}, {}),
            )


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
        T picks, the first two `sample_per_user` results."""
        config = ExperimentConfig(
            params=PrivacyParams(M=10), synth=SynthSpec(users=3000, queries=40, urls=3), seed=5
        )
        dataset = harness.load_dataset(config)
        if source == "tsv":
            # Two log lines per user, and no known truth.
            dataset = data.parse_log("".join(
                f"u{i // 2}\t{user.records[0].query}\t{user.records[0].url}\n"
                for i, user in enumerate(dataset.users)
            ))
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
            raw = data.empirical_distribution(
                RecordCounts(dataset.record_table, picks[0] + picks[1])
            )
        else:
            raw = dataset.true_distribution
        hl = result.head_list
        assert any(rec not in hl for rec in raw), "the truth should reach past the list"
        folded = {r: 0.0 for r in hl.records()}
        for rec, mass in raw.items():
            folded[canonicalize(rec, hl)] += mass
        by_raw = score(result.blended.probs, raw)
        assert by_raw == score(result.blended.probs, folded)
        assert by_raw == score(result.blended.probs, passed)
        assert by_raw == (result.row.l1, result.row.ndcg)
