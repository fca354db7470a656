import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hybridhh.client import (
    DegenerateChannelError,
    ReportModel,
    _truth_probability,
    build_report_model,
    client_estimates_from_counts,
    denoise_query,
    denoise_record,
    local_privatize,
    query_variance,
    record_variance,
    simulate_reports,
)
from hybridhh.core import (
    STAR,
    WILDCARD,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    Stage,
    canonicalize,
)
from hybridhh.oracle import enumerate_report_distribution, forward_report_map
from hybridhh.sampling import substream

from conftest import make_augmented_head_list


def noiseless_model(hl) -> ReportModel:
    return ReportModel(
        k=hl.k,
        t=1.0,
        k_q={q: hl.k_q(q) for q in hl.queries},
        t_q={q: 1.0 for q in hl.queries},
        budgets=(math.inf, 0.0, math.inf, 0.0),
    )


class TestTruthProbability:
    def test_zero_budget_is_uniform(self):
        assert _truth_probability(0.0, 0.0, 2) == pytest.approx(0.5)
        assert _truth_probability(0.0, 0.0, 5) == pytest.approx(0.2)

    def test_frozen_example(self):
        # eps=4, f_C=0.85 -> eps_Q=3.4, delta_Q=8.5e-6; k=10.
        assert _truth_probability(3.4, 8.5e-6, 10) == pytest.approx(0.76902, abs=5e-6)

    def test_singleton_is_forced(self):
        assert _truth_probability(1.0, 1e-6, 1) == 1.0


class TestBuildReportModel:
    def test_default_budget_wiring(self, default_params):
        hl = make_augmented_head_list(10, 3)
        model = build_report_model(default_params, hl)
        assert model.budgets == pytest.approx((3.4, 8.5e-6, 0.6, 1.5e-6))
        assert model.k == 10
        assert model.t == pytest.approx(0.76902, abs=5e-6)
        for q in hl.queries:
            kq = model.k_q[q]
            assert kq == hl.k_q(q)
            if kq == 1:
                assert model.t_q[q] == 1.0  # star query: forced truthful url
            else:
                assert 1 / kq < model.t_q[q] <= 1.0

    def test_rejects_unaugmented_list(self, default_params):
        from conftest import make_final_head_list

        with pytest.raises(ParamError):
            build_report_model(default_params, make_final_head_list(3, 2))


class TestLocalPrivatize:
    def test_noiseless_channel_is_identity(self):
        hl = make_augmented_head_list(4, 3)
        model = noiseless_model(hl)
        rng = substream(1, 0)
        rec = Record("q1", "q1/u0")
        for _ in range(50):
            assert local_privatize(rec, model, hl, rng) == rec

    def test_unlisted_input_is_canonicalized_first(self):
        hl = make_augmented_head_list(4, 3)
        model = noiseless_model(hl)
        rng = substream(1, 0)
        assert local_privatize(Record("q1", "nope"), model, hl, rng) == Record("q1", STAR)
        assert local_privatize(Record("nope", "nope"), model, hl, rng) == WILDCARD

    def test_output_always_in_head_list(self, default_params):
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        rng = substream(2, 0)
        for _ in range(2000):
            assert local_privatize(Record("q0", "q0/u1"), model, hl, rng) in hl

    def test_branch_frequencies_match_channel(self, default_params):
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        rng = substream(3, 0)
        rec = Record("q0", "q0/u0")
        n = 200_000
        counts = Counter(local_privatize(rec, model, hl, rng) for _ in range(n))
        t, tq, k, kq = model.t, model.t_q["q0"], model.k, model.k_q["q0"]
        assert counts[rec] / n == pytest.approx(t * tq, abs=0.004)
        assert counts[Record("q0", "q0/u1")] / n == pytest.approx(
            t * (1 - tq) / (kq - 1), abs=0.004
        )
        other_share = (1 - t) / (k - 1) / model.k_q["q1"]
        assert counts[Record("q1", STAR)] / n == pytest.approx(other_share, abs=0.004)

    @pytest.mark.parametrize("rec", [
        Record("q0", "q0/u1"),   # true query first in the list
        Record("q2", "q2/u1"),   # true query in the middle
        WILDCARD,                # true query last
        Record("q1", "q1/u0"),   # true url first in its list
        Record("q1", "q1/u1"),   # true url in the middle
        Record("q1", STAR),      # true url last
    ])
    def test_index_draw_matches_filtered_list_draw(self, rec):
        def reference(record, model, hl, rng):
            # The draw as first written: index into the list without the
            # true entry, rebuilt on every call.
            q, u = record
            if rng.random() < 1.0 - model.t:
                q_prime = [qq for qq in hl.queries if qq != q][int(rng.integers(model.k - 1))]
                urls = hl.urls(q_prime)
                return Record(q_prime, urls[int(rng.integers(len(urls)))])
            if model.k_q[q] == 1:
                return Record(q, hl.urls(q)[0])
            if rng.random() < 1.0 - model.t_q[q]:
                idx = int(rng.integers(model.k_q[q] - 1))
                return Record(q, [uu for uu in hl.urls(q) if uu != u][idx])
            return record

        hl = make_augmented_head_list(5, 4)
        model = ReportModel(
            k=hl.k,
            t=0.3,
            k_q={q: hl.k_q(q) for q in hl.queries},
            t_q={q: 0.3 for q in hl.queries},
            budgets=(1.0, 0.0, 1.0, 0.0),
        )
        rng_a, rng_b = substream(4, 0), substream(4, 0)
        got = [local_privatize(rec, model, hl, rng_a) for _ in range(3000)]
        want = [reference(rec, model, hl, rng_b) for _ in range(3000)]
        assert got == want
        assert len(set(got)) > 1


class TestSimulateReports:
    # Mixed url-list lengths: k_q = 2 and 4, and the star query with k_q = 1.
    HL = HeadList(
        {
            "a": ("a1", STAR),
            "b": ("b1", "b2", "b3", STAR),
            "c": ("c1", STAR),
            "d": ("d1", "d2", "d3", STAR),
            STAR: (STAR,),
        },
        Stage.CLIENT_AUGMENTED,
    )
    # Unlisted inputs are canonicalized first: ("zz", "zz") to the
    # wildcard and ("b", "nope") to ("b", star).
    TRUE_COUNTS = {
        Record("a", "a1"): 300, Record("a", STAR): 50, Record("b", "b1"): 400,
        Record("b", "b2"): 150, Record("b", STAR): 100, Record("c", "c1"): 200,
        Record("d", "d2"): 100, WILDCARD: 100, Record("zz", "zz"): 100,
        Record("b", "nope"): 50,
    }
    REPS = 2000
    Z_BOUND = 4.5   # per cell, over 13 cells

    def test_mean_counts_match_forward_map(self):
        hl = self.HL
        model = build_report_model(PrivacyParams(epsilon=2.0), hl)
        n = sum(self.TRUE_COUNTS.values())
        held = Counter()
        for rec, c in self.TRUE_COUNTS.items():
            held[canonicalize(rec, hl)] += c
        r_rec, _ = forward_report_map({r: c / n for r, c in held.items()}, model, hl)
        outputs = list(hl.records())
        var = np.zeros(len(outputs))
        for rec, c in held.items():
            row = enumerate_report_distribution(rec, model, hl).as_float()
            var += [c * row[r] * (1 - row[r]) for r in outputs]

        rng = substream(0x51A, 0)
        total = np.zeros(len(outputs))
        for _ in range(self.REPS):
            counts = simulate_reports(self.TRUE_COUNTS, model, hl, rng)
            assert sum(counts.values()) == n
            assert all(c > 0 and r in hl for r, c in counts.items())
            total += [counts.get(r, 0) for r in outputs]
        mean = total / self.REPS
        z = (mean - n * np.array([r_rec[r] for r in outputs])) / np.sqrt(var / self.REPS)
        assert np.abs(z).max() <= self.Z_BOUND, dict(zip(outputs, z.round(2)))

    def test_noiseless_channel_is_identity(self):
        hl = make_augmented_head_list(4, 3)
        counts = {Record("q1", "q1/u0"): 7, Record("q2", STAR): 3, WILDCARD: 5}
        assert simulate_reports(counts, noiseless_model(hl), hl, substream(1, 0)) == counts


class TestDenoise:
    def test_query_roundtrip(self):
        t, k = 0.8, 5
        for p in (0.0, 0.1, 0.7, 1.0):
            r = t * p + (1 - t) * (1 - p) / (k - 1)
            assert denoise_query(r, t, k) == pytest.approx(p, abs=1e-14)

    def test_record_roundtrip(self):
        t, tq, k, kq = 0.8, 0.7, 5, 3
        p_q, p = 0.4, 0.25
        r = t * tq * p + t * (1 - tq) / (kq - 1) * (p_q - p) + (1 - t) / ((k - 1) * kq) * (1 - p_q)
        assert denoise_record(r, p_q, t, tq, k, kq) == pytest.approx(p, abs=1e-14)

    def test_single_url_query_inherits_query_estimate(self):
        assert denoise_record(0.9, 0.33, 0.8, 1.0, 5, 1) == 0.33

    def test_uninformative_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            denoise_query(0.5, 1.0 / 3.0, 3)
        with pytest.raises(DegenerateChannelError):
            denoise_record(0.5, 0.5, 0.8, 1.0 / 3.0, 4, 3)


class TestVariances:
    def test_query_variance_frozen_example(self):
        assert query_variance(0.5, 10_000, 0.75, 3) == pytest.approx(6.4006e-5, rel=1e-4)

    def test_query_variance_vanishes_at_degenerate_fraction(self):
        assert query_variance(0.0, 100, 0.75, 3) == 0.0
        assert query_variance(1.0, 100, 0.75, 3) == 0.0

    @given(
        r=st.floats(0.0, 1.0),
        n=st.integers(2, 10**7),
        t=st.floats(0.5, 0.99),
        tq=st.floats(0.5, 0.99),
        k=st.integers(2, 50),
        kq=st.integers(2, 20),
    )
    @settings(max_examples=200)
    def test_record_variance_is_non_negative_and_finite(self, r, n, t, tq, k, kq):
        # A channel with t <= 1/k carries no signal and is rejected upstream.
        assume(t * k > 1.05 and tq * kq > 1.05)
        var_q = query_variance(r, n, t, k)
        v = record_variance(r, var_q, n, t, tq, k, kq)
        assert math.isfinite(v) and v >= 0.0

    def test_single_url_query_inherits_query_variance(self):
        assert record_variance(0.9, 2.5e-4, 100, 0.8, 1.0, 5, 1) == 2.5e-4

    def test_record_variance_shrinks_with_n(self):
        args = (0.3, 0.8, 0.7, 5, 3)
        r = 0.3
        small = record_variance(r, query_variance(r, 100, 0.8, 5), 100, 0.8, 0.7, 5, 3)
        big = record_variance(r, query_variance(r, 10**6, 0.8, 5), 10**6, 0.8, 0.7, 5, 3)
        assert big < small / 100


def _two_loop_reference(counts, n, model, hl):
    """client_estimates_from_counts as first written: query totals from a
    Counter, then a second loop over the records with a branch for
    single-url queries."""
    query_counts = Counter()
    for r, c in counts.items():
        query_counts[r.query] += c
    query_probs, query_vars = {}, {}
    for q in hl.queries:
        r_hat = query_counts[q] / n
        query_probs[q] = denoise_query(r_hat, model.t, model.k)
        query_vars[q] = query_variance(r_hat, n, model.t, model.k)
    record_probs, record_vars = {}, {}
    for q in hl.queries:
        kq, tq = model.k_q[q], model.t_q[q]
        for u in hl.urls(q):
            rec = Record(q, u)
            r_hat = counts.get(rec, 0) / n
            if kq == 1:
                record_probs[rec] = query_probs[q]
                record_vars[rec] = query_vars[q]
            else:
                record_probs[rec] = denoise_record(r_hat, query_probs[q], model.t, tq, model.k, kq)
                record_vars[rec] = record_variance(
                    r_hat, query_vars[q], n, model.t, tq, model.k, kq
                )
    return record_probs, record_vars, query_probs, query_vars


class TestAggregation:
    def test_one_pass_matches_two_loop_reference(self):
        # Mixed k_q, the star query (k_q = 1) included; seeded report counts.
        hl = TestSimulateReports.HL
        model = build_report_model(PrivacyParams(), hl)
        for seed in range(5):
            counts = simulate_reports(
                TestSimulateReports.TRUE_COUNTS, model, hl, substream(0xA66, seed)
            )
            n = sum(counts.values())
            est = client_estimates_from_counts(counts, n, model, hl)
            probs, vars_, qprobs, qvars = _two_loop_reference(counts, n, model, hl)
            assert list(est.record_probs.items()) == list(probs.items())
            assert list(est.record_vars.items()) == list(vars_.items())
            assert list(est.query_probs.items()) == list(qprobs.items())
            assert list(est.query_vars.items()) == list(qvars.items())
            assert est.record_vars[WILDCARD] == est.query_vars[STAR] > 0

    def test_deterministic_channel_recovers_point_mass(self):
        hl = make_augmented_head_list(3, 3)
        model = noiseless_model(hl)
        rec = Record("q0", "q0/u1")
        est = client_estimates_from_counts({rec: 500}, 500, model, hl)
        assert est.record_probs[rec] == pytest.approx(1.0)
        for other in hl.records():
            if other != rec:
                assert est.record_probs[other] == pytest.approx(0.0)
        assert est.query_probs["q0"] == pytest.approx(1.0)

    def test_rejects_foreign_reports_and_tiny_n(self, default_params):
        hl = make_augmented_head_list(3, 2)
        model = build_report_model(default_params, hl)
        with pytest.raises(ParamError):
            client_estimates_from_counts({Record("zzz", "zzz"): 5}, 5, model, hl)
        with pytest.raises(ParamError):
            client_estimates_from_counts({WILDCARD: 1}, 1, model, hl)

    def test_estimates_cover_whole_head_list(self, default_params):
        hl = make_augmented_head_list(4, 3)
        model = build_report_model(default_params, hl)
        est = client_estimates_from_counts({WILDCARD: 10, Record("q0", STAR): 10}, 20, model, hl)
        assert set(est.record_probs) == set(hl.records())
        assert set(est.query_probs) == set(hl.queries)
