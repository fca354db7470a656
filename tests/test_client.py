import math
from collections import Counter

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
)
from hybridhh.core import STAR, WILDCARD, ParamError, PrivacyParams, Record
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

    def test_record_variance_shrinks_with_n(self):
        args = (0.3, 0.8, 0.7, 5, 3)
        r = 0.3
        small = record_variance(r, query_variance(r, 100, 0.8, 5), 100, 0.8, 0.7, 5, 3)
        big = record_variance(r, query_variance(r, 10**6, 0.8, 5), 10**6, 0.8, 0.7, 5, 3)
        assert big < small / 100


class TestAggregation:
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
