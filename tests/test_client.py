import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hybridhh.client import (
    DegenerateChannelError,
    ReportModel,
    _truth_probability,
    build_report_model,
    client_estimates_from_counts,
    denoise_query,
    denoise_record,
    local_privatize,
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
    record_slots,
)
from hybridhh.data import parse_log
from hybridhh.oracle import enumerate_report_distribution, forward_report_map
from hybridhh.sampling import substream

from conftest import LOG_WORDS, make_augmented_head_list


def held_of(true_counts, hl) -> np.ndarray:
    """Clients per slot of `hl.records()`, each record canonicalized."""
    records = list(hl.records())
    held = np.zeros(len(records), dtype=np.int64)
    for rec, c in true_counts.items():
        held[records.index(canonicalize(rec, hl))] += c
    return held


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


class CountingGenerator:
    """A Generator that counts its binomial, multinomial and integers calls."""

    COUNTED = ("binomial", "multinomial", "integers")

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)
        if name not in self.COUNTED:
            return method

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


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

    def exact_and_drawn(self, epsilon):
        """Each output's exact count mean, from the forward map, and exact
        count variance, summed over the true records' channel rows, and
        REPS count vectors drawn by simulate_reports."""
        hl = self.HL
        model = build_report_model(PrivacyParams(epsilon=epsilon), hl)
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
        drawn = np.empty((self.REPS, len(outputs)))
        for rep in range(self.REPS):
            counts = simulate_reports(held_of(self.TRUE_COUNTS, hl), model, hl, rng)
            assert sum(counts.values()) == n
            assert all(c > 0 and r in hl for r, c in counts.items())
            drawn[rep] = [counts.get(r, 0) for r in outputs]
        return outputs, n * np.array([r_rec[r] for r in outputs]), var, drawn

    def test_mean_counts_match_forward_map(self):
        outputs, mean, var, drawn = self.exact_and_drawn(2.0)
        z = (drawn.mean(axis=0) - mean) / np.sqrt(var / self.REPS)
        assert np.abs(z).max() <= self.Z_BOUND, dict(zip(outputs, z.round(2)))

    @pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0])
    def test_count_variances_match_multinomial(self, epsilon):
        # Bound fixed before the run: each cell's empirical variance over
        # REPS draws within [0.85, 1.15] of its exact variance.
        outputs, _, var, drawn = self.exact_and_drawn(epsilon)
        ratio = drawn.var(axis=0, ddof=1) / var
        assert ((ratio >= 0.85) & (ratio <= 1.15)).all(), dict(zip(outputs, ratio.round(3)))

    def test_draws_in_whole_array_calls(self):
        # Two binomial calls, one integers call, and one multinomial per
        # url-list length for each of the two spreads.
        hl = make_augmented_head_list(200, 3)
        model = build_report_model(PrivacyParams(), hl)
        held = np.full(hl.num_records(), 40, dtype=np.int64)
        rng = CountingGenerator(substream(0xCA11, 0))
        counts = simulate_reports(held, model, hl, rng)
        assert sum(counts.values()) == held.sum()
        widths = {model.k_q[q] for q in hl.queries}
        assert rng.calls <= 3 + 2 * len(widths)

    def test_counts_are_a_view_over_the_slots(self):
        # The denoiser reads the view's array; a plain dict of the same
        # counts, as the acceptance criteria pass, gives the same floats.
        hl = make_augmented_head_list(6, 3)
        model = build_report_model(PrivacyParams(), hl)
        held = np.arange(hl.num_records(), dtype=np.int64) * 7
        counts = simulate_reports(held, model, hl, substream(0xC0, 1))
        assert counts.counts.shape == (hl.num_records(),)
        plain = dict(counts.items())
        assert list(plain) == [r for r, c in zip(hl.records(), counts.counts.tolist()) if c]
        assert sum(c for r, c in counts.items() if STAR in r) == sum(
            c for r, c in zip(hl.records(), counts.counts.tolist()) if STAR in r
        )
        n = int(held.sum())
        got = client_estimates_from_counts(counts, n, model, hl)
        want = client_estimates_from_counts(plain, n, model, hl)
        for name in ("p", "var", "query_p", "query_var"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()

    def test_noiseless_channel_is_identity(self):
        hl = make_augmented_head_list(4, 3)
        counts = {Record("q1", "q1/u0"): 7, Record("q2", STAR): 3, WILDCARD: 5}
        held = held_of(counts, hl)
        assert simulate_reports(held, noiseless_model(hl), hl, substream(1, 0)) == counts


def simulate_reports_reference(held, model, hl, rng):
    """simulate_reports read as plain loops over the same draw order:
    each stage's scalar draws slot by slot in slot order, every
    multinomial stage one url-list length at a time in increasing order,
    and each spread added through the list without the true entry. Each
    array call of simulate_reports consumes the stream as its scalar
    draws in turn do, so no stage reuses an array call."""
    records = list(hl.records())
    queries = hl.queries
    query_of = [q for q in queries for _ in hl.urls(q)]
    slots_of = {q: [i for i, r in enumerate(records) if r.query == q] for q in queries}
    live = [i for i in range(len(records)) if held[i]]
    n_q = {i: int(rng.binomial(int(held[i]), model.t)) for i in live}
    n_u = {i: int(rng.binomial(n_q[i], model.t_q[query_of[i]])) for i in live}
    reports = [0] * len(records)
    for i in live:
        reports[i] += n_u[i]
    spilled = [i for i in live if n_q[i] > n_u[i]]
    for w in sorted({model.k_q[query_of[i]] for i in spilled}):
        for i in spilled:
            if model.k_q[query_of[i]] == w:
                moved = rng.multinomial(n_q[i] - n_u[i], [1.0 / (w - 1)] * (w - 1))
                others = [s for s in slots_of[query_of[i]] if s != i]
                for s, c in zip(others, moved.tolist()):
                    reports[s] += c
    landed = dict.fromkeys(queries, 0)
    for i in live:
        others = [q for q in queries if q != query_of[i]]
        for _ in range(int(held[i]) - n_q[i]):
            landed[others[int(rng.integers(model.k - 1))]] += 1
    for w in sorted({model.k_q[q] for q in queries if landed[q]}):
        for q in queries:
            if landed[q] and model.k_q[q] == w:
                moved = rng.multinomial(landed[q], [1.0 / w] * w)
                for s, c in zip(slots_of[q], moved.tolist()):
                    reports[s] += c
    return {r: c for r, c in zip(records, reports) if c}


class TestSimulateReportsMatchesReference:
    # "e" lists only the star url (k_q = 1), as does the star query; no
    # client holds a record of "f", so its other-query pool stays empty.
    HL = HeadList(
        {
            "a": ("a1", STAR),
            "b": ("b1", "b2", "b3", STAR),
            "e": (STAR,),
            "f": ("f1", "f2", STAR),
            STAR: (STAR,),
        },
        Stage.CLIENT_AUGMENTED,
    )
    HELD = (40, 0, 300, 0, 25, 60, 12, 0, 0, 0, 90)
    # The smallest list a channel allows: one regular query (k = 2).
    PAIR = HeadList({"a": ("a1", "a2", STAR), STAR: (STAR,)}, Stage.CLIENT_AUGMENTED)

    @pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_counts_and_stream(self, epsilon, seed):
        cases = [
            (self.HL, np.array(self.HELD, dtype=np.int64)),
            (self.PAIR, np.array([0, 500, 7, 30], dtype=np.int64)),
        ]
        for hl, held in cases:
            model = build_report_model(PrivacyParams(epsilon=epsilon), hl)
            rng_a, rng_b = substream(0x5EF, seed), substream(0x5EF, seed)
            got = simulate_reports(held, model, hl, rng_a)
            assert got == simulate_reports_reference(held, model, hl, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_zero_clients_draw_nothing(self):
        hl = self.HL
        model = build_report_model(PrivacyParams(), hl)
        rng = substream(0x5EF, 9)
        before = rng.bit_generator.state
        held = np.zeros(hl.num_records(), dtype=np.int64)
        assert simulate_reports(held, model, hl, rng) == {}
        assert rng.bit_generator.state == before


# List fields add words no log holds to `LOG_WORDS`.
LIST_WORDS = ("q1", "q10", "q2", "\u00e9", "\u65e5\u672c", "q1/u", "absent", "q100", "q1\x00")


class TestRecordSlots:
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(LOG_WORDS), st.sampled_from(LOG_WORDS)),
            min_size=1, max_size=30,
        ),
        entries=st.dictionaries(
            st.sampled_from(LIST_WORDS),
            st.lists(st.sampled_from(LIST_WORDS), min_size=1, max_size=4, unique=True),
            max_size=5,
        ),
    )
    @example(
        # Listed q1 and q10 share a prefix; q10 lists "\u00e9" but the log
        # holds ("q10", "a"); q2 is unlisted; star queries and urls.
        rows=[(0, "q1", "a"), (0, "q10", "b"), (1, "q1", "*"), (1, "*", "*"), (2, "*", "a"),
              (2, "\u00e9", "\u65e5\u672c"), (3, "q10", "a"), (3, "q2", "\u00e9")],
        entries={"q10": ["b", "\u00e9"], "q1": ["a"], "\u00e9": ["\u65e5\u672c"]},
    )
    @example(
        rows=[(0, "q1", "a"), (1, "q10", "q1"), (2, "*", "*")],
        entries={"absent": ["x"], "q100": ["q1"]},
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_canonicalize(self, rows, entries):
        table = parse_log("".join(f"u{user}\t{q}\t{u}\n" for user, q, u in rows)).record_table
        index = dict(zip(table, range(len(table))))
        # The entries cut to the records the table holds, as an admission
        # from the table lists them: such a list can carry its ids.
        cut = {q: [u for u in urls if Record(q, u) in index] for q, urls in entries.items()}
        admitted = {q: urls for q, urls in cut.items() if urls}
        for listed in (entries, admitted):
            final = HeadList({**listed, STAR: (STAR,)}, Stage.FINAL)
            initial = HeadList(final.entries, Stage.INITIAL)
            for hl in (initial, final, final.augment_for_clients()):
                records = list(hl.records())
                want = [records.index(canonicalize(rec, hl)) for rec in table]
                assert record_slots(table, hl).tolist() == want
                if listed is admitted:
                    # The same list carrying the table's ids, -1 on star records.
                    ids = np.array([-1 if STAR in rec else index[rec] for rec in records])
                    carried = HeadList(hl.entries, hl.stage, (table, ids))
                    assert record_slots(table, carried).tolist() == want


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


def _single_query_estimates(c, c_q, n, t, tq, k, kq):
    """Estimates of a k-query list whose query "q0" gets c_q of n reports,
    c of them on its first url; the rest land on the star query."""
    hl = make_augmented_head_list(k, kq)
    model = ReportModel(
        k=hl.k,
        t=t,
        k_q={q: hl.k_q(q) for q in hl.queries},
        t_q={q: tq for q in hl.queries},
        budgets=(1.0, 0.0, 1.0, 0.0),
    )
    urls = hl.urls("q0")
    counts = {Record("q0", urls[0]): c, Record("q0", urls[1]): c_q - c, WILDCARD: n - c_q}
    return client_estimates_from_counts({r: x for r, x in counts.items() if x}, n, model, hl)


class TestVariances:
    def test_query_variance_frozen_example(self):
        est = _single_query_estimates(2500, 5000, 10_000, 0.75, 0.75, 3, 3)
        assert est.query_vars["q0"] == pytest.approx(6.4006e-5, rel=1e-4)

    def test_query_variance_vanishes_at_degenerate_fraction(self):
        for c_q in (0, 100):
            est = _single_query_estimates(0, c_q, 100, 0.75, 0.75, 3, 3)
            assert est.query_vars["q0"] == est.query_vars[STAR] == 0.0

    @given(
        n=st.integers(2, 10**7),
        r_q=st.floats(0.0, 1.0),
        share=st.floats(0.0, 1.0),
        t=st.floats(0.5, 0.99),
        tq=st.floats(0.5, 0.99),
        k=st.integers(2, 50),
        kq=st.integers(2, 20),
    )
    @example(n=10**4, r_q=0.3, share=1.0, t=0.8, tq=0.7, k=5, kq=3)     # r_qu = r_q
    @example(n=10**4, r_q=0.0, share=0.0, t=0.8, tq=0.7, k=5, kq=3)     # r_q = 0
    @example(n=10**4, r_q=1.0, share=1.0, t=0.8, tq=0.7, k=5, kq=3)     # r_qu = r_q = 1
    @example(n=10**4, r_q=1.0, share=0.0, t=0.8, tq=0.7, k=5, kq=3)     # r_q = 1, r_qu = 0
    @settings(max_examples=200, deadline=None)
    def test_record_variance_is_non_negative_and_finite(self, n, r_q, share, t, tq, k, kq):
        # A channel with t <= 1/k carries no signal and is rejected upstream.
        assume(t * k > 1.05 and tq * kq > 1.05)
        c_q = round(r_q * n)
        est = _single_query_estimates(round(share * c_q), c_q, n, t, tq, k, kq)
        for v in (*est.record_vars.values(), *est.query_vars.values()):
            assert math.isfinite(v) and v >= 0.0

    def test_single_url_query_inherits_query_variance(self):
        est = _single_query_estimates(30, 70, 100, 0.8, 0.7, 5, 3)
        assert est.record_vars[WILDCARD] == est.query_vars[STAR] > 0
        assert est.record_probs[WILDCARD] == est.query_probs[STAR]

    def test_record_variance_shrinks_with_n(self):
        rec = Record("q0", "q0/u0")
        small = _single_query_estimates(30, 70, 100, 0.8, 0.7, 5, 3).record_vars[rec]
        big = _single_query_estimates(300_000, 700_000, 10**6, 0.8, 0.7, 5, 3).record_vars[rec]
        assert big < small / 100

    def test_record_variances_are_calibrated(self):
        # Acceptance criterion 4's 3 x 3 + star instance: n client reports
        # per repetition, one multinomial draw from the exact forward map.
        # Bounds fixed before the run: summed empirical / reported variance
        # within 1 +- 0.05, each record's within 1 +- 0.15.
        entries = {q: tuple(f"{q}{j}" for j in range(1, 4)) for q in ("a", "b", "c")}
        entries[STAR] = (STAR,)
        hl = HeadList(entries, Stage.FINAL).augment_for_clients()
        p_true = {
            Record("a", "a1"): 0.18, Record("a", "a2"): 0.10, Record("a", "a3"): 0.07,
            Record("b", "b1"): 0.14, Record("b", "b2"): 0.09, Record("b", "b3"): 0.05,
            Record("c", "c1"): 0.12, Record("c", "c2"): 0.08, Record("c", "c3"): 0.04,
            WILDCARD: 0.13,
        }
        model = build_report_model(PrivacyParams(M=3), hl)
        r_rec, _ = forward_report_map(p_true, model, hl)
        records = list(hl.records())
        r_vec = np.array([r_rec[r] for r in records])
        n, reps = 10_000, 2000
        est = np.empty((reps, len(records)))
        reported = np.empty((reps, len(records)))
        for rep in range(reps):
            draw = substream(0xCA1C, rep).multinomial(n, r_vec / r_vec.sum())
            e = client_estimates_from_counts(dict(zip(records, draw.tolist())), n, model, hl)
            est[rep] = [e.record_probs[r] for r in records]
            reported[rep] = [e.record_vars[r] for r in records]
        emp, rep_var = est.var(axis=0, ddof=1), reported.mean(axis=0)
        assert abs(emp.sum() / rep_var.sum() - 1) <= 0.05
        ratios = emp / rep_var
        assert np.abs(ratios - 1).max() <= 0.15, dict(zip(records, ratios.round(3)))


def _per_record_reference(counts, n, model, hl):
    """client_estimates_from_counts read record by record in plain Python:
    the channel inverted stage by stage, and each record's variance as
    a^2 r_qu (1 - r_qu) + b^2 r_q (1 - r_q) + 2ab r_qu (1 - r_q), over n - 1,
    where the estimate is a * r_qu + b * r_q plus a constant."""
    t, k = model.t, model.k
    background = (1 - t) / (k - 1)
    g_q = t - background
    probs, vars_, qprobs, qvars = {}, {}, {}, {}
    for q in hl.queries:
        kq, tq = model.k_q[q], model.t_q[q]
        r_q = sum(counts.get(Record(q, u), 0) for u in hl.urls(q)) / n
        qprobs[q] = (r_q - background) / g_q
        qvars[q] = r_q * (1 - r_q) / (g_q**2 * (n - 1))
        for u in hl.urls(q):
            rec = Record(q, u)
            r_qu = counts.get(rec, 0) / n
            if kq == 1:
                a, b = 0.0, 1 / g_q
                probs[rec] = qprobs[q]
            else:
                a = 1 / (t * (tq - (1 - tq) / (kq - 1)))
                b = a * (background / kq - t * (1 - tq) / (kq - 1)) / g_q
                spill = background * (1 - qprobs[q]) / kq
                probs[rec] = a * (r_qu - t * (1 - tq) * qprobs[q] / (kq - 1) - spill)
            vars_[rec] = (
                a * a * r_qu * (1 - r_qu) + b * b * r_q * (1 - r_q) + 2 * a * b * r_qu * (1 - r_q)
            ) / (n - 1)
    return probs, vars_, qprobs, qvars


class TestAggregation:
    def test_matches_per_record_reference(self):
        # Mixed k_q, the star query (k_q = 1) included; seeded report counts.
        hl = TestSimulateReports.HL
        model = build_report_model(PrivacyParams(), hl)
        for seed in range(5):
            counts = simulate_reports(
                held_of(TestSimulateReports.TRUE_COUNTS, hl), model, hl, substream(0xA66, seed)
            )
            n = sum(counts.values())
            est = client_estimates_from_counts(counts, n, model, hl)
            probs, vars_, qprobs, qvars = _per_record_reference(counts, n, model, hl)
            # The same formulas in another order of float64 operations:
            # equal to a few ulps, in absolute terms for the probabilities.
            for have, want, floor in (
                (est.record_probs, probs, 1e-15), (est.query_probs, qprobs, 1e-15),
                (est.record_vars, vars_, 0.0), (est.query_vars, qvars, 0.0),
            ):
                assert list(have) == list(want)
                assert list(have.values()) == pytest.approx(list(want.values()), rel=1e-12, abs=floor)
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
