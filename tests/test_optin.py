import math
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hybridhh import optin
from hybridhh.core import (
    STAR,
    WILDCARD,
    HeadList,
    ParamError,
    PrivacyParams,
    Record,
    RecordCounts,
    Stage,
    canonicalize,
    record_slots,
)
from hybridhh.data import parse_log, sample_per_user
from hybridhh.optin import (
    compute_threshold,
    create_head_list,
    estimate_optin_probabilities,
    optin_variance,
)
from hybridhh.sampling import laplace_samples, substream

from conftest import LOG_WORDS


@contextmanager
def fixed_noise(value: float):
    """Inside the block every Laplace draw of the curator stage is `value`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optin, "laplace_samples", lambda scale, n, rng: np.full(n, value))
        yield


class TestComputeThreshold:
    def test_defaults_frozen_values(self):
        b_s, tau = compute_threshold(PrivacyParams(epsilon=4, delta=1e-5))
        assert b_s == 0.5
        assert tau == pytest.approx(0.5 * (2 + math.log(1e5)), rel=1e-12)
        assert tau == pytest.approx(6.7565, rel=1e-4)

    def test_smaller_delta_raises_threshold(self):
        b_s, tau = compute_threshold(PrivacyParams(epsilon=4, delta=1e-7))
        assert b_s == 0.5
        assert tau == pytest.approx(9.0595, rel=1e-4)

    def test_rejects_small_epsilon(self):
        with pytest.raises(ParamError, match="ln"):
            compute_threshold(PrivacyParams(epsilon=0.5))
        with pytest.raises(ParamError):
            compute_threshold(PrivacyParams(epsilon=math.log(2)))


class TestCreateHeadList:
    def test_zero_noise_admits_by_count(self, default_params):
        # tau ~ 6.76: counts 10 pass, counts 1 do not.
        records = [Record("hot", "hot.com")] * 10 + [Record("cold", "cold.com")]
        with fixed_noise(0.0):
            hl = create_head_list(default_params, records, substream(0, 0))
        assert hl.stage is Stage.INITIAL
        assert Record("hot", "hot.com") in hl
        assert "cold" not in hl.entries
        assert WILDCARD in hl

    def test_admission_monotone_in_count(self, default_params):
        # For any fixed noise draw, a higher count never flips admit -> reject.
        for noise_value in (-3.0, 0.0, 5.9):
            admitted = []
            for count in (1, 7, 100):
                with fixed_noise(noise_value):
                    hl = create_head_list(
                        default_params, [Record("q", "u")] * count, substream(0, 0)
                    )
                admitted.append(Record("q", "u") in hl)
            assert admitted == sorted(admitted)

    def test_absent_record_never_admitted(self, default_params):
        # Noise that admits any record held once: only the held one gets in.
        present = Record("q", "u")
        with fixed_noise(1e9):
            hl = create_head_list(default_params, [present], substream(0, 0))
        assert present in hl
        assert Record("q", "other-url") not in hl
        assert Record("other-query", "u") not in hl
        assert hl.entries == {"q": ("u",), STAR: (STAR,)}

    def test_reproducible(self, default_params):
        records = [Record(f"q{i}", f"u{i}") for i in range(20) for _ in range(7)]
        a = create_head_list(default_params, records, substream(5, 3))
        b = create_head_list(default_params, records, substream(5, 3))
        assert a.entries == b.entries


class TestOptinVariance:
    def test_frozen_example(self):
        assert optin_variance(0.5, 100, 0.5) == pytest.approx(2.5758e-3, rel=1e-4)
        # Direct formula value; (1000/999)*(0.03*0.97/1000 + 2*(0.5/1000)^2).
        assert optin_variance(0.03, 1000, 0.5) == pytest.approx(2.96296e-5, rel=1e-5)

    def test_zero_probability_reduces_to_noise_term(self):
        n, b = 250, 0.5
        assert optin_variance(0.0, n, b) == pytest.approx(2 * b**2 / (n * (n - 1)), rel=1e-12)

    def test_algebraic_forms_agree(self):
        # (n/(n-1)) (p(1-p)/n + 2 (b/n)^2)  ==  p(1-p)/(n-1) + 2 b^2/(n (n-1))
        p, n, b = 0.3, 1000, 0.5
        alt = p * (1 - p) / (n - 1) + 2 * b**2 / (n * (n - 1))
        assert optin_variance(p, n, b) == pytest.approx(alt, rel=1e-15)

    def test_out_of_range_estimate_is_clamped(self):
        assert optin_variance(-0.2, 100, 0.5) == optin_variance(0.0, 100, 0.5)
        assert optin_variance(1.3, 100, 0.5) == optin_variance(1.0, 100, 0.5)
        assert optin_variance(-0.2, 100, 0.5) > 0

    def test_rejects_bad_args(self):
        with pytest.raises(ParamError):
            optin_variance(0.5, 1, 0.5)
        with pytest.raises(ParamError):
            optin_variance(0.5, 100, 0.0)


@pytest.fixture
def initial_hl(default_params):
    records = (
        [Record("a", "a1")] * 30 + [Record("b", "b1")] * 30 + [Record("b", "b2")] * 30
    )
    with fixed_noise(0.0):
        return create_head_list(default_params, records, substream(0, 0))


class TestEstimateOptinProbabilities:
    def t_records(self):
        return (
            [Record("a", "a1")] * 30
            + [Record("b", "b1")] * 35
            + [Record("b", "b2")] * 15
            + [Record("unlisted", "x")] * 20
        )

    def test_zero_noise_gives_empirical_frequencies(self, default_params, initial_hl):
        with fixed_noise(0.0):
            out = estimate_optin_probabilities(
                default_params, self.t_records(), initial_hl, substream(0, 0)
            )
        est = out.estimates
        assert est.record_probs[Record("a", "a1")] == pytest.approx(0.30)
        assert est.record_probs[Record("b", "b1")] == pytest.approx(0.35)
        assert est.record_probs[Record("b", "b2")] == pytest.approx(0.15)
        assert est.record_probs[WILDCARD] == pytest.approx(0.20)
        assert sum(est.record_probs.values()) == pytest.approx(1.0)
        assert est.sample_size == 100

    def test_final_list_ordered_by_marginal(self, default_params, initial_hl):
        with fixed_noise(0.0):
            out = estimate_optin_probabilities(
                default_params, self.t_records(), initial_hl, substream(0, 0)
            )
        # Marginals: b = 0.5, a = 0.3, star = 0.2.
        assert out.head_list.queries == ("b", "a", STAR)
        assert out.head_list.stage is Stage.FINAL
        assert out.estimates.query_probs["b"] == pytest.approx(0.5)

    def test_trimming_folds_mass_into_wildcard(self, initial_hl):
        params = PrivacyParams(M=1)
        with fixed_noise(0.0):
            out = estimate_optin_probabilities(
                params, self.t_records(), initial_hl, substream(0, 0)
            )
        # Only query b survives; a's 0.3 joins the wildcard's 0.2.
        assert "a" not in out.head_list.entries
        assert out.estimates.record_probs[WILDCARD] == pytest.approx(0.5)
        assert sum(out.estimates.record_probs.values()) == pytest.approx(1.0)
        n_regular = sum(1 for q in out.head_list.queries if q != STAR)
        assert n_regular <= params.M

    def test_unbiased_and_calibrated(self, default_params, initial_hl):
        # Mean of the noisy estimate tracks the true frequency, and the
        # reported variance tracks the empirical variance, when both the
        # dataset and the noise are redrawn each repetition.
        reps, n = 400, 100
        rec = Record("b", "b1")
        pool = [Record("a", "a1"), rec, Record("b", "b2"), Record("unlisted", "x")]
        p_true = [0.30, 0.35, 0.15, 0.20]
        vals, vars_ = [], []
        for i in range(reps):
            rng = substream(77, i)
            draws = rng.choice(len(pool), size=n, p=p_true)
            t_records = [pool[d] for d in draws]
            out = estimate_optin_probabilities(
                default_params, t_records, initial_hl, rng
            )
            vals.append(out.estimates.record_probs[rec])
            vars_.append(out.estimates.record_vars[rec])
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 0.35) < 3 * se
        assert vals.var(ddof=1) == pytest.approx(np.mean(vars_), rel=0.25)

    def test_star_query_records_count_as_wildcard(self, default_params):
        # A log row whose query is `*` decodes to the star query; its mass
        # is wildcard mass, whatever its url, and must not be lost.
        half = [Record(STAR, "foo.com")] * 20 + [Record("a", "a1")] * 20
        with fixed_noise(0.0):
            hl = create_head_list(default_params, half, substream(0, 0))
            out = estimate_optin_probabilities(default_params, half, hl, substream(0, 0))
        assert hl.entries == {"a": ("a1",), STAR: (STAR,)}
        assert out.head_list.urls(STAR) == (STAR,)
        assert out.estimates.record_probs == {Record("a", "a1"): 0.5, WILDCARD: 0.5}
        assert sum(out.estimates.record_probs.values()) == 1.0
        # The star query comes last even when a query sorts after it.
        late = [Record(STAR, "foo.com")] * 20 + [Record("日本", "jp")] * 20
        with fixed_noise(0.0):
            hl = create_head_list(default_params, late, substream(0, 0))
        assert hl.queries == ("日本", STAR)

    def test_star_url_is_never_admitted(self, default_params):
        # A log url `*` decodes to the star url. Its mass is unlisted mass
        # of its query, so the curator never lists (foo, star) as a record.
        log = (
            [Record("foo", "a")] * 20 + [Record("foo", STAR)] * 10
            + [Record("foo", "b")] * 10 + [Record("bar", "c")] * 10
        )
        with fixed_noise(0.0):
            hl = create_head_list(default_params, log, substream(0, 0))
            out = estimate_optin_probabilities(default_params, log, hl, substream(0, 0))
        assert hl.entries == {"bar": ("c",), "foo": ("a", "b"), STAR: (STAR,)}
        final = out.head_list
        assert HeadList(final.entries, Stage.FINAL) == final
        assert Record("foo", STAR) not in final
        assert out.estimates.record_probs == {
            Record("foo", "a"): 0.4, Record("foo", "b"): 0.2,
            Record("bar", "c"): 0.2, WILDCARD: 0.2,
        }

    def test_rejects_small_t_and_wrong_stage(self, default_params, initial_hl):
        with pytest.raises(ParamError):
            estimate_optin_probabilities(
                default_params, [Record("a", "a1")], initial_hl, substream(0, 0)
            )
        final = estimate_optin_probabilities(
            default_params, self.t_records(), initial_hl, substream(0, 0)
        ).head_list
        with pytest.raises(ParamError):
            estimate_optin_probabilities(
                default_params, self.t_records(), final, substream(0, 0)
            )


def _per_record_reference(params, s_records, t_records, s_rng, t_rng):
    """The curator stage with one Laplace draw per record, as a reference
    for the vector draws: sorted distinct S-records for admission, then
    the initial list's records for estimation."""
    b_s, tau = compute_threshold(params)
    s_counts = Counter(s_records)
    entries = {}
    for record in sorted(s_counts):
        if s_counts[record] + float(laplace_samples(b_s, 1, s_rng)[0]) > tau:
            entries.setdefault(record.query, [])
            if record.url not in entries[record.query]:
                entries[record.query].append(record.url)
    entries.setdefault(STAR, [])
    if STAR not in entries[STAR]:
        entries[STAR].append(STAR)
    hl_initial = HeadList(entries, Stage.INITIAL)

    b_t = 2.0 * params.m_O / params.epsilon
    canon = [canonicalize(r, hl_initial) for r in t_records]
    n = len(canon)
    t_counts = Counter(canon)
    p_hat = {}
    for record in hl_initial.records():
        p_hat[record] = (t_counts[record] + float(laplace_samples(b_t, 1, t_rng)[0])) / n
    marginals = {
        q: sum(p_hat[Record(q, u)] for u in hl_initial.urls(q)) for q in hl_initial.queries
    }
    regular = [q for q in hl_initial.queries if q != STAR]
    keep = sorted(regular, key=lambda q: (-marginals[q], q))[: params.M]
    star_mass = p_hat[WILDCARD]
    for q in regular:
        if q not in keep:
            star_mass += sum(p_hat[Record(q, u)] for u in hl_initial.urls(q))
    query_probs = {q: marginals[q] for q in keep}
    query_probs[STAR] = star_mass
    order = sorted(query_probs, key=lambda q: (-query_probs[q], q))
    final_entries = {q: hl_initial.urls(q) if q != STAR else (STAR,) for q in order}
    record_probs = {}
    for q, urls in final_entries.items():
        for u in urls:
            record_probs[Record(q, u)] = star_mass if q == STAR else p_hat[Record(q, u)]
    record_vars = {r: optin_variance(p, n, b_t) for r, p in record_probs.items()}
    query_probs = {q: query_probs[q] for q in order}
    return hl_initial, final_entries, record_probs, record_vars, query_probs


class TestVectorDraws:
    @pytest.mark.parametrize("seed, M, t_skips", [
        pytest.param(31, 5, 0, id="trims"),
        pytest.param(35, 2, 0, id="trims-to-two"),
        # M exceeds the admitted queries.
        pytest.param(33, 1000, 0, id="trims-nothing"),
        # T holds no record of three admitted queries.
        pytest.param(34, 1000, 3, id="clamps"),
    ])
    def test_matches_per_record_reference(self, seed, M, t_skips):
        params = PrivacyParams(M=M)
        rng = substream(seed, 0)
        # The heaviest query, "solo", lists a single url.
        pool = [Record("solo", "solo/u")] + [
            Record(f"q{i}", f"q{i}/u{j}") for i in range(30) for j in range(3)
        ]
        weights = 1.0 / np.arange(1, len(pool) + 1)
        s_records = [pool[d] for d in rng.choice(len(pool), size=3000, p=weights / weights.sum())]
        # T skips the records of queries q0 .. q{t_skips - 1}; their
        # estimates are pure noise, and some fall below 0.
        weights[1:1 + 3 * t_skips] = 0.0
        t_records = [pool[d] for d in rng.choice(len(pool), size=1500, p=weights / weights.sum())]

        ref_initial, ref_entries, ref_probs, ref_vars, ref_qprobs = _per_record_reference(
            params, s_records, t_records, substream(seed, 3), substream(seed, 4)
        )
        hl_initial = create_head_list(params, s_records, substream(seed, 3))
        out = estimate_optin_probabilities(params, t_records, hl_initial, substream(seed, 4))

        assert ref_initial.urls("solo") == ("solo/u",)
        # The fold into the wildcard runs exactly when queries are trimmed.
        assert (len(ref_initial.queries) - 1 > params.M) == (M < 1000)
        if t_skips:
            # The variance's clamp runs.
            assert min(ref_probs.values()) < 0
        assert list(hl_initial.entries.items()) == list(ref_initial.entries.items())
        assert list(out.head_list.entries.items()) == list(ref_entries.items())
        est = out.estimates
        assert est.record_probs == ref_probs
        assert est.record_vars == ref_vars
        assert list(est.query_probs.items()) == list(ref_qprobs.items())

    def test_record_counts_give_the_same_output_as_record_lists(self):
        # A run passes count views over its dataset's table, the acceptance
        # tests pass lists.
        params = PrivacyParams(M=5)
        rng = substream(32, 0)
        pool = [Record(f"q{i}", f"q{i}/u{j}") for i in range(30) for j in range(3)]
        weights = 1.0 / np.arange(1, len(pool) + 1)
        weights /= weights.sum()
        s_records = [pool[d] for d in rng.choice(len(pool), size=3000, p=weights)]
        t_records = [pool[d] for d in rng.choice(len(pool), size=1500, p=weights)]
        # One record per user: S's users come first, then T's.
        ds = parse_log("".join(
            f"u{i}\t{rec.query}\t{rec.url}\n" for i, rec in enumerate(s_records + t_records)
        ))
        s_view, t_view = (
            RecordCounts(ds.record_table, sample_per_user(ds, users, substream(32, 1)))
            for users in (np.arange(3000), np.arange(3000, 4500))
        )

        outputs = []
        for s_in, t_in in (
            (s_records, t_records), (Counter(s_records), Counter(t_records)), (s_view, t_view),
        ):
            rngs = substream(32, 3), substream(32, 4)
            hl_initial = create_head_list(params, s_in, rngs[0])
            out = estimate_optin_probabilities(params, t_in, hl_initial, rngs[1])
            states = [rng.bit_generator.state for rng in rngs]
            outputs.append((list(hl_initial.entries.items()), out, states))
        (entries, first, states), *others = outputs
        for other_entries, out, other_states in others:
            assert (other_entries, other_states) == (entries, states)
            assert out.head_list == out.estimates.head_list == first.head_list
            for name in ("p", "var", "query_p", "query_var"):
                got, want = getattr(out.estimates, name), getattr(first.estimates, name)
                assert got.tolist() == want.tolist()
            assert out.estimates.sample_size == first.estimates.sample_size == 1500


class TestCarriedIds:
    """An admission keeps its records' table ids on the list, and the
    final and augmented lists derive theirs; each is trusted only with
    the table it was admitted from."""

    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(LOG_WORDS), st.sampled_from(LOG_WORDS)),
            min_size=1, max_size=40,
        ),
        weights=st.lists(st.integers(0, 30), min_size=40, max_size=40),
        M=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_carried_ids_name_their_records(self, rows, weights, M, seed):
        table = parse_log("".join(f"u{i}\t{q}\t{u}\n" for i, (q, u) in enumerate(rows))).record_table
        s_counts = np.array(weights[:len(table)], dtype=np.int64)
        # Every record held twice or more: T never falls below two records.
        t_counts = np.array(weights[::-1][:len(table)], dtype=np.int64) + 2
        params = PrivacyParams(M=M)
        initial = create_head_list(params, RecordCounts(table, s_counts), substream(seed, 0))
        assume(initial.k > 1)
        final, _ = estimate_optin_probabilities(
            params, RecordCounts(table, t_counts), initial, substream(seed, 1)
        )
        for hl in (initial, final, final.augment_for_clients()):
            assert hl.carried[0] is table
            records = list(hl.records())
            named = [table[i] if i >= 0 else None for i in hl.carried[1].tolist()]
            assert named == [None if STAR in rec else rec for rec in records]
            want = [records.index(canonicalize(rec, hl)) for rec in table]
            assert record_slots(table, hl).tolist() == want

    def test_ids_are_not_trusted_with_another_table(self):
        # S's list carries the ids of a table of S's records; T's records
        # form another table, whose ids the carried ones do not number.
        params = PrivacyParams(M=1000)
        pool = [Record(f"q{i}", f"q{i}/u{j}") for i in range(30) for j in range(3)]
        rng = substream(36, 0)
        weights = 1.0 / np.arange(1, len(pool) + 1)
        s_records = [pool[d] for d in rng.choice(len(pool), size=3000, p=weights / weights.sum())]
        t_records = [pool[d] for d in rng.choice(len(pool) // 2, size=1500)]
        hl = create_head_list(params, s_records, substream(36, 3))
        t_table = RecordCounts.of(Counter(t_records)).table
        assert hl.carried is not None and hl.carried[0] is not t_table
        searched = HeadList(hl.entries, Stage.INITIAL)
        assert record_slots(t_table, hl).tolist() == record_slots(t_table, searched).tolist()
        got = estimate_optin_probabilities(params, t_records, hl, substream(36, 4))
        want = estimate_optin_probabilities(params, t_records, searched, substream(36, 4))
        assert got.head_list == want.head_list
        assert got.estimates.record_probs == want.estimates.record_probs
