import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hybridhh.core import (
    STAR,
    WILDCARD,
    EstimateVector,
    HeadList,
    HeadListError,
    ParamError,
    PrivacyParams,
    Record,
    Stage,
    canonicalize,
    decode_star,
    encode_star,
)

from conftest import make_final_head_list


@pytest.fixture
def initial_hl():
    return HeadList(
        {"google": ("google.com", "mail.google.com"), "yahoo": ("yahoo.com",), STAR: (STAR,)},
        Stage.INITIAL,
    )


class TestCanonicalize:
    def test_member_is_unchanged(self, initial_hl):
        rec = Record("google", "google.com")
        assert canonicalize(rec, initial_hl) == rec

    def test_absent_record_becomes_wildcard(self, initial_hl):
        assert canonicalize(Record("rare-query", "x.com"), initial_hl) == WILDCARD

    def test_listed_query_unlisted_url_becomes_wildcard_in_initial(self, initial_hl):
        # Initial-stage canonicalization is all-or-nothing on the record.
        assert canonicalize(Record("google", "unlisted.com"), initial_hl) == WILDCARD

    def test_client_stage_maps_url_to_star(self, initial_hl):
        aug = initial_hl.augment_for_clients()
        assert canonicalize(Record("google", "unlisted.com"), aug) == Record("google", STAR)

    def test_client_stage_maps_query_to_star(self, initial_hl):
        aug = initial_hl.augment_for_clients()
        assert canonicalize(Record("nope", "nope.com"), aug) == WILDCARD

    @given(q=st.text(min_size=1, max_size=8), u=st.text(min_size=1, max_size=8))
    def test_idempotent_and_member(self, q, u):
        base = HeadList(
            {"google": ("google.com", "mail.google.com"), "yahoo": ("yahoo.com",), STAR: (STAR,)},
            Stage.INITIAL,
        )
        for hl in (base, base.augment_for_clients()):
            once = canonicalize(Record(q, u), hl)
            assert once in hl
            assert canonicalize(once, hl) == once


class TestHeadList:
    def test_initial_requires_wildcard(self):
        with pytest.raises(HeadListError):
            HeadList({"google": ("google.com",)}, Stage.INITIAL)

    def test_star_query_holds_only_the_wildcard(self):
        with pytest.raises(HeadListError, match="star query"):
            HeadList({"g": ("a",), STAR: ("foo", STAR)}, Stage.INITIAL)
        with pytest.raises(HeadListError, match="star query"):
            HeadList({"g": ("a",), STAR: ("foo",)}, Stage.FINAL)

    def test_regular_query_cannot_list_the_star_url(self):
        for stage in (Stage.INITIAL, Stage.FINAL):
            with pytest.raises(HeadListError, match="star url"):
                HeadList({"g": ("a", STAR), STAR: (STAR,)}, stage)
        # The client-augmented list appends exactly that url.
        HeadList({"g": ("a", STAR), STAR: (STAR,)}, Stage.CLIENT_AUGMENTED)

    def test_duplicate_urls_rejected(self):
        with pytest.raises(HeadListError):
            HeadList({"g": ("a", "a"), STAR: (STAR,)}, Stage.INITIAL)

    def test_empty_url_list_rejected(self):
        with pytest.raises(HeadListError):
            HeadList({"g": (), STAR: (STAR,)}, Stage.INITIAL)

    def test_augment_adds_star_everywhere(self, initial_hl):
        aug = initial_hl.augment_for_clients()
        assert aug.stage is Stage.CLIENT_AUGMENTED
        assert STAR in aug.entries
        for q in aug.queries:
            assert STAR in aug.urls(q)
        assert aug.k == 3
        assert aug.k_q("google") == 3

    def test_augmenting_twice_is_rejected(self, initial_hl):
        # Every regular query already ends in the star url.
        aug = initial_hl.augment_for_clients()
        with pytest.raises(HeadListError, match="duplicate urls"):
            aug.augment_for_clients()

    def test_shape_accessors(self, initial_hl):
        assert initial_hl.k == 3
        assert initial_hl.k_q("google") == 2
        assert initial_hl.num_records() == 4
        assert Record("yahoo", "yahoo.com") in initial_hl

    def test_records_follow_entries_query_by_query(self, initial_hl):
        for hl in (initial_hl, initial_hl.augment_for_clients()):
            nested = []
            for q, urls in hl.entries.items():
                for u in urls:
                    nested.append(Record(q, u))
            assert list(hl.records()) == nested
            assert hl.num_records() == len(nested)

    def test_records_are_built_once(self, initial_hl):
        assert initial_hl.records() is initial_hl.records()

    def test_cached_records_stay_out_of_equality_and_repr(self, initial_hl):
        twin = HeadList(dict(initial_hl.entries), Stage.INITIAL)
        assert twin == initial_hl
        assert twin != HeadList(dict(initial_hl.entries), Stage.FINAL)
        assert repr(twin) == (
            f"HeadList(entries={initial_hl.entries!r}, stage={Stage.INITIAL!r})"
        )
        # Neither the records nor the slot and query indexes take part in either.
        object.__setattr__(twin, "slot", {})
        object.__setattr__(twin, "_records", ())
        object.__setattr__(twin, "of_query", np.zeros(0, dtype=np.int64))
        assert twin == initial_hl
        assert repr(twin) == repr(initial_hl)

    def test_slot_index_follows_records(self, initial_hl):
        final = HeadList(initial_hl.entries, Stage.FINAL)
        for hl in (initial_hl, final, initial_hl.augment_for_clients()):
            assert len(hl.slot) == hl.num_records()
            for i, r in enumerate(hl.records()):
                assert hl.slot[r] == i
            assert hl.of_query.tolist() == [hl.queries.index(r.query) for r in hl.records()]
            unlisted = [Record("google", "unlisted.com"), Record("nope", STAR)]
            assert hl.slots([*unlisted, *hl.records()]).tolist() == [-1, -1, *range(len(hl.slot))]

    @given(
        q=st.sampled_from(["google", "yahoo", STAR]) | st.text(max_size=4),
        u=st.sampled_from(["google.com", "mail.google.com", "yahoo.com", STAR])
        | st.text(max_size=4),
    )
    @example(q="google", u="unlisted.com")
    @example(q=STAR, u=STAR)
    @example(q="google", u=STAR)
    @example(q=STAR, u="google.com")
    def test_membership_matches_entries(self, q, u):
        base = HeadList(
            {"google": ("google.com", "mail.google.com"), "yahoo": ("yahoo.com",), STAR: (STAR,)},
            Stage.INITIAL,
        )
        for hl in (base, base.augment_for_clients()):
            listed = q in hl.entries and u in hl.entries[q]
            assert (Record(q, u) in hl) == listed
            assert hl.slots([Record(q, u)]).tolist() == [hl.slot[Record(q, u)] if listed else -1]

    def test_tsv_round_trip(self, initial_hl):
        text = initial_hl.to_tsv()
        assert "*\t*" in text
        back = HeadList.from_tsv(text, Stage.INITIAL)
        assert back.entries == initial_hl.entries

    @pytest.mark.parametrize("stage", [Stage.INITIAL, Stage.FINAL])
    def test_tsv_round_trip_keeps_hash_fields(self, stage):
        # A log may hold a query or url that starts with '#'; it is a
        # field like any other, not a comment. It may also hold any line
        # break but "\n" inside a field.
        breaks = {f"q{c}r": (f"a{c}b", "c.com") for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
        hl = HeadList(
            {"#tag": ("a.com", "#frag"), "q": ("b.com",), **breaks, STAR: (STAR,)}, stage
        )
        back = HeadList.from_tsv(hl.to_tsv(), stage)
        assert back.entries == hl.entries

    def test_from_tsv_bad_arity(self):
        with pytest.raises(HeadListError, match="line 1"):
            HeadList.from_tsv("justonefield\n", Stage.INITIAL)

    def test_iteration_order_is_insertion_order(self):
        hl = make_final_head_list(3, 2)
        assert hl.queries == ("q0", "q1", "q2", STAR)


class TestEstimateVector:
    def arrays(self, hl):
        n, k = hl.num_records(), hl.k
        return dict(p=np.full(n, 0.25), var=np.full(n, 0.01), query_p=np.full(k, 0.3),
                    query_var=np.full(k, 0.02))

    def test_accepts_arrays_shaped_like_the_list(self, initial_hl):
        est = EstimateVector(initial_hl, **self.arrays(initial_hl), sample_size=10)
        assert est.record_probs == dict.fromkeys(initial_hl.records(), 0.25)
        assert list(est.query_vars.items()) == [(q, 0.02) for q in initial_hl.queries]
        with pytest.raises(TypeError):
            est.record_probs[WILDCARD] = 1.0   # the readings are read-only

    @pytest.mark.parametrize("name", ["p", "var", "query_p", "query_var"])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_rejects_arrays_of_the_wrong_length(self, initial_hl, name, step):
        arrays = self.arrays(initial_hl)
        arrays[name] = np.resize(arrays[name], len(arrays[name]) + step)
        with pytest.raises(ParamError, match="do not match"):
            EstimateVector(initial_hl, **arrays, sample_size=10)

    @pytest.mark.parametrize("name", ["var", "query_var"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_rejects_non_finite_or_negative_variances(self, initial_hl, name, bad):
        arrays = self.arrays(initial_hl)
        arrays[name][1] = bad
        with pytest.raises(ParamError, match="finite and non-negative"):
            EstimateVector(initial_hl, **arrays, sample_size=10)

    def test_rejects_an_empty_sample(self, initial_hl):
        with pytest.raises(ParamError, match="sample_size"):
            EstimateVector(initial_hl, **self.arrays(initial_hl), sample_size=0)


def test_star_encoding_round_trips():
    assert encode_star(STAR) == "*"
    assert decode_star("*") == STAR
    assert decode_star(encode_star("plain")) == "plain"


class TestPrivacyParams:
    def test_default_budget_split(self):
        p = PrivacyParams()
        assert p.eps_prime == 4.0
        assert p.delta_prime == 1e-5
        assert p.eps_q == pytest.approx(3.4)
        assert p.eps_u == pytest.approx(0.6)
        assert p.delta_q == pytest.approx(8.5e-6)
        assert p.delta_u == pytest.approx(1.5e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0},
            {"epsilon": -1},
            {"epsilon": math.inf},
            {"delta": 0},
            {"delta": 1},
            {"m_O": 2},
            {"f_O": 1.0},
            {"f_C": 0.0},
            {"M": 0},
            {"optin_fraction": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParamError):
            PrivacyParams(**kwargs)

