import pytest
from hypothesis import given, strategies as st

from hybridhh.core import (
    STAR,
    WILDCARD,
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

    def test_shape_accessors(self, initial_hl):
        assert initial_hl.k == 3
        assert initial_hl.k_q("google") == 2
        assert initial_hl.num_records() == 4
        assert Record("yahoo", "yahoo.com") in initial_hl

    def test_tsv_round_trip(self, initial_hl):
        text = initial_hl.to_tsv()
        assert "*\t*" in text
        back = HeadList.from_tsv(text, Stage.INITIAL)
        assert back.entries == initial_hl.entries

    def test_from_tsv_bad_arity(self):
        with pytest.raises(HeadListError, match="line 1"):
            HeadList.from_tsv("justonefield\n", Stage.INITIAL)

    def test_iteration_order_is_insertion_order(self):
        hl = make_final_head_list(3, 2)
        assert hl.queries == ("q0", "q1", "q2", STAR)


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
            {"delta": 0},
            {"delta": 1},
            {"m_O": 2},
            {"m_C": 0},
            {"f_O": 1.0},
            {"f_C": 0.0},
            {"M": 0},
            {"optin_fraction": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParamError):
            PrivacyParams(**kwargs)

