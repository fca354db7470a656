import io
import random
import re
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hybridhh.core import (
    STAR,
    HeadList,
    ParamError,
    Record,
    RecordCounts,
    RecordTable,
    Stage,
    decode_star,
    encode_star,
    record_slots,
)
from hybridhh.data import (
    ParseError,
    UserLog,
    empirical_distribution,
    open_input,
    parse_log,
    partition_users,
    sample_clients,
    sample_per_user,
    serialize_log,
    synth_zipf,
    zipf_weights,
)
from hybridhh.sampling import substream

from conftest import LOG_WORDS, text_log

LOG = "u1\tgoogle\tgoogle.com\nu2\tyahoo\tyahoo.com\nu1\tgoogle\tmail.google.com\n"


class TestParseLog:
    def test_groups_by_user_in_first_seen_order(self):
        users = list(parse_log(text_log(LOG)).users)
        assert [u.user_id for u in users] == ["u1", "u2"]
        assert users[0].records == (
            Record("google", "google.com"),
            Record("google", "mail.google.com"),
        )

    def test_comments_and_blank_lines_skipped(self):
        ds = parse_log(text_log("# header\n\n" + LOG))
        assert len(ds) == 2
        # Every whitespace character but the field separator, before a
        # comment and before a user.
        blanks = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace() and c != 9]
        text = "".join(f"{c}# comment\n{c}u{i}\tq\tu\n" for i, c in enumerate(blanks))
        assert list(parse_log(text_log(text)).users) == parse_log_reference(text_log(text))

    def test_star_is_decoded(self):
        ds = parse_log(text_log("u1\t*\t*\n"))
        assert list(ds.users) == [("u1", (Record(STAR, STAR),))]

    def test_malformed_line_aborts_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_log(text_log("u1\tq\tu\nbadline\n"))
        with pytest.raises(ParseError, match="line 1"):
            parse_log(text_log("u1\t\tu\n"))

    def test_round_trip(self):
        ds = parse_log(text_log(LOG))
        buf = io.StringIO()
        serialize_log(ds, buf)
        again = parse_log(text_log(buf.getvalue()))
        assert list(again.users) == list(ds.users)

    def test_star_round_trips_as_ascii(self):
        ds = parse_log(text_log("u1\t\u22c6\t\u22c6\n"))
        buf = io.StringIO()
        serialize_log(ds, buf)
        assert buf.getvalue() == "u1\t*\t*\n"


def serialize_log_reference(dataset, stream):
    """The writer as first written: one line per record of each user."""
    for user in dataset.users:
        for rec in user.records:
            stream.write(f"{user.user_id}\t{encode_star(rec.query)}\t{encode_star(rec.url)}\n")


# Logs of a few users whose lines interleave, each holding several
# records, repeated ones among them, named from LOG_WORDS.
WORD_LOGS = st.lists(
    st.tuples(*(st.sampled_from(LOG_WORDS),) * 3).map("\t".join), max_size=30
).map(lambda lines: parse_log(text_log("".join(line + "\n" for line in lines))))


class TestSerializeLog:
    @given(WORD_LOGS)
    @example(synth_zipf(300, 12, 3, 1.0, substream(9, 0)))
    @settings(max_examples=200, deadline=None)
    def test_writes_the_reference_lines_and_parses_back(self, ds):
        written, want = io.StringIO(), io.StringIO()
        serialize_log(ds, written)
        serialize_log_reference(ds, want)
        assert written.getvalue().encode("utf-8") == want.getvalue().encode("utf-8")
        assert list(parse_log(text_log(written.getvalue())).users) == list(ds.users)


def parse_log_reference(stream):
    """The parser as first written: one new Record per line, grouped into
    `[(user_id, records)]` by user in first-seen order."""
    by_user = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        user, q, u = (p.strip() for p in parts)
        if not user or not q or not u:
            raise ParseError(f"line {lineno}: empty field")
        by_user.setdefault(user, []).append(Record(decode_star(q), decode_star(u)))
    return [(uid, tuple(recs)) for uid, recs in by_user.items()]


EDGE_LOG = (
    "# comment\n"
    " \t#q\tu\n"
    "\n"
    "  \t \n"
    "u2\tq\tu\r\n"
    " u1 \t q \t u \n"
    "u1\t*\t*\n"
    "u3\t\u22c6\tx\n"
    "u2\tq\t*\n"
    "u3\t*\tx"
)


def interleaved_log(seed, users=300):
    """Users holding 1-5 records from a shared pool, their lines shuffled
    over the whole log."""
    gen = random.Random(seed)
    lines = [
        f"u{user}\tq{gen.randrange(20)}\tq/u{gen.randrange(3)}\n"
        for user in range(users)
        for _ in range(gen.randint(1, 5))
    ]
    gen.shuffle(lines)
    return "".join(lines)


# Byte-level edge cases: values that differ only by a trailing NUL, an
# ideographic space before a comment's '#', non-ASCII and control
# whitespace that `str.strip` strips, and a last line without a newline.
BYTE_EDGE_LOGS = [
    "a\tq\tu\na\x00\tq\tu\x00\na\tq\tu\x00\n",
    "\u3000# c\nu\tq\tu\n",
    "\xa0u\x85\t\x1cq\x0b\t\x85u\xa0\nu\tq\tu\n\x0bv\x1c\t\xa0*\t*\u3000\n",
    "u1\tq\tu\nu2\tq\tv",
]


LOG_ALPHABET = ["a", "\u00e9", STAR, "*", "#", " ", "\t", "\n", "\r", "\x00", "\u3000"]
LOG_TEXT = st.text(alphabet=LOG_ALPHABET)
# Lines of 1-4 tab-separated fields, most of them 3, drawn without tabs
# and newlines.
LOG_FIELD = st.text(alphabet=LOG_ALPHABET[:6] + LOG_ALPHABET[8:], min_size=1, max_size=3)
LOG_LINES = st.lists(
    st.one_of(
        st.lists(LOG_FIELD, min_size=3, max_size=3), st.lists(LOG_FIELD, min_size=1, max_size=4)
    ).map("\t".join),
    max_size=4,
).map("\n".join)


class TestParseLogMatchesReference:
    @pytest.mark.parametrize(
        "text",
        [
            LOG, EDGE_LOG, "# only a comment\n", "", *BYTE_EDGE_LOGS,
            pytest.param(interleaved_log(0), id="interleaved0"),
            pytest.param(interleaved_log(1), id="interleaved1"),
        ],
    )
    def test_same_dataset(self, text):
        assert list(parse_log(text_log(text)).users) == parse_log_reference(text_log(text))

    def test_same_dataset_from_a_file(self, tmp_path, monkeypatch):
        path = tmp_path / "log.tsv"
        path.write_bytes(EDGE_LOG.encode("utf-8") + b"\r\nu4\tq\tu\ru5\tq\tv\r\r\nu4\tq\tw\r")
        readers = (
            lambda: open(path, encoding="utf-8"),
            # The harness's reader: CRLF and a lone '\r' each end a line.
            lambda: open_input(str(path)),
        )
        # 4-byte blocks cut the log at most of its line breaks.
        for block in (1 << 20, 4):
            monkeypatch.setattr("hybridhh.data._BLOCK", block)
            for reader in readers:
                with reader() as a, reader() as b:
                    assert list(parse_log(a).users) == parse_log_reference(b)

    @pytest.mark.parametrize("text", [
        "u1\tq\tu\nbadline\n",
        "u1\tq\tu\n\nu2\tq\tu\tx\n",
        "u1\t\tu\n",
        "u1\tq\t \r\n",
        " \tq\tu\n",
        "u1\tq\tu\t\n",
        "u1\t\u3000\tu\n",
        "u1\tq\t\xa0\x85\n",
        "u1\tq\tu\nu2\t\tu\nu3\tq\n",
        "u1\tq\tu\nu3\tq\nu2\t\tu\n",
        "u1\tq\tu\nu2\tq\tu\n\x00",
    ])
    def test_same_error(self, text):
        with pytest.raises(ParseError) as want:
            parse_log_reference(text_log(text))
        with pytest.raises(ParseError, match=f"^{re.escape(str(want.value))}$"):
            parse_log(text_log(text))

    @given(st.one_of(LOG_TEXT, LOG_LINES))
    @example("a\tq\tu\na\x00\tq\tu\x00\n")
    @example("\u3000# c\na\ta\ta")
    @example("\r\u3000a \t*\t\u00e9\r\na\t#\t\u22c6\x00\ra\ta\ta")
    @example("\xa0a\x85\t\x1ca\x0b\t\x85a\xa0\na\ta\ta\n")
    @example("a\t\ta\na\ta\n")
    @example("a\ta\na\t\ta\n")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.parametrize("block", [1 << 20, 3], ids=["one-block", "3-byte-blocks"])
    def test_matches_reference_from_file(self, tmp_path, monkeypatch, block, text):
        # Small blocks cut the log at most of its line breaks.
        monkeypatch.setattr("hybridhh.data._BLOCK", block)
        path = tmp_path / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        with open_input(str(path)) as a, open(path, newline="", encoding="utf-8") as b:
            assert parse_outcome(parse_log, a) == parse_outcome(parse_log_reference, b)

    @pytest.mark.parametrize("text", [
        EDGE_LOG, *BYTE_EDGE_LOGS,
        # CRLF and lone '\r' breaks; in the second log one cuts a field.
        "u1\tq\tu\r\nu2\tq\tv\ru3\tq\tu\r\r\nu1\tq\tw\r",
        "u1\tq\tu\r\nu2\tq\ra\tu\n",
    ])
    @pytest.mark.parametrize("block", [1 << 20, 3], ids=["one-block", "3-byte-blocks"])
    def test_text_log_parses_as_the_file_does(self, tmp_path, monkeypatch, block, text):
        # The tests pass logs through `text_log`; it must read as a file of the same bytes.
        monkeypatch.setattr("hybridhh.data._BLOCK", block)
        path = tmp_path / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        with open_input(str(path)) as fh:
            assert parse_outcome(parse_log, text_log(text)) == parse_outcome(parse_log, fh)

    def test_equal_records_are_one_object(self):
        ds = parse_log(text_log(EDGE_LOG + "\nu5\tq\tu\nu6\t\u22c6\t\u22c6\n"))
        by_value = {}
        for user in ds.users:
            for rec in user.records:
                assert by_value.setdefault(rec, rec) is rec
        assert len(by_value) == 4


def parse_outcome(parse, source):
    """`parse(source)` as `[(user_id, records)]`, or the message of its ParseError."""
    try:
        got = parse(source)
    except ParseError as exc:
        return f"ParseError: {exc}"
    return got if isinstance(got, list) else list(got.users)


class TestDataset:
    def test_truth_must_sum_to_one(self):
        ds = parse_log(text_log("u\tq\tu\n"))
        with pytest.raises(ParamError):
            replace(ds, true_distribution=np.array([0.5]))
        with pytest.raises(ParamError):
            replace(ds, true_distribution=np.array([0.5, 0.5]))  # not one entry per record
        assert replace(ds, true_distribution=np.array([1.0])).true_distribution.tolist() == [1.0]

    def test_unsorted_table_is_rejected(self):
        table = parse_log(text_log("a\tq1\tu\nb\tq1\tv\nc\tq2\tu\n")).record_table
        queries, urls, qids, uids = table.queries, table.urls, table.query_ids, table.url_ids
        for columns in (
            (queries, urls, qids[::-1], uids[::-1]),
            (queries, urls, qids, uids[[1, 0, 2]]),
            (queries, urls, qids[[0, 0, 2]], uids[[0, 0, 2]]),
            (queries[::-1], urls, qids, uids),
            (queries, urls[::-1], qids, uids),
        ):
            with pytest.raises(ParamError, match="strictly increasing"):
                RecordTable(*columns)

    def test_users_is_a_lazy_view(self):
        ds = parse_log(text_log(LOG))
        assert isinstance(ds.users, Iterator)
        assert list(ds.users) == list(ds.users) == parse_log_reference(text_log(LOG))


def log_of(sizes, shared=False):
    """TSV text of users holding `sizes[i]` records each: their own
    records, or records drawn from a pool of 6 that users share."""
    return "".join(
        f"u{i}\tq{j % 6}\tu{j % 3}\n" if shared else f"u{i}\tq{i}\tu{j}\n"
        for i, n in enumerate(sizes)
        for j in range(i % 5, i % 5 + n)
    )


def dataset_of(sizes, shared=False):
    return parse_log(text_log(log_of(sizes, shared)))


def by_record(ds, counts):
    """A count array over `ds.record_table` as a Counter keyed by record."""
    assert counts.shape == (len(ds.record_table),)
    return Counter({rec: n for rec, n in zip(ds.record_table, counts.tolist()) if n})


class TestSamplePerUser:
    def test_m1_is_uniform(self):
        recs = tuple(Record(f"q{i}", f"u{i}") for i in range(4))
        ds = parse_log(text_log("".join(
            f"u{i}\t{rec.query}\t{rec.url}\n" for i in range(40_000) for rec in recs
        )))
        rng = substream(51, 0)
        hits = sample_per_user(ds, np.arange(40_000), rng)[ds.record_table.index(recs[0])]
        assert hits / 40_000 == pytest.approx(0.25, abs=0.01)

    def test_picks_match_per_user_choice(self):
        # Reference: one `rng.choice(n, 1, replace=False)` per user with
        # more than one record, as the sampler was first written. Every
        # user holds records of its own, so equal counts mean equal picks.
        sizes = [1, 3, 1, 2, 7, 1, 40, 5, 1, 4] * 2000 + [12_000, 2]
        ds = dataset_of(sizes)
        rng_a, rng_b = substream(52, 0), substream(52, 0)
        want = Counter(
            user.records[int(rng_b.choice(len(user.records), 1, replace=False)[0])]
            if len(user.records) > 1 else user.records[0]
            for user in ds.users
        )
        assert by_record(ds, sample_per_user(ds, np.arange(len(ds)), rng_a)) == want
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_per_user_integers(self, seed):
        # Reference: one `rng.integers` draw per user, in the order the
        # users are given, over records that users share.
        gen = np.random.default_rng(seed)
        ds = dataset_of(gen.geometric(0.3, size=5000).tolist(), shared=True)
        users = gen.permutation(len(ds))[:3000]
        rng_a, rng_b = substream(53, seed), substream(53, seed)
        want = Counter()
        user_logs = list(ds.users)
        for i in users.tolist():
            records = user_logs[i].records
            want[records[rng_b.integers(len(records))]] += 1
        assert by_record(ds, sample_per_user(ds, users, rng_a)) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_single_record_users_consume_no_randomness(self):
        ds = dataset_of([1] * 50)
        rng = substream(54, 0)
        before = rng.bit_generator.state
        counts = sample_per_user(ds, np.arange(50), rng)
        assert by_record(ds, counts) == Counter(user.records[0] for user in ds.users)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "sizes", [[1, 3, 1, 1, 2, 7, 1, 1, 40, 1, 5] * 30, [1] * 300], ids=["mixed", "all-one"]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stream_is_one_draw_over_every_user(self, sizes, seed):
        # Reference: one `rng.integers` call over every user's record
        # count, users of one record included.
        ds = dataset_of(sizes)
        users = np.random.default_rng(seed).permutation(len(ds))[:250]
        rng_a, rng_b = substream(56, seed), substream(56, seed)
        picked = ds.record_ids[ds.offsets[users] + rng_b.integers(ds.lengths[users])]
        want = np.bincount(picked, minlength=len(ds.record_table))
        assert np.array_equal(sample_per_user(ds, users, rng_a), want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_record_counts_keys_nonzero_ids_in_table_order(self):
        ds = dataset_of([3, 1, 4, 1, 5, 9, 2, 6], shared=True)
        counts = sample_per_user(ds, np.arange(len(ds)), substream(55, 0))
        held = RecordCounts(ds.record_table, counts)
        assert held.nonzero.tolist() == [i for i, n in enumerate(counts.tolist()) if n]
        assert list(held) == list(map(ds.record_table.__getitem__, held.nonzero.tolist()))
        assert dict(zip(held, held.counts[held.nonzero].tolist())) == by_record(ds, counts)
        assert list(held) == sorted(held)
        unpicked = [rec for rec, n in zip(ds.record_table, counts.tolist()) if not n]
        absent = [Record("q0", "u9"), Record("q9", "u0"), Record("", "")]
        assert unpicked and not set(held) & set(unpicked + absent)


# Users of 1-8 records: all of one record, none of one, or a mixture.
USER_SIZES = st.lists(
    st.one_of(st.just(1), st.integers(2, 8), st.integers(1, 8)), min_size=2, max_size=60
)
MIXED = [1, 3, 1, 1, 2, 7, 1, 1, 8, 1, 5, 1] * 4


class TestSampleClients:
    @given(
        sizes=st.one_of(USER_SIZES, USER_SIZES.map(lambda s: [1] * len(s))),
        shared=st.booleans(),
        optin_share=st.floats(0.0, 1.0),
        s_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Each side of the choice: opt-in users fewer than the one-record
    # users outside them, or not.
    @example(sizes=[1] * 40, shared=True, optin_share=0.25, s_share=0.5, seed=0)
    @example(sizes=MIXED, shared=True, optin_share=0.125, s_share=0.5, seed=1)
    @example(sizes=MIXED, shared=False, optin_share=0.125, s_share=0.5, seed=2)
    @example(sizes=MIXED, shared=True, optin_share=0.5, s_share=0.5, seed=3)
    @example(sizes=[2, 3, 8] * 10, shared=True, optin_share=0.1, s_share=0.5, seed=4)
    @settings(max_examples=300, deadline=None)
    def test_matches_sampling_every_client(self, sizes, shared, optin_share, s_share, seed):
        # Reference: one `sample_per_user` call over every client, on a
        # random partition of the users into S, T and the clients.
        ds = dataset_of(sizes, shared)
        n_optin = round(optin_share * len(ds))
        n_s = round(s_share * n_optin)
        users = np.random.default_rng(seed).permutation(len(ds))
        s, t, clients = users[:n_s], users[n_s:n_optin], users[n_optin:]
        rng_a, rng_b = substream(57, seed), substream(57, seed)
        got = sample_clients(ds, clients, (s, t), rng_a)
        assert np.array_equal(got, sample_per_user(ds, clients, rng_b))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_one_record_counts_are_derived_with_the_index(self):
        ds = dataset_of(MIXED, shared=True)
        singles = [user.records[0] for user in ds.users if len(user.records) == 1]
        assert ds.several.tolist() == [n > 1 for n in MIXED]
        assert ds.singles == len(singles)
        assert by_record(ds, ds.single_counts) == Counter(singles)


class TestDatasetIndex:
    def test_index_reproduces_every_users_records(self):
        for text in (log_of([3, 1, 4, 1, 5], shared=True), interleaved_log(2)):
            ds = parse_log(text_log(text))
            want = parse_log_reference(text_log(text))
            assert ds.record_ids.dtype == np.int32
            assert len(set(ds.record_table)) == len(ds.record_table)
            assert ds.user_ids == tuple(uid for uid, _ in want)
            for (_, records), start, n in zip(want, ds.offsets.tolist(), ds.lengths.tolist()):
                ids = ds.record_ids[start:start + n].tolist()
                assert tuple(ds.record_table[i] for i in ids) == records

    def test_table_is_in_sorted_order(self):
        ds = parse_log(text_log("a\tq2\tu\nb\tq1\tu\na\tq1\tu\nc\tq2\tu\n"))
        assert tuple(ds.record_table) == (Record("q1", "u"), Record("q2", "u"))
        # Each record's count is its id plus one.
        counts = RecordCounts(ds.record_table, np.arange(1, 3))
        assert counts.counts[list(ds.record_table).index(Record("q2", "u"))] == 2
        assert Record("q1", "v") not in ds.record_table
        # Users a, b, c in first-seen order; a keeps its rows in log order.
        assert ds.record_ids.tolist() == [1, 0, 0, 1]

    def test_ids_miss_past_the_last_record_and_on_an_empty_table(self):
        # The table holds q2 and v, but (q2, v) sorts after its last record.
        table = parse_log(text_log("a\tq1\tv\nb\tq2\tu\n")).record_table
        # Each record's count is its id plus one.
        counts = RecordCounts(table, np.arange(1, 3))
        by_id = dict(zip(table, counts.counts.tolist()))
        got = [by_id.get(r, 0) for r in (Record("q2", "v"), Record("q2", "u"), Record("q1", "u"))]
        assert got == [0, 2, 0]
        empty = RecordCounts.of({})
        assert len(empty.table) == 0 and len(empty.counts) == 0
        assert list(empty) == []
        initial = HeadList({"q": ("u",), STAR: (STAR,)}, Stage.INITIAL)
        for hl in (initial, initial.augment_for_clients()):
            assert record_slots(empty.table, hl).tolist() == []

    @pytest.mark.parametrize("make", [
        lambda: parse_log(text_log(log_of([3, 1, 4, 1, 5], shared=True))),
        lambda: parse_log(text_log(interleaved_log(3))),
        lambda: parse_log(text_log(
            "u\tq10\tb\nu\tq1\ta\nv\t*\t*\nv\tq1\t*\nw\t\u00e9t\u00e9\tz\nw\tq2\ta\n"
        )),
        lambda: synth_zipf(500, 12, 3, 1.0, substream(9, 0)),
    ], ids=["shared", "interleaved", "stars-and-non-ascii", "synth"])
    def test_constructors_yield_strictly_increasing_tables(self, make):
        table = tuple(make().record_table)
        assert len(table) > 1
        assert all(a < b for a, b in zip(table, table[1:]))

    def test_parse_is_deterministic_and_index_stays_out_of_repr(self):
        a, b = parse_log(text_log(LOG)), parse_log(text_log(LOG))
        assert (a.user_ids, tuple(a.record_table)) == (b.user_ids, tuple(b.record_table))
        assert a.record_table.query_ids.tolist() == b.record_table.query_ids.tolist()
        assert a.record_table.url_ids.tolist() == b.record_table.url_ids.tolist()
        assert a.record_ids.tolist() == b.record_ids.tolist()
        assert a.lengths.tolist() == b.lengths.tolist()
        assert "record_ids" not in repr(a) and "offsets" not in repr(a)


class TestPartitionUsers:
    def make_dataset(self, n):
        return parse_log(text_log("".join(f"u{i}\tq\tu\n" for i in range(n))))

    def test_frozen_sizes(self):
        # N=1000, optin 5%, f_O=0.95: |O|=50, |S|=round(47.5)=48, |T|=2.
        s, t, c = partition_users(self.make_dataset(1000), 0.05, 0.95, substream(0, 0))
        assert (len(s), len(t), len(c)) == (48, 2, 950)

    def test_partition_is_disjoint_and_covers(self):
        ds = self.make_dataset(200)
        s, t, c = partition_users(ds, 0.2, 0.5, substream(1, 0))
        indices = np.concatenate([s, t, c]).tolist()
        ids = [ds.user_ids[i] for i in indices]
        assert len(ids) == 200
        assert len(set(ids)) == 200
        assert sorted(indices) == list(range(200))

    def test_optin_users_are_one_draw_and_clients_the_rest_in_order(self):
        s, t, c = partition_users(self.make_dataset(200), 0.2, 0.5, substream(1, 0))
        optin = substream(1, 0).choice(200, 40, replace=False)
        assert np.concatenate([s, t]).tolist() == optin.tolist()
        assert (len(s), len(t)) == (20, 20)
        assert c.tolist() == sorted(set(range(200)) - set(optin.tolist()))

    def test_split_is_uniform_over_users_and_pairs(self):
        # Fixed before the first run: 8 users, |S| = |T| = 2, |C| = 4, the
        # draws of 20000 seeds, and a bound of 5 binomial standard errors
        # on each frequency. A user lands in S or T with chance 1/4, in C
        # with 1/2, and each of the 28 pairs lands in S with 1/28.
        n, draws = 8, 20000
        ds = self.make_dataset(n)
        groups = np.zeros((3, n))
        pairs = np.zeros((n, n))
        for seed in range(draws):
            s, t, c = partition_users(ds, 0.5, 0.5, substream(seed, 0))
            for g, users in enumerate((s, t, c)):
                groups[g, users] += 1
            pairs[min(s), max(s)] += 1
        upper = np.triu_indices(n, 1)
        for freq, p in (
            (groups[:2] / draws, 1 / 4),
            (groups[2] / draws, 1 / 2),
            (pairs[upper] / draws, 1 / 28),
        ):
            assert np.abs(freq - p).max() < 5 * np.sqrt(p * (1 - p) / draws)
        assert pairs.sum() == pairs[upper].sum()

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ParamError):
            partition_users(self.make_dataset(10), 0.05, 0.95, substream(0, 0))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ParamError):
            partition_users(self.make_dataset(100), 0.0, 0.5, substream(0, 0))
        with pytest.raises(ParamError):
            partition_users(self.make_dataset(100), 0.5, 1.0, substream(0, 0))


class TestSynthZipf:
    def test_zipf_weights(self):
        w = zipf_weights(4, 1.0)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()
        assert w[0] / w[1] == pytest.approx(2.0)

    def test_uniform_at_zero_exponent(self):
        assert zipf_weights(5, 0.0) == pytest.approx([0.2] * 5)

    def test_shape_and_truth(self):
        ds = synth_zipf(500, 10, 3, 1.0, substream(61, 0))
        assert len(ds) == 500
        assert all(len(u.records) == 1 for u in ds.users)
        assert ds.true_distribution.sum() == pytest.approx(1.0)
        assert len(ds.true_distribution) == len(ds.record_table) == 30
        assert Record("q0", "q0/u0") in ds.record_table

    def test_truth_by_record_id(self):
        # More than ten queries, so that "q10" sorts between "q1" and "q2"
        # and the table's order is not the grid's.
        nq, nu, e = 12, 3, 0.8
        ds = synth_zipf(100, nq, nu, e, substream(65, 0))
        truth, table = ds.true_distribution, ds.record_table
        assert truth.dtype == np.float64 and truth.shape == (len(table),)
        id_of = {rec: i for i, rec in enumerate(table)}
        grid = [id_of[Record(f"q{i}", f"q{i}/u{j}")] for i in range(nq) for j in range(nu)]
        assert grid != sorted(grid)
        joint = np.outer(zipf_weights(nq, e), zipf_weights(nu, e)).ravel()
        assert [truth[i].hex() for i in grid] == [p.hex() for p in joint.tolist()]

    def test_deterministic(self):
        a = synth_zipf(200, 5, 2, 1.0, substream(62, 0))
        b = synth_zipf(200, 5, 2, 1.0, substream(62, 0))
        assert list(a.users) == list(b.users)

    @pytest.mark.parametrize("shape", [(500, 10, 3, 1.0), (2000, 40, 4, 0.8)])
    def test_users_match_per_user_reference(self, shape):
        # Reference: one user object per draw, as the generator was first
        # written, over the same `rng.choice` draws.
        num_users, num_queries, urls_per_query, exponent = shape
        rng_a, rng_b = substream(64, num_users), substream(64, num_users)
        ds = synth_zipf(num_users, num_queries, urls_per_query, exponent, rng_a)
        records = [
            Record(f"q{i}", f"q{i}/u{j}")
            for i in range(num_queries)
            for j in range(urls_per_query)
        ]
        joint = np.outer(
            zipf_weights(num_queries, exponent), zipf_weights(urls_per_query, exponent)
        ).ravel()
        draws = rng_b.choice(len(records), size=num_users, p=joint)
        want = [UserLog(f"user{n:07d}", (records[d],)) for n, d in enumerate(draws.tolist())]
        assert list(ds.users) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        ids = ds.user_ids
        assert len(ids) == num_users
        first, last = want[0].user_id, want[-1].user_id
        assert (ids[0], ids[num_users - 1], ids[-1]) == (first, last, last)
        for past_end in (num_users, -num_users - 1):
            with pytest.raises(IndexError):
                ids[past_end]
        assert list(ids) == [user_id for user_id, _ in want]

    def test_user_ids_are_not_held(self):
        # A tuple of one str per user takes about 13 MB at 200k users.
        tracemalloc.start()
        try:
            synth_zipf(200_000, 50, 4, 1.0, substream(0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_empirical_matches_truth_at_scale(self):
        ds = synth_zipf(200_000, 5, 2, 1.0, substream(63, 0))
        id_of = {rec: i for i, rec in enumerate(ds.record_table)}
        held = np.bincount([id_of[r] for u in ds.users for r in u.records], minlength=len(id_of))
        emp = empirical_distribution(held)
        for p_emp, p in zip(emp.tolist(), ds.true_distribution.tolist(), strict=True):
            assert p_emp == pytest.approx(p, abs=0.005)

    def test_rejects_bad_args(self):
        with pytest.raises(ParamError):
            synth_zipf(0, 5, 2, 1.0, substream(0, 0))
        with pytest.raises(ParamError):
            synth_zipf(10, 5, 2, -1.0, substream(0, 0))


def test_empirical_distribution_rejects_empty():
    for counts in (np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)):
        with pytest.raises(ParamError):
            empirical_distribution(counts)
