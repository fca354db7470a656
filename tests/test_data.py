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
    record_slots,
)
from hybridhh.data import (
    ParseError,
    UserLog,
    empirical_distribution,
    open_input,
    parse_log,
    partition_users,
    sample_per_user,
    serialize_log,
    synth_zipf,
    zipf_weights,
)
from hybridhh.sampling import substream

LOG = "u1\tgoogle\tgoogle.com\nu2\tyahoo\tyahoo.com\nu1\tgoogle\tmail.google.com\n"


class TestParseLog:
    def test_groups_by_user_in_first_seen_order(self):
        users = list(parse_log(LOG).users)
        assert [u.user_id for u in users] == ["u1", "u2"]
        assert users[0].records == (
            Record("google", "google.com"),
            Record("google", "mail.google.com"),
        )

    def test_comments_and_blank_lines_skipped(self):
        ds = parse_log("# header\n\n" + LOG)
        assert len(ds) == 2
        # Every whitespace character but the field separator, before a
        # comment and before a user.
        blanks = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace() and c != 9]
        text = "".join(f"{c}# comment\n{c}u{i}\tq\tu\n" for i, c in enumerate(blanks))
        assert list(parse_log(text).users) == parse_log_reference(text)

    def test_star_is_decoded(self):
        ds = parse_log("u1\t*\t*\n")
        assert list(ds.users) == [("u1", (Record(STAR, STAR),))]

    def test_malformed_line_aborts_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_log("u1\tq\tu\nbadline\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_log("u1\t\tu\n")

    def test_round_trip(self):
        ds = parse_log(LOG)
        buf = io.StringIO()
        serialize_log(ds, buf)
        again = parse_log(buf.getvalue())
        assert list(again.users) == list(ds.users)

    def test_star_round_trips_as_ascii(self):
        ds = parse_log("u1\t\u22c6\t\u22c6\n")
        buf = io.StringIO()
        serialize_log(ds, buf)
        assert buf.getvalue() == "u1\t*\t*\n"


def parse_log_reference(stream):
    """The parser as first written: one new Record per line, grouped into
    `[(user_id, records)]` by user in first-seen order."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
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
# A lone '\r' does not end a line of a str: it stays inside the field.
CR_IN_FIELD_LOG = "u1\tq\ra\tu\nu2\tq\r\tu\r\n"


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
            LOG, EDGE_LOG, "# only a comment\n", "", *BYTE_EDGE_LOGS, CR_IN_FIELD_LOG,
            pytest.param(interleaved_log(0), id="interleaved0"),
            pytest.param(interleaved_log(1), id="interleaved1"),
        ],
    )
    def test_same_dataset(self, text):
        assert list(parse_log(text).users) == parse_log_reference(text)

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
            parse_log_reference(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(want.value))}$"):
            parse_log(text)

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
    def test_matches_reference_from_str_and_file(self, tmp_path, monkeypatch, block, text):
        # Small blocks cut the log at most of its line breaks.
        monkeypatch.setattr("hybridhh.data._BLOCK", block)
        path = tmp_path / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        with open_input(str(path)) as a, open(path, newline="", encoding="utf-8") as b:
            assert parse_outcome(parse_log, a) == parse_outcome(parse_log_reference, b)
        assert parse_outcome(parse_log, text) == parse_outcome(parse_log_reference, text)

    def test_equal_records_are_one_object(self):
        ds = parse_log(EDGE_LOG + "\nu5\tq\tu\nu6\t\u22c6\t\u22c6\n")
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
        ds = parse_log("u\tq\tu\n")
        with pytest.raises(ParamError):
            replace(ds, true_distribution={Record("q", "u"): 0.5})

    def test_unsorted_table_is_rejected(self):
        table = parse_log("a\tq1\tu\nb\tq1\tv\nc\tq2\tu\n").record_table
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
        ds = parse_log(LOG)
        assert isinstance(ds.users, Iterator)
        assert list(ds.users) == list(ds.users) == parse_log_reference(LOG)


def log_of(sizes, shared=False):
    """TSV text of users holding `sizes[i]` records each: their own
    records, or records drawn from a pool of 6 that users share."""
    return "".join(
        f"u{i}\tq{j % 6}\tu{j % 3}\n" if shared else f"u{i}\tq{i}\tu{j}\n"
        for i, n in enumerate(sizes)
        for j in range(i % 5, i % 5 + n)
    )


def dataset_of(sizes, shared=False):
    return parse_log(log_of(sizes, shared))


def by_record(ds, counts):
    """A count array over `ds.record_table` as a Counter keyed by record."""
    assert counts.shape == (len(ds.record_table),)
    return Counter({rec: n for rec, n in zip(ds.record_table, counts.tolist()) if n})


class TestSamplePerUser:
    def test_m1_is_uniform(self):
        recs = tuple(Record(f"q{i}", f"u{i}") for i in range(4))
        ds = parse_log("".join(
            f"u{i}\t{rec.query}\t{rec.url}\n" for i in range(40_000) for rec in recs
        ))
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
        assert held == by_record(ds, counts)
        assert list(held) == sorted(held)
        unpicked = [rec for rec, n in zip(ds.record_table, counts.tolist()) if not n]
        absent = [Record("q0", "u9"), Record("q9", "u0"), Record("", "")]
        assert unpicked and not any(rec in held for rec in unpicked + absent)


class TestDatasetIndex:
    def test_index_reproduces_every_users_records(self):
        for text in (log_of([3, 1, 4, 1, 5], shared=True), interleaved_log(2)):
            ds = parse_log(text)
            want = parse_log_reference(text)
            assert ds.record_ids.dtype == np.int32
            assert len(set(ds.record_table)) == len(ds.record_table)
            assert ds.user_ids == tuple(uid for uid, _ in want)
            for (_, records), start, n in zip(want, ds.offsets.tolist(), ds.lengths.tolist()):
                ids = ds.record_ids[start:start + n].tolist()
                assert tuple(ds.record_table[i] for i in ids) == records

    def test_table_is_in_sorted_order(self):
        ds = parse_log("a\tq2\tu\nb\tq1\tu\na\tq1\tu\nc\tq2\tu\n")
        assert tuple(ds.record_table) == (Record("q1", "u"), Record("q2", "u"))
        # Each record's count is its id plus one.
        counts = RecordCounts(ds.record_table, np.arange(1, 3))
        assert counts[Record("q2", "u")] == 2 and Record("q1", "v") not in counts
        # Users a, b, c in first-seen order; a keeps its rows in log order.
        assert ds.record_ids.tolist() == [1, 0, 0, 1]

    def test_ids_miss_past_the_last_record_and_on_an_empty_table(self):
        # The table holds q2 and v, but (q2, v) sorts after its last record.
        table = parse_log("a\tq1\tv\nb\tq2\tu\n").record_table
        # Each record's count is its id plus one.
        counts = RecordCounts(table, np.arange(1, 3))
        got = [counts.get(r, 0) for r in (Record("q2", "v"), Record("q2", "u"), Record("q1", "u"))]
        assert got == [0, 2, 0]
        empty = RecordCounts.of({})
        assert len(empty.table) == 0
        assert Record("q", "u") not in empty and Record(STAR, STAR) not in empty
        initial = HeadList({"q": ("u",), STAR: (STAR,)}, Stage.INITIAL)
        for hl in (initial, initial.augment_for_clients()):
            assert record_slots(empty.table, hl).tolist() == []

    @pytest.mark.parametrize("make", [
        lambda: parse_log(log_of([3, 1, 4, 1, 5], shared=True)),
        lambda: parse_log(interleaved_log(3)),
        lambda: parse_log("u\tq10\tb\nu\tq1\ta\nv\t*\t*\nv\tq1\t*\nw\t\u00e9t\u00e9\tz\nw\tq2\ta\n"),
        lambda: synth_zipf(500, 12, 3, 1.0, substream(9, 0)),
    ], ids=["shared", "interleaved", "stars-and-non-ascii", "synth"])
    def test_constructors_yield_strictly_increasing_tables(self, make):
        table = tuple(make().record_table)
        assert len(table) > 1
        assert all(a < b for a, b in zip(table, table[1:]))

    def test_parse_is_deterministic_and_index_stays_out_of_repr(self):
        a, b = parse_log(LOG), parse_log(LOG)
        assert (a.user_ids, tuple(a.record_table)) == (b.user_ids, tuple(b.record_table))
        assert a.record_table.query_ids.tolist() == b.record_table.query_ids.tolist()
        assert a.record_table.url_ids.tolist() == b.record_table.url_ids.tolist()
        assert a.record_ids.tolist() == b.record_ids.tolist()
        assert a.lengths.tolist() == b.lengths.tolist()
        assert "record_ids" not in repr(a) and "offsets" not in repr(a)


class TestPartitionUsers:
    def make_dataset(self, n):
        return parse_log("".join(f"u{i}\tq\tu\n" for i in range(n)))

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

    def test_groups_are_cut_from_one_permutation(self):
        s, t, c = partition_users(self.make_dataset(200), 0.2, 0.5, substream(1, 0))
        perm = substream(1, 0).permutation(200)
        assert np.concatenate([s, t, c]).tolist() == perm.tolist()
        assert (len(s), len(t)) == (20, 20)

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
        assert sum(ds.true_distribution.values()) == pytest.approx(1.0)
        assert len(ds.true_distribution) == 30
        assert Record("q0", "q0/u0") in ds.true_distribution

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
        emp = empirical_distribution(r for u in ds.users for r in u.records)
        for rec, p in ds.true_distribution.items():
            assert emp.get(rec, 0.0) == pytest.approx(p, abs=0.005)

    def test_rejects_bad_args(self):
        with pytest.raises(ParamError):
            synth_zipf(0, 5, 2, 1.0, substream(0, 0))
        with pytest.raises(ParamError):
            synth_zipf(10, 5, 2, -1.0, substream(0, 0))


def test_empirical_distribution_rejects_empty():
    with pytest.raises(ParamError):
        empirical_distribution([])
