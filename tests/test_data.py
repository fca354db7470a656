import io
import re
from collections import Counter

import numpy as np
import pytest

from hybridhh.core import STAR, ParamError, Record, decode_star
from hybridhh.data import (
    Dataset,
    ParseError,
    UserLog,
    empirical_distribution,
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
        ds = parse_log(LOG)
        assert [u.user_id for u in ds.users] == ["u1", "u2"]
        assert ds.users[0].records == (
            Record("google", "google.com"),
            Record("google", "mail.google.com"),
        )

    def test_comments_and_blank_lines_skipped(self):
        ds = parse_log("# header\n\n" + LOG)
        assert len(ds) == 2

    def test_star_is_decoded(self):
        ds = parse_log("u1\t*\t*\n")
        assert ds.users[0].records == (Record(STAR, STAR),)

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
        assert again.users == ds.users

    def test_star_round_trips_as_ascii(self):
        ds = Dataset((UserLog("u1", (Record(STAR, STAR),)),))
        buf = io.StringIO()
        serialize_log(ds, buf)
        assert buf.getvalue() == "u1\t*\t*\n"


def parse_log_reference(stream):
    """The parser as first written: one new Record per line."""
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
    return Dataset(tuple(UserLog(uid, tuple(recs)) for uid, recs in by_user.items()))


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


class TestParseLogMatchesReference:
    @pytest.mark.parametrize("text", [LOG, EDGE_LOG, "# only a comment\n", ""])
    def test_same_dataset(self, text):
        assert parse_log(text) == parse_log_reference(text)

    def test_same_dataset_from_a_file(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_bytes(EDGE_LOG.encode("utf-8") + b"\r\nu4\tq\tu\r")
        with open(path, encoding="utf-8") as a, open(path, encoding="utf-8") as b:
            assert parse_log(a) == parse_log_reference(b)

    @pytest.mark.parametrize("text", [
        "u1\tq\tu\nbadline\n",
        "u1\tq\tu\n\nu2\tq\tu\tx\n",
        "u1\t\tu\n",
        "u1\tq\t \r\n",
        " \tq\tu\n",
        "u1\tq\tu\t\n",
    ])
    def test_same_error(self, text):
        with pytest.raises(ParseError) as want:
            parse_log_reference(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(want.value))}$"):
            parse_log(text)

    def test_equal_records_are_one_object(self):
        ds = parse_log(EDGE_LOG + "\nu5\tq\tu\nu6\t\u22c6\t\u22c6\n")
        by_value = {}
        for user in ds.users:
            for rec in user.records:
                assert by_value.setdefault(rec, rec) is rec
        assert len(by_value) == 4


class TestDataset:
    def test_empty_user_rejected(self):
        with pytest.raises(ParseError):
            UserLog("u", ())

    def test_truth_must_sum_to_one(self):
        users = (UserLog("u", (Record("q", "u"),)),)
        with pytest.raises(ParamError):
            Dataset(users, true_distribution={Record("q", "u"): 0.5})


def dataset_of(sizes, shared=False):
    """Users holding `sizes[i]` records each: their own records, or
    records drawn from a pool of 6 that users share."""
    return Dataset(tuple(
        UserLog(f"u{i}", tuple(
            Record(f"q{j % 6}", f"u{j % 3}") if shared else Record(f"q{i}", f"u{j}")
            for j in range(i % 5, i % 5 + n)
        ))
        for i, n in enumerate(sizes)
    ))


class TestSamplePerUser:
    def test_m1_is_uniform(self):
        recs = tuple(Record(f"q{i}", f"u{i}") for i in range(4))
        ds = Dataset(tuple(UserLog(f"u{i}", recs) for i in range(40_000)))
        rng = substream(51, 0)
        hits = sample_per_user(ds, np.arange(40_000), rng)[recs[0]]
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
        assert sample_per_user(ds, np.arange(len(ds)), rng_a) == want
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
        for i in users.tolist():
            records = ds.users[i].records
            want[records[rng_b.integers(len(records))]] += 1
        assert sample_per_user(ds, users, rng_a) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_single_record_users_consume_no_randomness(self):
        ds = dataset_of([1] * 50)
        rng = substream(54, 0)
        before = rng.bit_generator.state
        counts = sample_per_user(ds, np.arange(50), rng)
        assert counts == Counter(user.records[0] for user in ds.users)
        assert rng.bit_generator.state == before


class TestDatasetIndex:
    def test_index_reproduces_every_users_records(self):
        ds = dataset_of([3, 1, 4, 1, 5], shared=True)
        assert ds.record_ids.dtype == np.int32
        assert len(set(ds.record_table)) == len(ds.record_table)
        for user, start, n in zip(ds.users, ds.offsets.tolist(), ds.lengths.tolist()):
            ids = ds.record_ids[start:start + n].tolist()
            assert tuple(ds.record_table[i] for i in ids) == user.records

    def test_table_is_in_first_seen_order(self):
        ds = parse_log("a\tq2\tu\nb\tq1\tu\na\tq1\tu\nc\tq2\tu\n")
        assert ds.record_table == (Record("q2", "u"), Record("q1", "u"))
        assert ds.record_ids.tolist() == [0, 1, 1, 0]

    def test_index_stays_out_of_eq_and_repr(self):
        a, b = parse_log(LOG), parse_log(LOG)
        assert a == b
        assert "record_ids" not in repr(a) and "offsets" not in repr(a)


class TestPartitionUsers:
    def make_dataset(self, n):
        return Dataset(tuple(UserLog(f"u{i}", (Record("q", "u"),)) for i in range(n)))

    def test_frozen_sizes(self):
        # N=1000, optin 5%, f_O=0.95: |O|=50, |S|=round(47.5)=48, |T|=2.
        s, t, c = partition_users(self.make_dataset(1000), 0.05, 0.95, substream(0, 0))
        assert (len(s), len(t), len(c)) == (48, 2, 950)

    def test_partition_is_disjoint_and_covers(self):
        ds = self.make_dataset(200)
        s, t, c = partition_users(ds, 0.2, 0.5, substream(1, 0))
        indices = np.concatenate([s, t, c]).tolist()
        ids = [ds.users[i].user_id for i in indices]
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
        assert a.users == b.users

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
