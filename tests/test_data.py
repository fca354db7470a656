import io

import numpy as np
import pytest

from hybridhh.core import STAR, ParamError, Record
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


class TestDataset:
    def test_empty_user_rejected(self):
        with pytest.raises(ParseError):
            UserLog("u", ())

    def test_truth_must_sum_to_one(self):
        users = (UserLog("u", (Record("q", "u"),)),)
        with pytest.raises(ParamError):
            Dataset(users, true_distribution={Record("q", "u"): 0.5})


class TestSamplePerUser:
    def test_small_users_keep_everything(self):
        users = [UserLog("u", (Record("a", "1"), Record("b", "2")))]
        assert sorted(sample_per_user(users, 5, substream(0, 0))) == sorted(users[0].records)

    def test_samples_exactly_m_without_replacement(self):
        recs = tuple(Record(f"q{i}", f"u{i}") for i in range(10))
        users = [UserLog("u", recs)]
        out = sample_per_user(users, 3, substream(0, 0))
        assert len(out) == 3
        assert len(set(out)) == 3

    def test_m1_is_uniform(self):
        recs = tuple(Record(f"q{i}", f"u{i}") for i in range(4))
        users = [UserLog("u", recs)]
        rng = substream(51, 0)
        hits = sum(sample_per_user(users, 1, rng)[0] == recs[0] for _ in range(40_000))
        assert hits / 40_000 == pytest.approx(0.25, abs=0.01)


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
        ids = [u.user_id for u in s + t + c]
        assert len(ids) == 200
        assert len(set(ids)) == 200

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
