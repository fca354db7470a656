import mpmath as mp
import pytest

from hybridhh import cli
from hybridhh.client import build_report_model, denoise_query, denoise_record
from hybridhh.core import STAR, HeadList, ParamError, PrivacyParams, Record, Stage
from hybridhh.oracle import (
    enumerate_report_distribution,
    forward_report_map,
    verify_dp,
)
from hybridhh.sampling import substream

from conftest import make_augmented_head_list


class TestEnumeration:
    def test_distribution_sums_to_one(self, default_params):
        hl = make_augmented_head_list(4, 3)
        model = build_report_model(default_params, hl)
        for rec in hl.records():
            dist = enumerate_report_distribution(rec, model, hl)
            with mp.workdps(50):
                assert abs(dist.total() - 1) < mp.mpf("1e-40")
            assert set(dist.probs) == set(hl.records())

    def test_branch_probabilities_closed_form(self, default_params):
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        rec = Record("q0", "q0/u0")
        dist = enumerate_report_distribution(rec, model, hl).as_float()
        t, tq = model.t, model.t_q["q0"]
        k, kq = model.k, model.k_q["q0"]
        assert dist[rec] == pytest.approx(t * tq, rel=1e-12)
        assert dist[Record("q0", "q0/u1")] == pytest.approx(t * (1 - tq) / (kq - 1), rel=1e-12)
        assert dist[Record("q1", STAR)] == pytest.approx(
            (1 - t) / ((k - 1) * model.k_q["q1"]), rel=1e-12
        )

    def test_unlisted_input_is_canonicalized(self, default_params):
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        a = enumerate_report_distribution(Record("q0", "nope"), model, hl).as_float()
        b = enumerate_report_distribution(Record("q0", STAR), model, hl).as_float()
        assert a == b

    def test_star_only_list_is_rejected(self, default_params, capsys):
        # A channel with only the star query carries nothing; the model
        # refuses it, so no consumer handles k = 1.
        hl = HeadList({STAR: (STAR,)}, Stage.CLIENT_AUGMENTED)
        with pytest.raises(ParamError, match="regular query"):
            build_report_model(default_params, hl)
        argv = ["verify-dp", "--k", "1", "--kq", "3", "--epsilon", "4", "--delta", "1e-5"]
        assert cli.main(argv) == 1
        assert "PASS" not in capsys.readouterr().out

    def test_size_guard(self, default_params):
        hl = make_augmented_head_list(200, 60)
        model = build_report_model(default_params, hl)
        with pytest.raises(ParamError, match="too large"):
            enumerate_report_distribution(Record("q0", STAR), model, hl)


class TestForwardMap:
    def test_preserves_total_mass(self, default_params):
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        rng = substream(71, 0)
        recs = list(hl.records())
        p = dict(zip(recs, rng.dirichlet([1.0] * len(recs))))
        r_rec, r_query = forward_report_map(p, model, hl)
        assert sum(r_rec.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(r_query.values()) == pytest.approx(1.0, abs=1e-12)

    def test_denoising_inverts_forward_map(self, default_params):
        # Observation-level exactness on one instance; the acceptance suite
        # repeats this over random instances.
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        rng = substream(72, 0)
        recs = list(hl.records())
        p = dict(zip(recs, rng.dirichlet([1.0] * len(recs))))
        r_rec, r_query = forward_report_map(p, model, hl)
        for q in hl.queries:
            p_q_true = sum(p[r] for r in recs if r.query == q)
            p_q = denoise_query(r_query[q], model.t, model.k)
            assert p_q == pytest.approx(p_q_true, abs=1e-13)
            for u in hl.urls(q):
                rec = Record(q, u)
                got = denoise_record(
                    r_rec[rec], p_q, model.t, model.t_q[q], model.k, model.k_q[q]
                )
                assert got == pytest.approx(p[rec], abs=1e-13)

    def test_rejects_unnormalized_input(self, default_params):
        hl = make_augmented_head_list(3, 2)
        model = build_report_model(default_params, hl)
        with pytest.raises(ParamError):
            forward_report_map({Record(STAR, STAR): 0.5}, model, hl)


class TestVerifyDp:
    def test_budgeted_channel_passes(self, default_params):
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        violation = verify_dp(
            model, hl, default_params.eps_prime, default_params.delta_prime
        )
        assert violation <= 0.0

    def test_half_budget_fails(self, default_params):
        # The guarantee is tight enough that half the epsilon is violated.
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        violation = verify_dp(
            model, hl, default_params.eps_prime / 2, default_params.delta_prime
        )
        assert violation > 0.0

    def test_tight_epsilon_budget(self, default_params):
        hl = make_augmented_head_list(4, 3)
        model = build_report_model(default_params, hl)
        lo, hi = 0.0, default_params.eps_prime
        for _ in range(30):
            mid = (lo + hi) / 2
            if verify_dp(model, hl, mid, default_params.delta_prime) <= 0:
                hi = mid
            else:
                lo = mid
        # The smallest passing epsilon is positive and within the budget.
        assert 0.0 < hi <= default_params.eps_prime


def _pairwise_reference(model, hl, eps, delta):
    """verify_dp as first written: dict-keyed laws, every product e^eps *
    P[y|r'] recomputed inside the pair loop."""
    inputs = list(hl.records())
    dists = [enumerate_report_distribution(r, model, hl) for r in inputs]
    with mp.workdps(50):
        e_eps = mp.e**mp.mpf(eps)
        worst = mp.mpf(0)
        for i, di in enumerate(dists):
            for j, dj in enumerate(dists):
                if i == j:
                    continue
                slack = mp.mpf(0)
                for y in inputs:
                    gap = di.probs[y] - e_eps * dj.probs[y]
                    if gap > 0:
                        slack += gap
                if slack > worst:
                    worst = slack
        return float(worst - mp.mpf(delta))


@pytest.mark.parametrize("k,kq", [(2, 2), (3, 4), (5, 3)])
def test_verify_dp_matches_pairwise_reference(k, kq):
    hl = make_augmented_head_list(k, kq)
    verdicts = set()
    for eps, delta in ((1.0, 1e-5), (4.0, 1e-7)):
        params = PrivacyParams(epsilon=eps, delta=delta)
        model = build_report_model(params, hl)
        for budget in (params.eps_prime, params.eps_prime / 2):
            got = verify_dp(model, hl, budget, params.delta_prime)
            assert got == _pairwise_reference(model, hl, budget, params.delta_prime)
            verdicts.add(got <= 0)
    assert verdicts == {True, False}   # budgets that pass and budgets that fail
