import math
import sys
import time
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridhh import cli, harness, oracle
from hybridhh.client import build_report_model, denoise_query, denoise_record
from hybridhh.core import STAR, HeadList, ParamError, PrivacyParams, Record, Stage
from hybridhh.oracle import (
    enumerate_report_distribution,
    forward_report_map,
    verify_dp,
    verify_dp_closed_form,
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
                assert abs(sum(dist.probs.values()) - 1) < mp.mpf("1e-40")
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

    def test_enumeration_reads_the_law_of_each_length(self, default_params):
        # q0 has k_q = 2, q1 has k_q = 4 and the star query k_q = 1.
        hl = _mixed_head_list([2, 4])
        model = build_report_model(default_params, hl)
        eps_q, delta_q, eps_u, delta_u = model.budgets
        k = model.k
        with mp.workdps(50):

            def truth(eps, delta, n):
                if n == 1:
                    return mp.mpf(1)
                e = mp.e**mp.mpf(eps)
                return (e + mp.mpf(delta) / 2 * (n - 1)) / (e + n - 1)

            t = truth(eps_q, delta_q, k)
            for rec in (Record("q0", "q0/u0"), Record("q1", "q1/u2"), Record(STAR, STAR)):
                probs = enumerate_report_distribution(rec, model, hl).probs
                assert set(probs) == set(hl.records())
                for out, p in probs.items():
                    kq = model.k_q[out.query]
                    tq = truth(eps_u, delta_u, kq)
                    if out == rec:
                        expected = t * tq                      # hit
                    elif out.query == rec.query:
                        expected = t * (1 - tq) / (kq - 1)     # miss
                    else:
                        expected = (1 - t) / ((k - 1) * kq)    # away
                    assert abs(p - expected) < mp.mpf("1e-45"), (rec, out)

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
            model, hl, default_params.epsilon, default_params.delta
        )
        assert violation <= 0.0

    def test_half_budget_fails(self, default_params):
        # The guarantee is tight enough that half the epsilon is violated.
        hl = make_augmented_head_list(3, 3)
        model = build_report_model(default_params, hl)
        violation = verify_dp(
            model, hl, default_params.epsilon / 2, default_params.delta
        )
        assert violation > 0.0

    def test_tight_epsilon_budget(self, default_params):
        hl = make_augmented_head_list(4, 3)
        model = build_report_model(default_params, hl)
        lo, hi = 0.0, default_params.epsilon
        for _ in range(30):
            mid = (lo + hi) / 2
            if verify_dp(model, hl, mid, default_params.delta) <= 0:
                hi = mid
            else:
                lo = mid
        # The smallest passing epsilon is positive and within the budget.
        assert 0.0 < hi <= default_params.epsilon


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
        for budget in (params.epsilon, params.epsilon / 2):
            got = verify_dp(model, hl, budget, params.delta)
            assert got == _pairwise_reference(model, hl, budget, params.delta)
            verdicts.add(got <= 0)
    assert verdicts == {True, False}   # budgets that pass and budgets that fail


def _mixed_head_list(lengths):
    """Client-augmented list whose regular queries hold `lengths` urls
    each, the star url included, plus the star query."""
    entries = {
        f"q{i}": tuple(f"q{i}/u{j}" for j in range(kq - 1)) + (STAR,)
        for i, kq in enumerate(lengths)
    }
    entries[STAR] = (STAR,)
    return HeadList(entries, Stage.CLIENT_AUGMENTED)


BUDGETS = [
    PrivacyParams(epsilon=4.0, delta=1e-5),
    PrivacyParams(epsilon=1.0, delta=1e-5, f_C=0.5),
    PrivacyParams(epsilon=2.0, delta=1e-7, f_C=0.95),
    PrivacyParams(epsilon=8.0, delta=1e-3),
    PrivacyParams(epsilon=8.0, delta=1e-5, f_C=0.05),   # url stage dominates
]


def _verify_dp_cli(capsys, k, kq):
    argv = ["verify-dp", "--k", str(k), "--kq", str(kq), "--epsilon", "4", "--delta", "1e-5"]
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestClosedForm:
    def test_matches_brute_force(self):
        verdicts = set()

        # With at most 25 records a brute-force example takes up to ~0.3 s,
        # past hypothesis's default deadline; 40 of them take about 2 s.
        @settings(deadline=None, max_examples=40)
        @given(
            lengths=st.lists(st.integers(1, 5), min_size=1, max_size=8).filter(
                lambda ls: sum(ls) < 25
            ),
            params=st.sampled_from(BUDGETS),
        )
        def check(lengths, params):
            hl = _mixed_head_list(lengths)
            model = build_report_model(params, hl)
            for eps in (params.epsilon, params.epsilon / 2):
                got = verify_dp_closed_form(model, eps, params.delta)
                assert got == verify_dp(model, hl, eps, params.delta)
                verdicts.add(got <= 0)

        check()
        assert verdicts == {True, False}

    @pytest.mark.parametrize("lengths", [[2], [3], [2, 4], [1, 2, 5]])
    def test_matches_brute_force_below_zero_epsilon(self, lengths):
        # Below zero every group counts, including outputs that both
        # inputs reach alike.
        hl = _mixed_head_list(lengths)
        for params in (BUDGETS[1], BUDGETS[4]):
            model = build_report_model(params, hl)
            for eps in (-0.5, -2.0):
                got = verify_dp_closed_form(model, eps, params.delta)
                assert got == verify_dp(model, hl, eps, params.delta)

    def test_cli_never_enumerates(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verify-dp enumerated an output law")

        monkeypatch.setattr(oracle, "enumerate_report_distribution", refuse)
        code, out = _verify_dp_cli(capsys, 14, 4)
        assert code == 0
        assert out == "max violation: -1.000e-05 (PASS)\n"

    def test_cli_certifies_beyond_the_enumeration_guard(self, capsys):
        # 399 queries of 30 urls: 12000 > _SIZE_GUARD, so the brute force
        # refuses this shape.
        code, out = _verify_dp_cli(capsys, 400, 30)
        assert code == 0
        assert "(PASS)" in out

    @pytest.mark.parametrize("kq", [0, -3])
    def test_cli_rejects_kq_below_one(self, capsys, kq):
        code, out = _verify_dp_cli(capsys, 14, kq)
        assert code == 1
        assert "PASS" not in out

    def test_certifies_run_lists(self):
        # The default run's augmented list (about 155 records) and a
        # wide one (M = 250, opt-in 0.4), each on the default synthetic log.
        base = harness.ExperimentConfig()
        dataset = harness.load_dataset(base)
        wide = replace(base.params, M=250, optin_fraction=0.4)
        for config in (base, replace(base, params=wide)):
            params = config.params
            result = harness.run_blender(config, dataset)
            hl = result.head_list.augment_for_clients()
            model = build_report_model(params, hl)
            assert set(model.k_q.values()) == {1, 2, 3, 4, 5}
            start = time.perf_counter()
            at_budget = verify_dp_closed_form(model, params.epsilon, params.delta)
            at_half = verify_dp_closed_form(model, params.epsilon / 2, params.delta)
            elapsed = time.perf_counter() - start
            assert at_budget <= 0 < at_half
            assert elapsed < 2.0   # two certificates, 1 s each


def _epsilon_limit(f_c):
    """The budget at which the larger stage's e^epsilon overflows a float."""
    return math.log(sys.float_info.max) / max(f_c, 1 - f_c)


class TestEveryAcceptedEpsilon:
    # Mixed url-list lengths, the star query's k_q = 1 in each.
    SHAPES = ([2], [2, 4], [1, 2, 5], [3, 3, 1, 4])

    @settings(deadline=None, max_examples=60)
    @given(
        budget=st.sampled_from([0.85, 0.5, 0.05]).flatmap(
            lambda f_c: st.tuples(
                st.just(f_c),
                st.floats(math.log(2), _epsilon_limit(f_c), exclude_min=True, exclude_max=True),
            )
        )
    )
    @example(budget=(0.85, 140.0))
    @example(budget=(0.85, 700.0))
    @example(budget=(0.85, math.nextafter(_epsilon_limit(0.85), 0)))
    def test_closed_form_passes_up_to_the_limit(self, budget):
        # 1 - t falls below 1e-50 from epsilon = 140 at f_C = 0.85; the
        # certificate must still see the channel's budget.
        f_c, eps = budget
        params = PrivacyParams(epsilon=eps, delta=1e-5, f_C=f_c)
        for lengths in self.SHAPES:
            model = build_report_model(params, _mixed_head_list(lengths))
            assert verify_dp_closed_form(model, params.epsilon, params.delta) <= 0

    def test_the_limit_is_rejected(self):
        for f_c in (0.85, 0.5, 0.05):
            limit = _epsilon_limit(f_c)
            PrivacyParams(epsilon=math.nextafter(limit, 0), f_C=f_c)
            with pytest.raises(ParamError, match=f"epsilon must be below {limit}"):
                PrivacyParams(epsilon=limit, f_C=f_c)
