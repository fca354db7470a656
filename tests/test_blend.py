import numpy as np
import pytest

from hybridhh.blend import (
    BlendedOutput,
    blend_probabilities,
    blend_weight,
    project_to_simplex,
)
from hybridhh.core import EstimateVector, ParamError, Record
from hybridhh.sampling import substream

from conftest import make_final_head_list


def make_vector(hl, probs, var):
    recs = list(hl.records())
    p = {r: probs[i] for i, r in enumerate(recs)}
    v = {r: var for r in recs}
    q = {}
    for r, pp in p.items():
        q[r.query] = q.get(r.query, 0.0) + pp
    return EstimateVector(p, v, q, {qq: var for qq in q}, 1000)


class TestBlendWeight:
    def test_symmetry(self):
        assert blend_weight(0.3, 0.3) == 0.5

    def test_zero_client_variance_gets_full_client_weight(self):
        assert blend_weight(1.7, 0.0) == 0.0

    def test_frozen_ratio(self):
        assert blend_weight(1.0, 3.0) == pytest.approx(0.75)

    def test_both_zero_warns_and_splits(self):
        with pytest.warns(UserWarning):
            assert blend_weight(0.0, 0.0) == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ParamError):
            blend_weight(-1.0, 0.5)

    def test_minimizes_blended_variance_on_grid(self):
        # w^2 a + (1-w)^2 b is minimized at w = b / (a + b).
        rng = substream(31, 0)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(20):
            a, b = rng.uniform(1e-6, 1.0, size=2)
            w = blend_weight(a, b)
            objective = grid**2 * a + (1 - grid) ** 2 * b
            assert w**2 * a + (1 - w) ** 2 * b <= objective.min() + 1e-12

    def test_blended_variance_beats_both_inputs(self):
        a, b = 1.0, 3.0
        w = blend_weight(a, b)
        blended = w**2 * a + (1 - w) ** 2 * b
        assert blended == pytest.approx(0.75)
        assert blended < min(a, b)


class TestBlendProbabilities:
    def test_identical_inputs_pass_through(self):
        hl = make_final_head_list(2, 2)
        probs = [0.4, 0.2, 0.15, 0.15, 0.1]
        vec = make_vector(hl, probs, 0.01)
        out = blend_probabilities(vec, vec, hl, project=False)
        for r, p in vec.record_probs.items():
            assert out.probs[r] == pytest.approx(p)

    def test_result_is_convex_combination(self):
        hl = make_final_head_list(2, 2)
        a = make_vector(hl, [0.4, 0.2, 0.15, 0.15, 0.1], 0.02)
        b = make_vector(hl, [0.3, 0.3, 0.2, 0.1, 0.1], 0.01)
        out = blend_probabilities(a, b, hl, project=False)
        for r in hl.records():
            lo = min(a.record_probs[r], b.record_probs[r])
            hi = max(a.record_probs[r], b.record_probs[r])
            assert lo - 1e-12 <= out.probs[r] <= hi + 1e-12
            assert out.weights[r] == pytest.approx(1.0 / 3.0)

    def test_projection_lands_on_simplex(self):
        hl = make_final_head_list(2, 2)
        a = make_vector(hl, [0.7, 0.4, -0.1, 0.15, 0.1], 0.02)
        b = make_vector(hl, [0.6, 0.3, 0.0, 0.2, 0.15], 0.01)
        out = blend_probabilities(a, b, hl, project=True)
        vals = np.array(list(out.probs.values()))
        assert (vals >= 0).all()
        assert vals.sum() == pytest.approx(1.0, abs=1e-9)

    def test_missing_client_key_rejected(self):
        hl = make_final_head_list(2, 2)
        a = make_vector(hl, [0.4, 0.2, 0.15, 0.15, 0.1], 0.02)
        short = EstimateVector(
            {Record("q0", "q0/u0"): 0.5}, {Record("q0", "q0/u0"): 0.1}, {"q0": 0.5}, {"q0": 0.1}, 10
        )
        with pytest.raises(ParamError):
            blend_probabilities(a, short, hl)


class TestProjectToSimplex:
    def test_on_simplex_is_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        assert project_to_simplex(v) == pytest.approx(v)

    def test_symmetric_input(self):
        assert project_to_simplex(np.array([0.5, 0.5, 0.5])) == pytest.approx([1 / 3] * 3)

    def test_frozen_example(self):
        out = project_to_simplex(np.array([1.2, -0.1, 0.3]))
        assert out == pytest.approx([0.95, 0.0, 0.05], abs=1e-12)

    def test_idempotent_and_feasible(self):
        rng = substream(32, 0)
        for _ in range(50):
            v = rng.normal(0, 2, size=7)
            p = project_to_simplex(v)
            assert (p >= 0).all()
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert project_to_simplex(p) == pytest.approx(p, abs=1e-12)

    def test_is_nearest_feasible_point(self):
        rng = substream(33, 0)
        for _ in range(10):
            v = rng.normal(0, 1, size=5)
            p = project_to_simplex(v)
            d_opt = ((p - v) ** 2).sum()
            candidates = rng.dirichlet(np.ones(5), size=1000)
            d_rand = ((candidates - v) ** 2).sum(axis=1)
            assert d_opt <= d_rand.min() + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ParamError):
            project_to_simplex(np.array([0.5, np.nan]))
        with pytest.raises(ParamError):
            project_to_simplex(np.array([0.5, np.inf]))
