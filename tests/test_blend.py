import numpy as np
import pytest

from hybridhh.blend import (
    BlendedOutput,
    blend_probabilities,
    blend_weight,
    project_to_simplex,
)
from hybridhh.core import STAR, EstimateVector, HeadList, ParamError, Record, Stage
from hybridhh.sampling import substream

from conftest import make_final_head_list


def make_vector(hl, probs, var):
    """Record probabilities `probs` in list order, their query sums, and
    one variance `var` everywhere."""
    p = np.array(probs, dtype=float)
    of_query = [hl.queries.index(r.query) for r in hl.records()]
    q = np.bincount(of_query, weights=p, minlength=hl.k)
    return EstimateVector(hl, p, np.full(len(p), var), q, np.full(hl.k, var))


def blend_reference(optin, client, project):
    """The blend as one pass over the opt-in records in plain Python,
    reading both vectors by record."""
    probs, weights = {}, {}
    for rec, p_o in optin.record_probs.items():
        total = optin.record_vars[rec] + client.record_vars[rec]
        w = 0.5 if total == 0 else client.record_vars[rec] / total
        weights[rec] = w
        probs[rec] = w * p_o + (1.0 - w) * client.record_probs[rec]
    if project:
        keys = list(probs)
        projected = project_to_simplex(np.array([probs[r] for r in keys]))
        probs = {r: float(p) for r, p in zip(keys, projected)}
    return probs, weights


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

    def test_arrays_match_scalar_calls(self):
        rng = substream(34, 0)
        a, b = rng.uniform(0.0, 2.0, size=(2, 200))
        b[:5] = 0.0    # all weight on the client side
        w = blend_weight(a, b)
        assert isinstance(w, np.ndarray) and isinstance(blend_weight(1.0, 3.0), float)
        assert w.tolist() == [blend_weight(x, y) for x, y in zip(a.tolist(), b.tolist())]

    @pytest.mark.parametrize("side", [0, 1])
    def test_any_negative_element_rejected(self, side):
        variances = [np.full(6, 0.25), np.full(6, 0.5)]
        variances[side][4] = -1e-300
        with pytest.raises(ParamError):
            blend_weight(*variances)

    def test_zero_totals_warn_once_per_call(self):
        with pytest.warns(UserWarning) as caught:
            w = blend_weight(np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 3.0, 0.0, 2.0]))
        assert len(caught) == 1
        assert w.tolist() == [0.5, 0.75, 0.5, 1.0]

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
        assert out.w.tolist() == pytest.approx([1.0 / 3.0] * hl.num_records())

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
        short_hl = HeadList({"q0": ("q0/u0",), STAR: (STAR,)}, Stage.FINAL)
        short = make_vector(short_hl, [0.5, 0.5], 0.1)
        with pytest.raises(ParamError, match="missing record"):
            blend_probabilities(a, short, hl)

    def test_optin_vector_over_another_list_rejected(self):
        hl = make_final_head_list(2, 2)
        a = make_vector(hl, [0.4, 0.2, 0.15, 0.15, 0.1], 0.02)
        with pytest.raises(ParamError, match="opt-in"):
            blend_probabilities(a, a, make_final_head_list(2, 3))

    @pytest.mark.parametrize("project", [True, False])
    def test_matches_per_record_reference(self, project):
        # The client list holds every final record, in another order and
        # between its star slots, as a client-augmented list may.
        hl = make_final_head_list(3, 2)
        client_hl = HeadList(
            {
                "q2": (STAR, "q2/u1", "q2/u0"),
                "q0": ("q0/u1", STAR, "q0/u0"),
                STAR: (STAR,),
                "q1": ("q1/u0", "q1/u1", STAR),
            },
            Stage.CLIENT_AUGMENTED,
        )
        rng = substream(35, 0)
        vectors = []
        for head_list in (hl, client_hl):
            n = head_list.num_records()
            var = rng.uniform(0.0, 0.02, n)
            var[head_list.slot[Record("q1", "q1/u0")]] = 0.0   # zero on both sides
            queries = np.full(head_list.k, 0.01)
            vectors.append(
                EstimateVector(head_list, rng.normal(0.12, 0.1, n), var, queries, queries)
            )
        optin, client = vectors

        with pytest.warns(UserWarning) as caught:
            out = blend_probabilities(optin, client, hl, project=project)
        assert len(caught) == 1
        probs, weights = blend_reference(optin, client, project)
        assert out.head_list is hl
        assert out.p.tolist() == list(probs.values()) and out.probs == probs
        assert out.w.tolist() == list(weights.values()) and list(weights) == list(hl.records())
        assert weights[Record("q1", "q1/u0")] == 0.5


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
