import math

import numpy as np
import pytest

from hybridhh.sampling import (
    client_stream_id,
    laplace_samples,
    substream,
)

N = 10**6


class TestLaplace:
    def test_rejects_nonpositive_scale(self):
        rng = substream(0, 0)
        with pytest.raises(ValueError):
            laplace_samples(0.0, 1, rng)
        with pytest.raises(ValueError):
            laplace_samples(-1.0, 10, rng)

    def test_a_zero_uniform_is_drawn_again(self):
        class Stub:
            """Hands out the given uniform batches in turn."""

            def __init__(self, *batches):
                self.batches = list(batches)

            def random(self, n):
                batch = self.batches.pop(0)
                assert len(batch) == n
                return np.array(batch)

        # A zero would give log1p(-1) = -inf; the redraws come after the others.
        draws = laplace_samples(1.0, 3, Stub([0.0, 0.25, 0.0], [0.0, 0.75], [0.25]))
        assert draws.tolist() == [-math.log(2), -math.log(2), math.log(2)]
        assert laplace_samples(1.0, 3, Stub([0.5, 0.25, 0.75])).tolist() == [0.0, *draws[1:]]

    def test_mean_is_zero(self):
        draws = laplace_samples(0.5, N, substream(11, 0))
        assert abs(draws.mean()) < 0.01

    @pytest.mark.parametrize("scale", [0.25, 0.5, 2.0])
    def test_variance_matches_identity(self, scale):
        # Moment oracle: Var[Lap(b)] = 2 b^2.
        draws = laplace_samples(scale, N, substream(12, 0))
        assert draws.var() == pytest.approx(2 * scale**2, rel=0.05)

    def test_median_at_zero(self):
        draws = laplace_samples(1.0, N, substream(13, 0))
        assert (draws > 0).mean() == pytest.approx(0.5, abs=0.005)

    def test_ks_against_analytic_cdf(self):
        b = 0.7
        draws = laplace_samples(b, N, substream(14, 0))
        x = np.sort(draws)
        cdf = np.where(x < 0, 0.5 * np.exp(x / b), 1 - 0.5 * np.exp(-x / b))
        # Two-sided KS statistic: the largest gap between the empirical
        # CDF (on either side of each jump) and the analytic one.
        i = np.arange(1, N + 1)
        stat = max((i / N - cdf).max(), (cdf - (i - 1) / N).max())
        assert stat < 0.002


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, 1).random(100)
        b = substream(7, 1).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = substream(7, 1).random(100)
        b = substream(7, 2).random(100)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        a = substream(7, 1).random(10**5)
        b = substream(7, 2).random(10**5)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_client_stream_id_is_stable(self):
        assert client_stream_id("user42") == client_stream_id("user42")
        assert client_stream_id("user42") != client_stream_id("user43")
        assert 0 <= client_stream_id("anyone") < 2**64
