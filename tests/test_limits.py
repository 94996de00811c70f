import math

import numpy as np
import pytest

from mdgarch.innovations import RngStream
from mdgarch.limits import (normal_cdf, normal_cdfs, sample_std_normal_iid,
                            sample_time_weighted_wiener,
                            sample_wiener_marginals, time_weighted_wiener_cov,
                            wiener_cov)

GRID = (0.2, 0.4, 0.6, 0.8)


class TestNormalCdf:
    def test_midpoint(self):
        assert normal_cdf(0.0) == 0.5

    def test_tails(self):
        assert normal_cdf(40.0) == 1.0
        assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_975_quantile(self):
        assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-8)

    def test_symmetry_and_monotone(self):
        xs = np.linspace(-6, 6, 201)
        vals = [normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for x in xs:
            assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x),
                                                   abs=1e-12)


    def test_array_form_is_bit_identical(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate((
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             8.2, -8.2, 37.5, -37.5, 38.5, -38.5, 1e300, -1e300],
            rng.standard_normal(2000) * 10.0))
        got = normal_cdfs(xs)
        want = np.array([normal_cdf(x) for x in xs.tolist()])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert normal_cdfs(xs.reshape(5, -1)).tobytes() == want.tobytes()
        assert normal_cdfs(-1.5).shape == ()


class TestCovariances:
    def test_time_weighted_values(self):
        cov = time_weighted_wiener_cov((0.5, 0.8, 1.0))
        assert cov[0, 1] == pytest.approx(0.5 ** 3 / 3.0, rel=1e-14)  # 1/24
        assert cov[2, 2] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_wiener_values(self):
        cov = wiener_cov((0.25, 0.7))
        assert cov[0, 0] == 0.25
        assert cov[0, 1] == 0.25
        assert cov[1, 1] == 0.7

    @pytest.mark.parametrize("fn", [time_weighted_wiener_cov, wiener_cov])
    def test_symmetric_psd(self, fn):
        grid = (0.1, 0.3, 0.55, 0.9)
        cov = fn(grid)
        assert np.array_equal(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-14)


class TestSamplers:
    def test_std_normal_moments(self):
        s = sample_std_normal_iid(4, 100000, RngStream(1, 0))
        var = s.draws.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 5 * math.sqrt(2.0 / 100000))
        corr = np.corrcoef(s.draws, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 5.0 / math.sqrt(100000)

    def test_time_weighted_covariance(self):
        s = sample_time_weighted_wiener(GRID, 100000, RngStream(2, 0))
        emp = np.cov(s.draws, rowvar=False)
        ana = time_weighted_wiener_cov(GRID)
        # SE of a covariance entry is O(ana_ii/sqrt(reps)); 5 SE bound
        for i in range(4):
            for j in range(4):
                se = math.sqrt((ana[i, i] * ana[j, j] + ana[i, j] ** 2)
                               / 100000)
                assert abs(emp[i, j] - ana[i, j]) < 5 * se

    def test_var_at_one_is_third(self):
        s = sample_time_weighted_wiener((0.5, 1.0), 100000, RngStream(3, 0))
        v = s.draws[:, 1].var()
        se = math.sqrt(2.0 / 100000) / 3.0
        assert abs(v - 1.0 / 3.0) < 5 * se

    def test_wiener_increment_independence(self):
        s = sample_wiener_marginals((0.2, 0.6), 100000, RngStream(4, 0))
        inc = s.draws[:, 1] - s.draws[:, 0]
        rho = np.corrcoef(inc, s.draws[:, 0])[0, 1]
        assert abs(rho) < 5.0 / math.sqrt(100000)

    def test_wiener_marginal_var(self):
        s = sample_wiener_marginals((0.25, 0.5), 200000, RngStream(5, 0))
        assert abs(s.draws[:, 0].var() - 0.25) < 0.005

    def test_determinism(self):
        a = sample_wiener_marginals(GRID, 100, RngStream(6, 3))
        b = sample_wiener_marginals(GRID, 100, RngStream(6, 3))
        assert np.array_equal(a.draws, b.draws)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sample_wiener_marginals((0.5, 0.2), 10, RngStream(0, 0))
        with pytest.raises(ValueError):
            sample_time_weighted_wiener((), 10, RngStream(0, 0))
        with pytest.raises(ValueError):
            sample_std_normal_iid(0, 10, RngStream(0, 0))
