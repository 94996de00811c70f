import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdgarch.localization import (InfeasibleScheme, LocalizationScheme,
                                  Regime, check_assumptions, classify_regime,
                                  realize_params)


def scheme(**kw):
    base = dict(omega=1.0, sigma0_sq=1.0, c_alpha=1.0, p=0.5,
                c_gamma=-1.0, kappa=0.4)
    base.update(kw)
    return LocalizationScheme(**base)


class TestRealize:
    def test_integrated_arithmetic(self):
        p = realize_params(scheme(c_gamma=0.0), 100)
        assert p.alpha_n == pytest.approx(0.1, abs=1e-15)
        assert p.gamma_n == 0.0
        assert p.beta_n == pytest.approx(0.9, abs=1e-15)

    def test_ns_power_evaluation(self):
        p = realize_params(scheme(), 10000)
        assert p.alpha_n == pytest.approx(0.01, rel=1e-14)
        # gamma = -10^{-1.6}, frozen full-precision value
        assert p.gamma_n == pytest.approx(-0.025118864315095794, rel=1e-14)
        assert p.beta_n == pytest.approx(1.0 + p.gamma_n - p.alpha_n,
                                         rel=1e-15)

    def test_gamma_identity(self):
        # beta is derived as 1 + gamma - alpha, so the identity holds to
        # one rounding unit
        p = realize_params(scheme(c_gamma=1.0, kappa=0.6), 5000)
        assert p.alpha_n + p.beta_n - 1.0 == pytest.approx(p.gamma_n,
                                                           abs=1e-15)

    def test_infeasible_beta(self):
        with pytest.raises(InfeasibleScheme):
            realize_params(scheme(c_alpha=2.0, p=0.1, c_gamma=0.0), 2)

    @pytest.mark.parametrize("c_gamma", [1e-20, -1e-20, 5e-324, -5e-324])
    def test_gamma_lost_in_beta(self, c_gamma):
        # gamma_n rounds away in 1 + gamma_n (or underflows to 0): the
        # recursion would simulate an integrated process
        with pytest.raises(InfeasibleScheme, match="lost in beta_n"):
            realize_params(scheme(c_alpha=1.0, c_gamma=c_gamma), 10)

    def test_small_resolvable_gamma_accepted(self):
        p = realize_params(scheme(c_gamma=1e-14), 10)
        assert p.gamma_n > 0.0
        assert p.beta_n > 1.0 - p.alpha_n
        assert classify_regime(p) is Regime.NEAR_EXPLOSIVE

    def test_n_too_small(self):
        with pytest.raises(InfeasibleScheme):
            realize_params(scheme(), 1)


class TestSchemeValidation:
    @pytest.mark.parametrize("kw", [dict(omega=0.0), dict(sigma0_sq=-1.0),
                                    dict(c_alpha=0.0), dict(p=0.0),
                                    dict(p=1.0), dict(kappa=0.0),
                                    dict(kappa=1.5)])
    def test_rejects(self, kw):
        with pytest.raises(InfeasibleScheme):
            scheme(**kw)

    def test_kappa_ignored_when_integrated(self):
        # c_gamma = 0 encodes the integrated case; kappa is not consulted
        s = scheme(c_gamma=0.0, kappa=0.5)
        assert realize_params(s, 50).gamma_n == 0.0

    def test_config_roundtrip(self):
        s = scheme(c_gamma=1.0, kappa=0.6)
        assert LocalizationScheme.from_config(s.to_config()) == s


class TestRegime:
    def test_near_stationary(self):
        assert classify_regime(realize_params(scheme(), 100)) \
            is Regime.NEAR_STATIONARY

    def test_integrated(self):
        assert classify_regime(realize_params(scheme(c_gamma=0.0), 100)) \
            is Regime.INTEGRATED

    def test_near_explosive(self):
        assert classify_regime(realize_params(scheme(c_gamma=1.0), 100)) \
            is Regime.NEAR_EXPLOSIVE

    @given(c_gamma=st.floats(-2.0, 2.0), n=st.integers(10, 10 ** 6))
    @example(c_gamma=5e-324, n=10)
    @example(c_gamma=-5e-324, n=10)
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_sign(self, c_gamma, n):
        s = scheme(c_alpha=0.5, c_gamma=c_gamma)
        try:
            params = realize_params(s, n)
        except InfeasibleScheme:
            # refused exactly when gamma_n leaves no trace in beta_n
            assert c_gamma != 0.0
            assert (1.0 + c_gamma * n ** -0.4) - 0.5 * n ** -0.5 \
                == 1.0 - 0.5 * n ** -0.5
            return
        regime = classify_regime(params)
        if c_gamma < 0.0:
            assert regime is Regime.NEAR_STATIONARY
        elif c_gamma > 0.0:
            assert regime is Regime.NEAR_EXPLOSIVE
        else:
            assert regime is Regime.INTEGRATED


GRID = (1000, 10000, 100000)


class TestAssumptions:
    def test_a3_holds(self):
        rep = check_assumptions(scheme(p=0.6, kappa=0.4), GRID)
        assert rep.ns_rate_condition_holds  # 0.45 < 0.6 < 0.85

    def test_a3_fails(self):
        rep = check_assumptions(scheme(p=0.3, kappa=0.4), GRID)
        assert not rep.ns_rate_condition_holds  # 0.3 < 0.45

    def test_a4_holds(self):
        rep = check_assumptions(scheme(p=0.5, c_gamma=1.0, kappa=0.6), GRID)
        assert rep.ne_rate_condition_holds

    @pytest.mark.parametrize("p,vanishes", [(0.4, True), (0.5, True),
                                            (0.7, False)])
    def test_ns_centering_offset_vanishes(self, p, vanishes):
        # p < 3 kappa / 2 = 0.6: the classical centering offset, of order
        # n^{p - 3 kappa / 2}, vanishes, whatever the coded NS condition
        rep = check_assumptions(scheme(p=p, kappa=0.4), GRID)
        assert rep.ns_centering_offset_vanishes is vanishes

    def test_acceptance_ns_centering_offset_vanishes(self):
        rep = check_assumptions(scheme(), GRID)  # p 0.5, kappa 0.4
        assert rep.ns_rate_condition_holds
        assert rep.ns_centering_offset_vanishes

    def test_a2_always_for_valid_p(self):
        assert check_assumptions(scheme(), GRID).rate_bound_holds

    def test_grid_too_short(self):
        with pytest.raises(ValueError):
            check_assumptions(scheme(), (100, 200))

    def test_grid_not_increasing(self):
        with pytest.raises(ValueError):
            check_assumptions(scheme(), (100, 100, 200))

    def test_diagnostic_trends(self):
        rep = check_assumptions(scheme(), (16, 100, 1000, 10000))
        n_alpha = [r["n_alpha"] for r in rep.rows]
        a_ll = [r["alpha_loglog_n"] for r in rep.rows]
        assert all(b > a for a, b in zip(n_alpha, n_alpha[1:]))
        assert all(b < a for a, b in zip(a_ll, a_ll[1:]))

    def test_diagnostic_values(self):
        rep = check_assumptions(scheme(), GRID)
        row = rep.rows[1]  # n = 10^4
        a, g = 0.01, 10 ** -1.6
        assert row["alpha_loglog_n"] == pytest.approx(
            a * math.log(math.log(10 ** 4)), rel=1e-12)
        assert row["gamma_over_alpha"] == pytest.approx(-g / a, rel=1e-12)

    @given(p=st.floats(0.05, 0.95), kappa=st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_analytic_verdicts_match_exponents(self, p, kappa):
        # small constants keep beta_n feasible across the whole (p, kappa) box
        rep = check_assumptions(
            scheme(c_alpha=0.1, c_gamma=-0.1, p=p, kappa=kappa), GRID)
        assert rep.rate_bound_holds == (0.0 < p < 1.0)
        assert rep.ns_rate_condition_holds == \
            (kappa / 2.0 + 0.25 < p < 1.5 * kappa + 0.25)
        assert rep.ns_centering_offset_vanishes == (p < 1.5 * kappa)
        assert rep.ne_rate_condition_holds == (kappa > p)
