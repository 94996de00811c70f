import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdgarch
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.localization import (GarchParams, LocalizationScheme,
                                  realize_params)
from mdgarch.simulate import CLASSICAL, LITERAL, simulate_path
from mdgarch.stats import (CancellationError, CheckpointGrid, WrongRegime,
                           checkpoint_returns, geometric_exp_sum,
                           int_return_stat, int_return_stats,
                           int_volatility_stat, int_volatility_stats,
                           lemma_discrepancy, log_geometric_exp_sum,
                           ne_return_stat, ne_return_stats,
                           ne_volatility_stat, ne_volatility_stats,
                           ns_return_stat, ns_return_stats,
                           ns_volatility_stat, ns_volatility_stats,
                           tau_stats, weighted_exp_sum)

NORMAL = InnovationSpec(kind="standard-normal")


def regime_params(c_gamma, n=5000, p=0.5, kappa=0.4):
    scheme = LocalizationScheme(omega=1.0, sigma0_sq=1.0, c_alpha=1.0,
                                p=p, c_gamma=c_gamma, kappa=kappa)
    return realize_params(scheme, n)


NS = regime_params(-1.0)
INT = regime_params(0.0, p=0.6)
NE = regime_params(1.0, kappa=0.6)


class TestCheckpointGrid:
    def test_checkpoints(self):
        grid = CheckpointGrid((0.2, 0.4, 0.6, 0.8))
        assert grid.checkpoints(5000) == (1000, 2000, 3000, 4000)

    def test_rejects_bad_grids(self):
        for bad in ((), (0.0, 0.5), (0.5, 0.5), (0.4, 0.2), (0.5, 1.0)):
            with pytest.raises(ValueError):
                CheckpointGrid(bad)

    def test_too_early_for_n(self):
        with pytest.raises(ValueError):
            CheckpointGrid((0.2, 0.8)).checkpoints(10)


class TestExpSums:
    def test_geometric_zero(self):
        assert geometric_exp_sum(0.0, 10) == 9.0

    def test_geometric_powers_of_two(self):
        assert geometric_exp_sum(math.log(2.0), 4) == pytest.approx(14.0,
                                                                    rel=1e-14)

    def test_geometric_tiny_a_vs_bruteforce(self):
        a, k = -1e-8, 10 ** 6
        brute = math.fsum(math.exp(j * a) for j in range(1, k))
        assert geometric_exp_sum(a, k) == pytest.approx(brute, rel=1e-10)

    def test_geometric_random_vs_bruteforce(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            a = rng.uniform(-1.0, 1.0)
            k = int(rng.integers(2, 2000))
            if a * k > 600.0:  # keep the brute-force sum representable
                a = 600.0 / k
            brute = math.fsum(math.exp(j * a) for j in range(1, k))
            assert geometric_exp_sum(a, k) == pytest.approx(brute, rel=1e-10)

    def test_geometric_overflow_returns_inf(self):
        assert geometric_exp_sum(1.0, 10 ** 5) == math.inf
        assert weighted_exp_sum(1.0, 10 ** 5) == math.inf

    def test_log_geometric_overflow_safe(self):
        val = log_geometric_exp_sum(0.01, 10 ** 6)
        # dominated by the top term: (k-1)a + a - log(e^a - 1)
        approx = 10 ** 6 * 0.01 - math.log(math.expm1(0.01))
        assert val == pytest.approx(approx, rel=1e-10)

    def test_log_geometric_matches_linear(self):
        for a, k in ((-0.01, 500), (0.002, 1000), (0.0, 7), (0.3, 50)):
            assert log_geometric_exp_sum(a, k) == pytest.approx(
                math.log(geometric_exp_sum(a, k)), rel=1e-12)

    def test_weighted_zero(self):
        assert weighted_exp_sum(0.0, 4) == 10.0

    def test_weighted_powers_of_two(self):
        assert weighted_exp_sum(math.log(2.0), 3) == pytest.approx(34.0,
                                                                   rel=1e-14)

    def test_weighted_random_vs_bruteforce(self):
        rng = np.random.default_rng(321)
        for _ in range(200):
            a = rng.uniform(-1.0, 1.0)
            k = int(rng.integers(1, 2000))
            if a * (k + 1) > 600.0:
                a = 600.0 / (k + 1)
            brute = math.fsum(j * math.exp(j * a) for j in range(1, k + 1))
            assert weighted_exp_sum(a, k) == pytest.approx(brute, rel=1e-10)

    def test_weighted_taylor_branch(self):
        # |k a| < 1e-3 exercises the power-sum series
        a, k = 1e-9, 1000
        brute = math.fsum(j * math.exp(j * a) for j in range(1, k + 1))
        assert weighted_exp_sum(a, k) == pytest.approx(brute, rel=1e-12)

    def test_eq1_asymptotic(self):
        # (gamma^2/k) sum j e^{j gamma/sqrt k} -> Gamma(2) = 1
        g, k = -0.05, 10 ** 6
        val = g * g / k * weighted_exp_sum(g / math.sqrt(k), k)
        assert 0.99 < val < 1.01

    @given(a=st.floats(-1.0, 1.0), k=st.integers(2, 500))
    @settings(max_examples=200, deadline=None)
    def test_exp_sums_property(self, a, k):
        brute_g = math.fsum(math.exp(j * a) for j in range(1, k))
        brute_w = math.fsum(j * math.exp(j * a) for j in range(1, k + 1))
        assert geometric_exp_sum(a, k) == pytest.approx(brute_g, rel=1e-10)
        assert weighted_exp_sum(a, k) == pytest.approx(brute_w, rel=1e-10)


class TestRegimeGuards:
    def test_wrong_regime_everywhere(self):
        with pytest.raises(WrongRegime):
            ns_volatility_stat(1.0, INT, 100, 2.0)
        with pytest.raises(WrongRegime):
            int_volatility_stat(1.0, NS, 5000, 100, 2.0)
        with pytest.raises(WrongRegime):
            ne_volatility_stat(1.0, NS, 5000, 100, 2.0)
        with pytest.raises(WrongRegime):
            ns_return_stat(1.0, NE, 100)
        with pytest.raises(WrongRegime):
            int_return_stat(1.0, NE, 100)
        with pytest.raises(WrongRegime):
            ne_return_stat(1.0, INT, 100)


class TestCentering:
    """Every statistic is exactly 0 at its own centering value."""

    def test_ns_centering(self):
        k = 1000
        sigma = NS.omega * geometric_exp_sum(NS.gamma_n, k)
        assert float(ns_volatility_stat(sigma, NS, k, 2.0)) == 0.0

    def test_int_centering(self):
        k = 1000
        assert float(int_volatility_stat(INT.omega * k, INT, 5000, k,
                                         2.0)) == 0.0

    def test_ne_centering(self):
        k = 1000
        sigma = NE.omega * geometric_exp_sum(NE.gamma_n, k)
        assert float(ne_volatility_stat(sigma, NE, 5000, k, 2.0)) == 0.0

    def test_zero_returns(self):
        assert float(ns_return_stat(0.0, NS, 100)) == 0.0
        assert float(int_return_stat(0.0, INT, 100)) == 0.0
        assert float(ne_return_stat(0.0, NE, 100)) == 0.0


class TestClassicalOracles:
    """Independent direct re-implementations on fixed seeded paths."""

    def test_ns_vol_oracle(self):
        path = simulate_path(NS, NORMAL, RngStream(21, 0))
        k = 2000
        val = float(ns_volatility_stat(path.sigma_sq[k], NS, k, 2.0))
        g, a, w = NS.gamma_n, NS.alpha_n, NS.omega
        center = math.fsum(math.exp(j * g) for j in range(1, k))
        oracle = (math.sqrt(2.0 * abs(g) ** 3) / (a * math.sqrt(2.0))
                  * (path.sigma_sq[k] / w - center))
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_ns_ret_oracle(self):
        path = simulate_path(NS, NORMAL, RngStream(22, 0))
        k = 2000
        val = float(ns_return_stat(path.u[k], NS, k))
        assert val == pytest.approx(
            math.sqrt(abs(NS.gamma_n) / NS.omega) * path.u[k], rel=1e-12)

    def test_int_vol_oracle(self):
        path = simulate_path(INT, NORMAL, RngStream(23, 0))
        n, k = 5000, 2000
        val = float(int_volatility_stat(path.sigma_sq[k], INT, n, k, 2.0))
        oracle = (path.sigma_sq[k] / INT.omega - k) \
            / (n ** 1.5 * INT.alpha_n * math.sqrt(2.0))
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_int_ret_unit_example(self):
        # sigma_k^2 = omega k and eps_k = -1 gives exactly -1
        k = 400
        u = -math.sqrt(INT.omega * k)
        assert float(int_return_stat(u, INT, k)) == pytest.approx(-1.0,
                                                                  rel=1e-14)

    def test_ne_vol_oracle(self):
        ne = regime_params(1.0, kappa=0.6)
        path = simulate_path(ne, NORMAL, RngStream(24, 0))
        n, k = 5000, 2000
        val = float(ne_volatility_stat(path.sigma_sq[k], ne, n, k, 2.0,
                                       log_sigma_k_sq=path.log_sigma_sq[k]))
        g, a, w = ne.gamma_n, ne.alpha_n, ne.omega
        center = math.fsum(math.exp(j * g) for j in range(1, k))
        oracle = (g * math.exp(-k * g) / (a * math.sqrt(n) * math.sqrt(2.0))
                  * (path.sigma_sq[k] / w - center))
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_ne_ret_unit_example(self):
        # sigma_k^2 = omega e^{k gamma}/gamma and eps_k = 1 gives exactly 1
        k = 1000
        g, w = NE.gamma_n, NE.omega
        u = math.sqrt(w * math.exp(k * g) / g)
        assert float(ne_return_stat(u, NE, k)) == pytest.approx(1.0,
                                                                rel=1e-12)

    def test_ne_deterministic_proof_display(self):
        # (gamma/sqrt k) e^{-sqrt k gamma}(sum e^{j gamma/sqrt k} - sqrt k
        # e^{sqrt k gamma}/gamma) -> 0 as k grows
        vals = []
        for k in (10 ** 3, 10 ** 4, 10 ** 5):
            g = NE.gamma_n
            rk = math.sqrt(k)
            gap = geometric_exp_sum(g / rk, k) - rk * math.exp(rk * g) / g
            vals.append(abs(g / rk * math.exp(-rk * g) * gap))
        assert vals[0] > vals[1] > vals[2]

    def test_cancellation_guard(self):
        k = 1000
        center = NE.omega * geometric_exp_sum(NE.gamma_n, k)
        with pytest.raises(CancellationError):
            ne_volatility_stat(center * (1.0 + 1e-13), NE, 5000, k, 2.0)


class TestLiteralMode:
    def test_ns_literal_degenerate(self):
        path = simulate_path(NS, NORMAL, RngStream(25, 0))
        k = 2000
        sv = ns_volatility_stat(path.sigma_sq[k], NS, k, 2.0, LITERAL,
                                path.log_sigma_sq[k])
        assert sv.degenerate
        assert math.isfinite(sv.log_magnitude)

    def test_ns_literal_return_bookkeeping(self):
        sv = ns_return_stat(1.5, NS, 2000, LITERAL)
        assert sv.degenerate
        assert sv.value == 0.0  # linear scale underflows
        assert math.isfinite(sv.log_magnitude)
        assert sv.sign == 1.0

    def test_int_literal_finite(self):
        path = simulate_path(INT, NORMAL, RngStream(26, 0))
        k = 2000
        sv = int_volatility_stat(path.sigma_sq[k], INT, 5000, k, 2.0,
                                 LITERAL, path.log_sigma_sq[k])
        assert sv.degenerate
        assert math.isfinite(sv.value)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ns_volatility_stat(1.0, NS, 100, 2.0, "paper")


class TestTauAndLemma:
    def test_tau_requires_ns(self):
        path = simulate_path(NE, NORMAL, RngStream(27, 0))
        with pytest.raises(WrongRegime):
            tau_stats(path, NE, 100)

    def test_tau_xi_zero(self):
        from mdgarch.simulate import path_from_eps
        params = GarchParams(n=200, alpha_n=0.05, beta_n=0.9,
                             gamma_n=-0.05, omega=1.0, sigma0_sq=1.0)
        path = path_from_eps(params, np.ones(201), RngStream(0, 0))
        assert tau_stats(path, params, 100) == (0.0, 0.0)

    def test_tau_bruteforce_oracle(self):
        path = simulate_path(NS, NORMAL, RngStream(28, 0))
        k = 300
        tau, tau_star = tau_stats(path, NS, k)
        g = NS.gamma_n
        bt = math.fsum(math.exp(j * g) * path.xi[k - j]
                       for j in range(1, k))
        bts = math.fsum(math.exp(j * g)
                        * math.fsum(path.xi[k - i] for i in range(1, j + 1))
                        for j in range(1, k))
        assert tau == pytest.approx(bt, rel=1e-10)
        assert tau_star == pytest.approx(bts, rel=1e-10)

    def test_tau_literal_scalings(self):
        path = simulate_path(NS, NORMAL, RngStream(29, 0))
        k = 300
        tau_l, tau_star_l = tau_stats(path, NS, k, LITERAL)
        g, rk = NS.gamma_n, math.sqrt(300)
        bt = math.fsum(math.exp(j * g / rk) * path.xi[k - j]
                       for j in range(1, k)) / k ** 0.25
        assert tau_l == pytest.approx(bt, rel=1e-10)
        assert math.isfinite(tau_star_l)

    def test_lemma_requires_ne(self):
        path = simulate_path(NS, NORMAL, RngStream(30, 0))
        with pytest.raises(WrongRegime):
            lemma_discrepancy(path, NS, 100)

    def test_lemma_bruteforce_oracle(self):
        path = simulate_path(NE, NORMAL, RngStream(31, 0))
        k = 300
        val = lemma_discrepancy(path, NE, k)
        g = NE.gamma_n
        inner = math.fsum(
            g * math.exp(g * (j - k))
            * math.fsum(path.xi[k - i] for i in range(1, j + 1))
            for j in range(1, k))
        simple = math.fsum(path.xi[k - i] for i in range(1, k))
        oracle = (inner - simple) ** 2 / NE.n
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_lemma_xi_zero(self):
        from mdgarch.simulate import path_from_eps
        params = GarchParams(n=200, alpha_n=0.05, beta_n=1.0,
                             gamma_n=0.05, omega=1.0, sigma0_sq=1.0)
        path = path_from_eps(params, np.ones(201), RngStream(0, 0))
        assert lemma_discrepancy(path, params, 100) == 0.0


class TestSeedInvariance:
    def test_replay_bit_identical_stats(self):
        path = simulate_path(NS, NORMAL, RngStream(33, 5))
        replay = simulate_path(NS, NORMAL,
                               RngStream(path.master_seed, path.stream_index))
        k = 1500
        assert float(ns_volatility_stat(path.sigma_sq[k], NS, k, 2.0)) == \
            float(ns_volatility_stat(replay.sigma_sq[k], NS, k, 2.0))

    def test_path_diagnostics_independent_of_blas_threads(self):
        # lemma, tau and the decomposition at k = 8e4 of one n = 1e5 path,
        # as float bytes, under one and under two BLAS threads
        script = (
            "import numpy as np\n"
            "from mdgarch.innovations import RngStream\n"
            "from mdgarch.localization import LocalizationScheme, "
            "realize_params\n"
            "from mdgarch.simulate import decompose_volatility, "
            "path_from_eps\n"
            "from mdgarch.stats import lemma_discrepancy, tau_stats\n"
            "n, k = 100000, 80000\n"
            "ns, ne = (realize_params(LocalizationScheme(omega=1.0, "
            "sigma0_sq=1.0, c_alpha=1.0, p=0.5, c_gamma=c, kappa=0.6), n)\n"
            "          for c in (-1.0, 1.0))\n"
            "eps = RngStream(34, 0).generator().standard_normal(n + 1)\n"
            "path = path_from_eps(ns, eps, RngStream(34, 0))\n"
            "vals = []\n"
            "for mode in ('classical', 'literal'):\n"
            "    vals.append(lemma_discrepancy(path, ne, k, mode))\n"
            "    vals.extend(tau_stats(path, ns, k, mode))\n"
            "    for params in (ns, ne):\n"
            "        dec = decompose_volatility(path, params, k, mode)\n"
            "        vals.extend(np.ravel(dec.components))\n"
            "print(np.array(vals, dtype=float).tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(mdgarch.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0] == outputs[1]


# gamma_n = n^{-0.2}: the NE centre passes e^700 from k ~ 3850 on
NE_WIDE = regime_params(1.0, kappa=0.2)

# params, array forms, scalar forms with one (s, ls, params, n, k, xi_var,
# mode) signature for the volatility statistic
ARRAY_FORMS = {
    "NS": (NS, ns_volatility_stats, ns_return_stats,
           lambda s, ls, p, n, k, xv, mode:
           ns_volatility_stat(s, p, k, xv, mode, ls), ns_return_stat),
    "INT": (INT, int_volatility_stats, int_return_stats,
            lambda s, ls, p, n, k, xv, mode:
            int_volatility_stat(s, p, n, k, xv, mode, ls), int_return_stat),
    "NE": (NE_WIDE, ne_volatility_stats, ne_return_stats,
           lambda s, ls, p, n, k, xv, mode:
           ne_volatility_stat(s, p, n, k, xv, mode, ls), ne_return_stat),
}


def _fields(sv):
    return (np.float64(sv.value).view(np.uint64),
            np.float64(sv.log_magnitude).view(np.uint64),
            np.float64(sv.sign).view(np.uint64), sv.degenerate)


def _assert_batch_matches(batch_fn, element_fns):
    """The batch equals its elements bit for bit, or raises when any
    element raises (with one of the elements' exception types)."""
    singles = []
    for fn in element_fns:
        try:
            singles.append(fn())
        except (ArithmeticError, ValueError) as exc:
            singles.append(type(exc))
    errors = tuple({one for one in singles if isinstance(one, type)})
    if errors:
        with pytest.raises(errors):
            batch_fn()
        return
    batch = batch_fn()
    for i, one in enumerate(singles):
        assert _fields(batch[i]) == _fields(one), i


class TestArrayForms:
    @pytest.mark.parametrize("mode", [CLASSICAL, LITERAL])
    @pytest.mark.parametrize("regime", sorted(ARRAY_FORMS))
    @given(k=st.integers(50, 5000),
           draws=st.lists(st.tuples(st.floats(-5.0, 760.0),
                                    st.floats(-6.0, 6.0)
                                    | st.sampled_from([0.0, -0.0])),
                          max_size=10),
           log_track=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_array_equals_scalar_elementwise(self, regime, mode, k, draws,
                                             log_track):
        params, vol_stats, ret_stats, vol_one, ret_one = ARRAY_FORMS[regime]
        n, xv = params.n, 2.0
        # always present: L >= 700 (NE log-space branch), zero returns of
        # both signs, and (k >= 50, literal) a degenerate small sigma^2
        ls = np.array([705.0, 2.0, 2.0] + [d[0] for d in draws])
        eps = np.array([1.3, 0.0, -0.0] + [d[1] for d in draws])
        s = np.array([math.exp(x) if x < 709.0 else math.inf for x in ls])
        u, log_abs_u = checkpoint_returns(s, ls, eps)
        if not log_track:
            ls = log_abs_u = None

        def at(x, i):
            return None if x is None else float(x[i])

        idx = range(len(s))
        _assert_batch_matches(
            lambda: vol_stats(s, ls, params, n, k, xv, mode),
            [lambda i=i: vol_one(float(s[i]), at(ls, i), params, n, k, xv,
                                 mode) for i in idx])
        _assert_batch_matches(
            lambda: ret_stats(u, log_abs_u, params, k, mode),
            [lambda i=i: ret_one(float(u[i]), params, k, mode,
                                 at(log_abs_u, i)) for i in idx])

    def test_cancelling_element_fails_the_batch(self):
        k = 1000
        center = NE.omega * geometric_exp_sum(NE.gamma_n, k)
        sigma = np.array([2.0 * center, center * (1.0 + 1e-13), 0.5 * center])
        with pytest.raises(CancellationError):
            ne_volatility_stats(sigma, None, NE, 5000, k, 2.0)
        # the same in log space, where the centre exceeds e^700
        k = 4500
        log_center = log_geometric_exp_sum(NE_WIDE.gamma_n, k)
        assert log_center > 700.0
        log_sigma = np.array([log_center + 1.0, log_center, log_center - 1.0])
        with pytest.raises(CancellationError):
            ne_volatility_stats(np.full(3, math.inf), log_sigma, NE_WIDE,
                                5000, k, 2.0)
