"""The batched path diagnostics against per-path references.

The references below are the per-path lemma discrepancy, tau pair and
volatility decomposition that the row-block functions (``lemma_rows``,
``tau_rows``, ``decompose_rows``) replaced, kept verbatim.  Each block
function must equal them bit for bit on every row, whatever the number
of rows in the block.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Tuple

import numpy as np
import pytest

from mdgarch.harness import (DIAG_BLOCK, McConfig, _sorted_mean,
                             _sorted_median, diag_checkpoint, run_experiment)
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.localization import (GarchParams, LocalizationScheme, Regime,
                                  realize_params)
from mdgarch.simulate import (CLASSICAL, LITERAL, MODES, DecompositionReport,
                              GarchPath, decompose_rows, decompose_volatility,
                              simulate_path)
from mdgarch.stats import (CheckpointGrid, _require, lemma_discrepancy,
                           lemma_rows, tau_rows, tau_stats)




# ---------------------------------------------------------------------------
# per-path references

def ref_tau_pair(path: GarchPath, params: GarchParams, k: int,
                 mode: str) -> Tuple[float, float]:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    g = params.gamma_n
    xi_rev = path.xi[k - 1::-1]
    s = np.cumsum(xi_rev)
    j = np.arange(1, k, dtype=float)
    # weighted sums by numpy's fixed-order pairwise sum, not np.dot, whose
    # BLAS sum order (and last bits) follows the thread count
    if mode == CLASSICAL:
        wgt = np.exp(g * j)
        return (float(np.add.reduce(wgt * xi_rev[:k - 1])),
                float(np.add.reduce(wgt * s[:k - 1])))
    rk = math.sqrt(k)
    wgt = np.exp(g / rk * j)
    return (float(np.add.reduce(wgt * xi_rev[:k - 1])) / k ** 0.25,
            float(np.add.reduce(wgt * s[:k - 1])) / rk)


def ref_lemma_discrepancy(path: GarchPath, params: GarchParams, k: int,
                          mode: str = CLASSICAL) -> float:
    """Single-replicate squared gap between the exponentially weighted
    double xi sum and its explosive-regime surrogate (a scaled simple
    xi sum); the Monte Carlo mean of this estimates the L2 discrepancy.
    """
    _require(params, Regime.NEAR_EXPLOSIVE)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    g = params.gamma_n
    xi_rev = path.xi[k - 1::-1]
    s = np.cumsum(xi_rev)
    j = np.arange(1, k, dtype=float)
    # fixed-order sums, as in _tau_pair
    if mode == CLASSICAL:
        wgt = g * np.exp(g * (j - k))          # gamma e^{-k gamma} e^{j gamma}
        gap = float(np.add.reduce(wgt * s[:k - 1])) - float(s[k - 2])
        return gap * gap / params.n
    rk = math.sqrt(k)
    wgt = (g / rk) * np.exp(g / rk * (j - k))
    gap = float(np.add.reduce(wgt * s[:k - 1])) - float(s[k - 2])
    return gap * gap / k


def _expm1_minus_x(x: np.ndarray) -> np.ndarray:
    """exp(x) - 1 - x with full relative accuracy near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    series = x * x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    with np.errstate(over="ignore"):
        direct = np.expm1(x) - x
    return np.where(small, series, direct)


def _log1p_minus_x_cumsum(x: np.ndarray) -> np.ndarray:
    """Cumulative sums of log(1+x) - x (the product-form log remainder)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log1p(x) - x
    return np.cumsum(vals)


def ref_decompose_volatility(path: GarchPath, params: GarchParams, k: int,
                             mode: str = CLASSICAL) -> DecompositionReport:
    """Four-component split of sigma_k^2 with exact remainders.

    Classical mode drops every sqrt(k) scaling: the j-th product factor
    is expanded around exp(j*gamma), remainders are
    R3_j = sum_i [log(1 + gamma + alpha xi) - (gamma + alpha xi)],
    R2_j = exp(alpha S_j) - 1 - alpha S_j  (S_j a reversed prefix sum),
    R1 = exp(-k gamma) prod - 1 - alpha S_k, and the component identity
    omega + sum sigma2_{k,s} = sigma_k^2 holds to rounding.

    Literal mode keeps the per-factor sqrt(k) normalization of the
    scaled representation: factors 1 + (gamma + alpha xi)/sqrt(k),
    exponents j gamma / sqrt(k), and a k^{k/2} prefactor tracked purely
    as log bookkeeping (its linear value is not representable).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not 3 <= k <= path.n:
        raise ValueError("need 3 <= k <= n for log log diagnostics")
    alpha, gamma, omega = params.alpha_n, params.gamma_n, params.omega
    xi_rev = path.xi[k - 1::-1]          # xi_{k-1}, ..., xi_0
    s = np.cumsum(xi_rev)                # S_j = sum_{i<=j} xi_{k-i}
    j = np.arange(1, k + 1, dtype=float)

    root = math.sqrt(k) if mode == LITERAL else 1.0
    x = (gamma + alpha * xi_rev) / root
    a_s = (alpha / root) * s
    g_eff = gamma / root

    r3 = _log1p_minus_x_cumsum(x)
    r2 = _expm1_minus_x(a_s)
    log_prod = np.cumsum(np.log1p(x))
    # R1 from its exact identity: e^{-k g} prod - 1 - a S_k
    r1 = float(np.expm1(log_prod[-1] - k * g_eff) - a_s[-1])

    r2_max = float(np.max(np.abs(r2)))
    lil = np.maximum(np.log(np.log(j[2:])), 0.1) * j[2:]
    r2_lil_max = float(np.max(np.abs(r2[2:]) / lil))
    r3_rel_max = float(np.max(np.abs(r3) / j))

    ejg = np.exp(g_eff * j[:k - 1])      # e^{j g_eff}, j = 1..k-1
    base = 1.0 + a_s[:k - 1]
    # numpy's pairwise sum has a fixed order; np.dot's BLAS sum is split
    # by thread count, so its last bits depend on the host
    inner4 = float(np.add.reduce(ejg * base))
    inner3 = float(np.add.reduce(ejg * r2[:k - 1]))
    inner2 = float(np.add.reduce(
        ejg * ((base + r2[:k - 1]) * np.expm1(r3[:k - 1]))))

    if mode == CLASSICAL:
        c1 = params.sigma0_sq * math.exp(log_prod[-1])
        comps = (c1, omega * inner2, omega * inner3, omega * inner4)
        return DecompositionReport(k=k, mode=mode, components=comps, r1=r1,
                                   r2_max=r2_max, r2_lil_max=r2_lil_max,
                                   r3_rel_max=r3_rel_max)

    pre = 0.5 * k * math.log(k)

    def logmag(sign_value: float, log_extra: float) -> tuple:
        if sign_value == 0.0:
            return (-math.inf, 0.0)
        return (log_extra + math.log(abs(sign_value)),
                math.copysign(1.0, sign_value))

    comps = (
        (math.log(params.sigma0_sq) + pre + log_prod[-1], 1.0),
        logmag(inner2, math.log(omega) + pre),
        logmag(inner3, math.log(omega) + pre),
        logmag(inner4, math.log(omega) + pre),
    )
    return DecompositionReport(k=k, mode=mode, components=comps, r1=r1,
                               r2_max=r2_max, r2_lil_max=r2_lil_max,
                               r3_rel_max=r3_rel_max, prefactor_log=pre)


# ---------------------------------------------------------------------------
# block functions against the references

NORMAL = InnovationSpec(kind="standard-normal")
N = 50000
SCHEMES = {
    "NS": dict(c_gamma=-1.0, p=0.5, kappa=0.4),
    "INT": dict(c_gamma=0.0, p=0.6, kappa=0.4),
    "NE": dict(c_gamma=1.0, p=0.5, kappa=0.6),
}


def scheme(name: str) -> LocalizationScheme:
    return LocalizationScheme(omega=1.0, sigma0_sq=1.0, c_alpha=1.0,
                              **SCHEMES[name])


PARAMS = {name: realize_params(scheme(name), N) for name in SCHEMES}
# the harness puts DIAG_BLOCK // k rows in a block: 40 at k = 800, and a
# single row at k = 40000
KS = (800, 40000)
ROWS = (1, 2, 5)


@pytest.fixture(scope="module")
def xi_block():
    eps = np.random.default_rng(20260823).standard_normal((max(ROWS), N + 1))
    return eps ** 2 - 1.0


def _row_paths(xi: np.ndarray):
    """The per-path view the references read: n and xi."""
    return [SimpleNamespace(n=N, xi=row) for row in xi]


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _dec_bits(dec: DecompositionReport) -> tuple:
    return (dec.k, dec.mode, _bits(np.ravel(dec.components)),
            _bits([dec.r1, dec.r2_max, dec.r2_lil_max, dec.r3_rel_max,
                   dec.prefactor_log]))


def test_ks_cover_several_rows_and_one_row_per_block():
    assert [max(1, DIAG_BLOCK // k) for k in KS] == [40, 1]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("rows", ROWS)
class TestBlocksEqualReference:
    def test_tau(self, xi_block, rows, k, mode):
        xi = xi_block[:rows]
        tau, tau_star = tau_rows(xi, PARAMS["NS"], k, mode)
        want = [ref_tau_pair(p, PARAMS["NS"], k, mode) for p in _row_paths(xi)]
        assert _bits(tau) == _bits([t for t, _ in want])
        assert _bits(tau_star) == _bits([t for _, t in want])

    def test_lemma(self, xi_block, rows, k, mode):
        xi = xi_block[:rows]
        want = [ref_lemma_discrepancy(p, PARAMS["NE"], k, mode)
                for p in _row_paths(xi)]
        assert _bits(lemma_rows(xi, PARAMS["NE"], k, mode)) == _bits(want)

    @pytest.mark.parametrize("regime", sorted(SCHEMES))
    def test_decomposition(self, xi_block, rows, k, mode, regime):
        xi, params = xi_block[:rows], PARAMS[regime]
        got = decompose_rows(xi, params, k, mode)
        want = [ref_decompose_volatility(p, params, k, mode)
                for p in _row_paths(xi)]
        assert [_dec_bits(d) for d in got] == [_dec_bits(d) for d in want]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", KS)
def test_public_functions_equal_reference(xi_block, k, mode):
    for path in _row_paths(xi_block):
        assert _bits(tau_stats(path, PARAMS["NS"], k, mode)) == \
            _bits(ref_tau_pair(path, PARAMS["NS"], k, mode))
        assert _bits([lemma_discrepancy(path, PARAMS["NE"], k, mode)]) == \
            _bits([ref_lemma_discrepancy(path, PARAMS["NE"], k, mode)])
        for params in PARAMS.values():
            assert _dec_bits(decompose_volatility(path, params, k, mode)) \
                == _dec_bits(ref_decompose_volatility(path, params, k, mode))


# ---------------------------------------------------------------------------
# the harness against the public per-path functions

HARNESS_N = 1000
# 45 replications: one block of 40 rows and one of 5
HARNESS_REPS = 45


def _harness_config(regime: str, tests, mode: str) -> McConfig:
    return McConfig(scheme=scheme(regime), innovation=NORMAL, n=HARNESS_N,
                    grid=CheckpointGrid((0.2, 0.4, 0.6, 0.8)),
                    reps=HARNESS_REPS, master_seed=11, mode=mode,
                    tests=tests)


def _per_path(config: McConfig):
    params = realize_params(config.scheme, config.n)
    paths = [simulate_path(params, config.innovation,
                           RngStream(config.master_seed, i))
             for i in range(config.reps)]
    return params, paths


def _remainder_medians(decs) -> Tuple[float, ...]:
    rem = np.array([(abs(d.r1), d.r2_max, d.r2_lil_max, d.r3_rel_max)
                    for d in decs])
    return tuple(_sorted_median(rem[:, c]) for c in range(4))


def test_harness_blocks_do_not_divide_the_replications():
    rows = DIAG_BLOCK // diag_checkpoint(HARNESS_N)
    assert rows > 1 and HARNESS_REPS % rows != 0


@pytest.mark.parametrize("mode", MODES)
def test_ne_run_equals_per_path_reductions(mode):
    config = _harness_config("NE", ("lemma", "remainders"), mode)
    report = run_experiment(config)
    params, paths = _per_path(config)
    k = diag_checkpoint(HARNESS_N)
    lemma = [lemma_discrepancy(p, params, k, mode) for p in paths]
    decs = [decompose_volatility(p, params, k, mode) for p in paths]
    assert report.results["lemma"]["mean"] == _sorted_mean(np.array(lemma))
    _check_remainders(report, decs)


@pytest.mark.parametrize("mode", MODES)
def test_ns_run_equals_per_path_reductions(mode):
    config = _harness_config("NS", ("tau_coupling", "remainders"), mode)
    report = run_experiment(config)
    params, paths = _per_path(config)
    k, g = diag_checkpoint(HARNESS_N), params.gamma_n
    coupling = []
    for p in paths:
        tau, tau_star = tau_stats(p, params, k, mode)
        coupling.append((math.sqrt(2.0 * abs(g) ** 3) * tau_star
                         - math.sqrt(2.0 * abs(g)) * tau) ** 2)
    assert report.results["tau_coupling"]["estimate"] == \
        _sorted_mean(np.array(coupling))
    _check_remainders(report, [decompose_volatility(p, params, k, mode)
                               for p in paths])


def _check_remainders(report, decs) -> None:
    entry = report.results["remainders"]
    assert (entry["r1_abs_median"], entry["r2_max_median"],
            entry["r2_lil_median"], entry["r3_rel_median"]) == \
        _remainder_medians(decs)
    assert [_dec_bits(d) for d in report.decompositions] == \
        [_dec_bits(d) for d in decs]
