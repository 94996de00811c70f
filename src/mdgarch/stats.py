"""Normalized checkpoint statistics and stable exponential sums.

Two normalization modes run through every statistic:

* ``classical`` is the convergence-bearing variant: exponents j*gamma_n,
  no k-power prefactors, each statistic's leading term equal to the
  driving martingale of the corresponding limit law.
* ``literal`` reproduces the per-sqrt(k) scaled displays in log space.
  Those carry a k^{k/2} bookkeeping factor that makes their linear
  values degenerate; they are emitted for diagnostics only and no
  convergence is asserted for them.

Each regime statistic has one implementation, array-in/array-out over
the replications at one checkpoint (``*_stats``, returning a
``StatArray``); the scalar ``*_stat`` functions wrap it on a length-1
array.  Element-wise exp/log go through the C library (``math``), so a
statistic is bit-identical whether it is evaluated alone or in a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .localization import GarchParams, Regime, classify_regime
from .simulate import CLASSICAL, LITERAL, MODES, GarchPath


class WrongRegime(ValueError):
    pass


class CancellationError(ArithmeticError):
    """Raised when a centered difference loses more than 10 digits."""


@dataclass(frozen=True)
class CheckpointGrid:
    """Fractions 0 < t_1 < ... < t_N < 1 evaluated at k(m) = floor(n t_m)."""

    t_values: Tuple[float, ...]

    def __post_init__(self):
        ts = self.t_values
        if not ts:
            raise ValueError("empty checkpoint grid")
        if any(not 0.0 < t < 1.0 for t in ts):
            raise ValueError("checkpoint fractions must lie in (0, 1)")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("checkpoint fractions must be strictly increasing")

    def checkpoints(self, n: int) -> Tuple[int, ...]:
        ks = tuple(int(math.floor(n * t)) for t in self.t_values)
        if ks[0] < 3:
            raise ValueError(f"k(1) = {ks[0]} < 3: grid too early for n = {n}")
        return ks


@dataclass(frozen=True)
class StatValue:
    """A statistic value with log-scale bookkeeping for literal mode."""

    value: float
    log_magnitude: float
    sign: float
    degenerate: bool = False

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class StatArray:
    """StatValue fields as arrays, one entry per replication."""

    value: np.ndarray
    log_magnitude: np.ndarray
    sign: np.ndarray
    degenerate: np.ndarray

    def __getitem__(self, i: int) -> StatValue:
        return StatValue(float(self.value[i]), float(self.log_magnitude[i]),
                         float(self.sign[i]), bool(self.degenerate[i]))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.exp, math.log, ...) applied element-wise.

    numpy's vectorized exp/log are not bit-identical to the C library on
    every host; report bytes are pinned to the latter.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _log_abs(x: np.ndarray) -> np.ndarray:
    """log|x|, -inf at zeros."""
    out = np.full(x.shape, -math.inf)
    nz = x != 0.0
    out[nz] = _libm(math.log, np.abs(x[nz]))
    return out


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(x != 0.0, np.copysign(1.0, x), 0.0)


def _plain(values: np.ndarray) -> StatArray:
    """Linear values with log bookkeeping; zeros of either sign become +0."""
    return StatArray(np.where(values != 0.0, values, 0.0), _log_abs(values),
                     _sign(values), np.zeros(values.shape, dtype=bool))


def _one(x: Optional[float]) -> Optional[np.ndarray]:
    return None if x is None else np.array([x], dtype=float)


def geometric_exp_sum(a: float, k: int) -> float:
    """sum_{j=1}^{k-1} e^{j a}, exact at a = 0, expm1-stable near it."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if a == 0.0:
        return float(k - 1)
    if k * a > 709.0:
        return math.inf
    return math.exp(a) * math.expm1((k - 1) * a) / math.expm1(a)


def log_geometric_exp_sum(a: float, k: int) -> float:
    """log of geometric_exp_sum, safe when (k-1)*a overflows exp."""
    if a <= 0.0 or (k - 1) * a < 700.0:
        return math.log(geometric_exp_sum(a, k))
    return a + (k - 1) * a + math.log1p(-math.exp(-(k - 1) * a)) \
        - math.log(math.expm1(a))


def weighted_exp_sum(a: float, k: int) -> float:
    """sum_{j=1}^{k} j e^{j a}, stable closed form.

    Near a = 0 the closed form cancels catastrophically, so a Taylor
    branch in the power sums of j is used for |k a| < 1e-3.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if a == 0.0:
        return k * (k + 1) / 2.0
    if abs(k * a) < 1e-3:
        kk = float(k)
        s1 = kk * (kk + 1) / 2.0
        s2 = kk * (kk + 1) * (2 * kk + 1) / 6.0
        s3 = s1 * s1
        s4 = kk * (kk + 1) * (2 * kk + 1) * (3 * kk * kk + 3 * kk - 1) / 30.0
        s5 = kk * kk * (kk + 1) ** 2 * (2 * kk * kk + 2 * kk - 1) / 12.0
        return s1 + a * s2 + a * a / 2.0 * s3 + a ** 3 / 6.0 * s4 \
            + a ** 4 / 24.0 * s5
    if (k + 1) * a > 700.0:
        return math.inf
    u = math.expm1(a)
    num = -math.expm1(k * a) + k * math.exp(k * a) * u
    return math.exp(a) * num / (u * u)


def _require(params: GarchParams, regime: Regime) -> None:
    actual = classify_regime(params)
    if actual is not regime:
        raise WrongRegime(f"statistic requires {regime.value}, got {actual.value}")


def _log_centered_diff(log_ratio: np.ndarray, log_center: float
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """e^{log_ratio} - e^{log_center} as (log magnitude, sign).

    Evaluated as -e^{L} expm1(C - L) around the larger exponent, which
    keeps full relative accuracy when both terms are huge.  Raises when
    the relative difference drops below 1e-10 (all digits lost).
    """
    hi = np.maximum(log_ratio, log_center)
    rel = -_libm(math.expm1, np.minimum(log_ratio, log_center) - hi)
    lost = rel < 1e-10
    if lost.any():
        raise CancellationError(
            f"centered difference lost all significant digits "
            f"(relative gap {rel[lost][0]:.3e})")
    return (hi + _libm(math.log, rel),
            np.where(log_ratio > log_center, 1.0, -1.0))


# ---------------------------------------------------------------------------
# near-stationary regime (gamma < 0); n is unused, the normalization
# depends on gamma_n only

def ns_volatility_stats(sigma_k_sq: np.ndarray,
                        log_sigma_k_sq: Optional[np.ndarray],
                        params: GarchParams, n: int, k: int, xi_var: float,
                        mode: str = CLASSICAL) -> StatArray:
    _require(params, Regime.NEAR_STATIONARY)
    if xi_var <= 0.0:
        raise ValueError("xi_var must be > 0")
    a, g, w = params.alpha_n, params.gamma_n, params.omega
    if mode == CLASSICAL:
        pref = math.sqrt(2.0 * abs(g) ** 3) / (a * math.sqrt(xi_var))
        return _plain(pref * (sigma_k_sq / w - geometric_exp_sum(g, k)))
    if mode != LITERAL:
        raise ValueError(f"unknown mode {mode!r}")
    pref = math.sqrt(2.0 * abs(g) ** 3) / (a * k ** 0.25 * math.sqrt(xi_var))
    return _literal_centered(sigma_k_sq, log_sigma_k_sq, params, k,
                             math.log(pref), g / math.sqrt(k))


def ns_return_stats(u_k: np.ndarray, log_abs_u: Optional[np.ndarray],
                    params: GarchParams, k: int,
                    mode: str = CLASSICAL) -> StatArray:
    _require(params, Regime.NEAR_STATIONARY)
    g, w = params.gamma_n, params.omega
    if mode == CLASSICAL:
        return _plain(math.sqrt(abs(g) / w) * u_k)
    log_pref = 0.5 * (math.log(abs(g)) - math.log(w)
                      - (k + 1) / 2.0 * math.log(k))
    return _log_scaled_return(u_k, log_abs_u, log_pref, literal=True)


def ns_volatility_stat(sigma_k_sq: float, params: GarchParams, k: int,
                       xi_var: float, mode: str = CLASSICAL,
                       log_sigma_k_sq: Optional[float] = None) -> StatValue:
    return ns_volatility_stats(_one(sigma_k_sq), _one(log_sigma_k_sq), params,
                               params.n, k, xi_var, mode)[0]


def ns_return_stat(u_k: float, params: GarchParams, k: int,
                   mode: str = CLASSICAL,
                   log_abs_u: Optional[float] = None) -> StatValue:
    return ns_return_stats(_one(u_k), _one(log_abs_u), params, k, mode)[0]


# ---------------------------------------------------------------------------
# integrated regime (gamma = 0)

def int_volatility_stats(sigma_k_sq: np.ndarray,
                         log_sigma_k_sq: Optional[np.ndarray],
                         params: GarchParams, n: int, k: int, xi_var: float,
                         mode: str = CLASSICAL) -> StatArray:
    _require(params, Regime.INTEGRATED)
    a, w = params.alpha_n, params.omega
    if mode == CLASSICAL:
        # leading term (alpha * double xi sum) divided by alpha: the
        # n^{-3/2} double-sum martingale that converges to int x dW
        pref = 1.0 / (n ** 1.5 * a * math.sqrt(xi_var))
        return _plain(pref * (sigma_k_sq / w - k))
    if mode != LITERAL:
        raise ValueError(f"unknown mode {mode!r}")
    pref = math.sqrt(k) / (n ** 1.5 * a * math.sqrt(xi_var))
    L = (_log_ratio(sigma_k_sq, log_sigma_k_sq) - math.log(w)
         - 0.5 * k * math.log(k))
    val = pref * (_exp_below_700(L) - k)
    return StatArray(val, _log_abs(val), _sign(val),
                     L < math.log(k) - 36.0)


def int_return_stats(u_k: np.ndarray, log_abs_u: Optional[np.ndarray],
                     params: GarchParams, k: int,
                     mode: str = CLASSICAL) -> StatArray:
    _require(params, Regime.INTEGRATED)
    w = params.omega
    if mode == CLASSICAL:
        return _plain(u_k / math.sqrt(w * k))
    log_pref = -0.5 * (math.log(w) + (0.5 * k + 1.0) * math.log(k))
    return _log_scaled_return(u_k, log_abs_u, log_pref, literal=True)


def int_volatility_stat(sigma_k_sq: float, params: GarchParams, n: int, k: int,
                        xi_var: float, mode: str = CLASSICAL,
                        log_sigma_k_sq: Optional[float] = None) -> StatValue:
    return int_volatility_stats(_one(sigma_k_sq), _one(log_sigma_k_sq),
                                params, n, k, xi_var, mode)[0]


def int_return_stat(u_k: float, params: GarchParams, k: int,
                    mode: str = CLASSICAL,
                    log_abs_u: Optional[float] = None) -> StatValue:
    return int_return_stats(_one(u_k), _one(log_abs_u), params, k, mode)[0]


# ---------------------------------------------------------------------------
# near-explosive regime (gamma > 0)

def ne_volatility_stats(sigma_k_sq: np.ndarray,
                        log_sigma_k_sq: Optional[np.ndarray],
                        params: GarchParams, n: int, k: int, xi_var: float,
                        mode: str = CLASSICAL) -> StatArray:
    _require(params, Regime.NEAR_EXPLOSIVE)
    a, g, w = params.alpha_n, params.gamma_n, params.omega
    if mode == LITERAL:
        rk = math.sqrt(k)
        pref_log = math.log(g) - rk * g - math.log(a * rk * math.sqrt(xi_var))
        return _literal_centered(sigma_k_sq, log_sigma_k_sq, params, k,
                                 pref_log, g / rk)
    if mode != CLASSICAL:
        raise ValueError(f"unknown mode {mode!r}")
    L = _log_ratio(sigma_k_sq, log_sigma_k_sq) - math.log(w)
    log_center = log_geometric_exp_sum(g, k)
    log_pref = (math.log(g) - k * g
                - math.log(a * math.sqrt(n) * math.sqrt(xi_var)))
    value, log_mag, sign = (np.empty(L.shape) for _ in range(3))
    # both terms representable: centre on the linear scale
    lin = (L < 700.0) & (log_center < 700.0)
    lhs = (sigma_k_sq[lin] / w if log_sigma_k_sq is None
           else _libm(math.exp, L[lin]))
    diff = lhs - geometric_exp_sum(g, k)
    nz = diff != 0.0
    if (np.abs(diff[nz]) < 1e-10 * _libm(
            math.exp, np.maximum(L[lin][nz], log_center))).any():
        raise CancellationError(
            "centered difference lost all significant digits")
    plain = _plain(np.copysign(_libm(math.exp, log_pref + _log_abs(diff)),
                               diff))
    value[lin], log_mag[lin], sign[lin] = \
        plain.value, plain.log_magnitude, plain.sign
    # otherwise centre in log space
    log_diff, sign[~lin] = _log_centered_diff(L[~lin], log_center)
    log_mag[~lin] = log_pref + log_diff
    value[~lin] = sign[~lin] * _libm(math.exp, log_mag[~lin])
    return StatArray(value, log_mag, sign, np.zeros(L.shape, dtype=bool))


def ne_return_stats(u_k: np.ndarray, log_abs_u: Optional[np.ndarray],
                    params: GarchParams, k: int,
                    mode: str = CLASSICAL) -> StatArray:
    _require(params, Regime.NEAR_EXPLOSIVE)
    g, w = params.gamma_n, params.omega
    if mode == CLASSICAL:
        log_pref = 0.5 * (math.log(g) - k * g - math.log(w))
        return _log_scaled_return(u_k, log_abs_u, log_pref, literal=False)
    log_pref = 0.5 * (math.log(g) - math.sqrt(k) * g - math.log(w)
                      - (k + 1) / 2.0 * math.log(k))
    return _log_scaled_return(u_k, log_abs_u, log_pref, literal=True)


def ne_volatility_stat(sigma_k_sq: float, params: GarchParams, n: int, k: int,
                       xi_var: float, mode: str = CLASSICAL,
                       log_sigma_k_sq: Optional[float] = None) -> StatValue:
    return ne_volatility_stats(_one(sigma_k_sq), _one(log_sigma_k_sq),
                               params, n, k, xi_var, mode)[0]


def ne_return_stat(u_k: float, params: GarchParams, k: int,
                   mode: str = CLASSICAL,
                   log_abs_u: Optional[float] = None) -> StatValue:
    return ne_return_stats(_one(u_k), _one(log_abs_u), params, k, mode)[0]


def checkpoint_returns(sigma_k_sq: np.ndarray, log_sigma_k_sq: np.ndarray,
                       eps_k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """u_k = sigma_k eps_k and log|u_k|, the return statistics' inputs.

    log|u_k| comes from the log track, so it stays exact past a linear
    overflow; it is NaN where eps_k = 0 (u_k is then 0, or NaN past an
    overflow).
    """
    with np.errstate(invalid="ignore"):
        u = np.sqrt(sigma_k_sq) * eps_k
    log_abs_u = np.full(eps_k.shape, math.nan)
    nz = eps_k != 0.0
    log_abs_u[nz] = (0.5 * log_sigma_k_sq[nz]
                     + _libm(math.log, np.abs(eps_k[nz])))
    return u, log_abs_u


# ---------------------------------------------------------------------------
# proof-device statistics

def tau_stats(path: GarchPath, params: GarchParams, k: int,
              mode: str = CLASSICAL) -> Tuple[float, float]:
    """Single-sum tau and double-sum tau* exponential xi statistics."""
    _require(params, Regime.NEAR_STATIONARY)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tau, tau_star = tau_rows(path.xi, params, k, mode)
    return float(tau), float(tau_star)


def lemma_discrepancy(path: GarchPath, params: GarchParams, k: int,
                      mode: str = CLASSICAL) -> float:
    """Single-replicate squared gap between the exponentially weighted
    double xi sum and its explosive-regime surrogate (a scaled simple
    xi sum); the Monte Carlo mean of this estimates the L2 discrepancy.
    """
    _require(params, Regime.NEAR_EXPLOSIVE)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return float(lemma_rows(path.xi, params, k, mode))


def tau_rows(xi: np.ndarray, params: GarchParams, k: int,
             mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """tau_stats of each row of a xi block (rows, n+1), as two arrays."""
    # classical mode is literal mode with sqrt(k) and k^{1/4} set to 1;
    # dividing by 1.0 is exact
    root, quarter = ((math.sqrt(k), k ** 0.25) if mode == LITERAL
                     else (1.0, 1.0))
    xi_rev = xi[..., k - 1::-1]
    s = np.cumsum(xi_rev, axis=-1)
    wgt = np.exp(params.gamma_n / root * np.arange(1, k, dtype=float))
    # weighted sums by numpy's fixed-order pairwise sum, not np.dot, whose
    # BLAS sum order (and last bits) follows the thread count
    return (np.add.reduce(wgt * xi_rev[..., :k - 1], axis=-1) / quarter,
            np.add.reduce(wgt * s[..., :k - 1], axis=-1) / root)


def lemma_rows(xi: np.ndarray, params: GarchParams, k: int,
               mode: str) -> np.ndarray:
    """lemma_discrepancy of each row of a xi block (rows, n+1)."""
    root, scale = (math.sqrt(k), k) if mode == LITERAL else (1.0, params.n)
    g = params.gamma_n / root
    s = np.cumsum(xi[..., k - 1::-1], axis=-1)
    wgt = g * np.exp(g * np.arange(1 - k, 0, dtype=float))  # g e^{g (j-k)}
    # fixed-order sums, as in tau_rows
    gap = np.add.reduce(wgt * s[..., :k - 1], axis=-1) - s[..., k - 2]
    return gap * gap / scale


# ---------------------------------------------------------------------------
# shared literal-mode helpers

def _log_ratio(sigma_k_sq: np.ndarray,
               log_sigma_k_sq: Optional[np.ndarray]) -> np.ndarray:
    if log_sigma_k_sq is not None:
        return log_sigma_k_sq
    if not (np.all(sigma_k_sq > 0.0) and np.all(np.isfinite(sigma_k_sq))):
        raise ValueError("need log_sigma_k_sq for non-representable sigma^2")
    return _libm(math.log, sigma_k_sq)


def _exp_below_700(x: np.ndarray) -> np.ndarray:
    """e^x for x < 700, +inf elsewhere (NaN included)."""
    out = np.full(x.shape, math.inf)
    ok = x < 700.0
    out[ok] = _libm(math.exp, x[ok])
    return out


def _literal_centered(sigma_k_sq: np.ndarray,
                      log_sigma_k_sq: Optional[np.ndarray],
                      params: GarchParams, k: int, log_pref: float,
                      g_scaled: float) -> StatArray:
    """Literal display: pref * (sigma^2/(omega k^{k/2}) - sum e^{j g/sqrt k}).

    The scaled volatility term carries exponent -(k/2) log k and
    underflows any linear scale; when it is lost relative to the
    centering sum the result is flagged literal-degenerate.
    """
    L = (_log_ratio(sigma_k_sq, log_sigma_k_sq) - math.log(params.omega)
         - 0.5 * k * math.log(k))
    log_center = log_geometric_exp_sum(g_scaled, k)
    diff = _exp_below_700(L) - math.exp(log_center)
    log_mag = log_pref + _log_abs(diff)  # -inf, so value +0, at diff = 0
    return StatArray(np.copysign(_libm(math.exp, log_mag), diff), log_mag,
                     _sign(diff), L < log_center - 36.0)


def _log_scaled_return(u_k: np.ndarray, log_abs_u: Optional[np.ndarray],
                       log_pref: float, literal: bool) -> StatArray:
    """sign(u) e^{log_pref + log|u|}, with log|u| taken from log_abs_u when
    given.  Zero returns give 0 with log magnitude -inf.  Literal displays
    are always degenerate and flush values below the smallest subnormal
    to +0.
    """
    nz = u_k != 0.0
    la = _log_abs(u_k) if log_abs_u is None else log_abs_u
    log_mag = np.where(nz, log_pref + la, -math.inf)
    keep = nz & (log_mag > -745.0) if literal else nz
    val = np.zeros(u_k.shape)
    val[keep] = np.copysign(_libm(math.exp, log_mag[keep]), u_k[keep])
    return StatArray(val, log_mag, _sign(u_k), np.full(u_k.shape, literal))
