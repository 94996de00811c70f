"""Hot numeric kernels with optional numba acceleration.

The GARCH recursion dominates runtime in Monte Carlo sweeps.  Two
implementations are provided:

* a numba ``@njit`` kernel that loops over replications and time steps,
* a pure-numpy fallback that loops over time only, vectorized across
  replications.

Selection: numba is used when importable unless the environment variable
``MDGARCH_NO_NUMBA`` is set to a non-empty value.  Both paths produce
bit-identical linear volatilities and overflow flags; the log track may
differ by one unit in the last place (libm vs vectorized log).  See
benchmarks/ for a speed comparison.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_FLAG = "MDGARCH_NO_NUMBA"


def _numba_requested() -> bool:
    return not os.environ.get(_ENV_FLAG, "")


USE_NUMBA = False
if _numba_requested():
    try:
        from numba import njit, prange

        USE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is the optional [numba] extra
        USE_NUMBA = False


def _recursion_batch_py(eps, omega, alpha, beta, sigma0_sq):
    """Batched GARCH(1,1) recursion, numpy fallback.

    eps has shape (reps, n+1); returns (sigma_sq, log_sigma_sq,
    overflow_at) where overflow_at[r] is the first t with non-finite
    sigma_sq (or -1).  Past an overflow the linear track is inf and the
    log track continues exactly in log space.
    """
    reps, n1 = eps.shape
    n = n1 - 1
    sigma_sq = np.empty((reps, n + 1))
    log_sigma_sq = np.empty((reps, n + 1))
    overflow_at = np.full(reps, -1, dtype=np.int64)

    sigma_sq[:, 0] = sigma0_sq
    log_sigma_sq[:, 0] = math.log(sigma0_sq)
    log_omega = math.log(omega)
    log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
    log_beta = math.log(beta) if beta > 0.0 else -math.inf

    for t in range(1, n + 1):
        e2 = eps[:, t - 1] ** 2
        prev = sigma_sq[:, t - 1]
        # overflow to inf is expected on explosive paths; the log track
        # below carries the exact value onward
        with np.errstate(over="ignore"):
            cur = omega + (alpha * e2 + beta) * prev
        sigma_sq[:, t] = cur
        finite = np.isfinite(cur)
        log_sigma_sq[finite, t] = np.log(cur[finite])
        bad = ~finite
        if bad.any():
            lp = log_sigma_sq[bad, t - 1]
            with np.errstate(divide="ignore"):
                growth = np.logaddexp(log_alpha + np.log(e2[bad]), log_beta)
            log_sigma_sq[bad, t] = np.logaddexp(log_omega, growth + lp)
            newly = bad & (overflow_at < 0)
            overflow_at[newly] = t
    return sigma_sq, log_sigma_sq, overflow_at


if USE_NUMBA:

    @njit(cache=True, parallel=True)
    def _recursion_batch_nb(eps, omega, alpha, beta, sigma0_sq):  # pragma: no cover
        reps, n1 = eps.shape
        n = n1 - 1
        sigma_sq = np.empty((reps, n + 1))
        log_sigma_sq = np.empty((reps, n + 1))
        overflow_at = np.full(reps, -1, dtype=np.int64)
        log_omega = math.log(omega)
        log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
        log_beta = math.log(beta) if beta > 0.0 else -math.inf

        for r in prange(reps):
            sigma_sq[r, 0] = sigma0_sq
            log_sigma_sq[r, 0] = math.log(sigma0_sq)
            for t in range(1, n + 1):
                e2 = eps[r, t - 1] * eps[r, t - 1]
                cur = omega + (alpha * e2 + beta) * sigma_sq[r, t - 1]
                sigma_sq[r, t] = cur
                if math.isfinite(cur):
                    log_sigma_sq[r, t] = math.log(cur)
                else:
                    a = log_alpha + math.log(e2) if e2 > 0.0 else -math.inf
                    if a > log_beta:
                        growth = a + math.log1p(math.exp(log_beta - a))
                    elif math.isinf(a):
                        growth = log_beta
                    else:
                        growth = log_beta + math.log1p(math.exp(a - log_beta))
                    lp = growth + log_sigma_sq[r, t - 1]
                    if lp > log_omega:
                        log_sigma_sq[r, t] = lp + math.log1p(math.exp(log_omega - lp))
                    else:
                        log_sigma_sq[r, t] = log_omega + math.log1p(math.exp(lp - log_omega))
                    if overflow_at[r] < 0:
                        overflow_at[r] = t


        return sigma_sq, log_sigma_sq, overflow_at


def recursion_batch(eps: np.ndarray, omega: float, alpha: float, beta: float,
                    sigma0_sq: float):
    """Run the volatility recursion for a batch of innovation rows."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    if USE_NUMBA:
        return _recursion_batch_nb(eps, float(omega), float(alpha), float(beta),
                                   float(sigma0_sq))
    return _recursion_batch_py(eps, float(omega), float(alpha), float(beta),
                               float(sigma0_sq))
