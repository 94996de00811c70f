"""Hot numeric kernels with optional numba acceleration.

The GARCH recursion dominates runtime in Monte Carlo sweeps.  Two
implementations are provided:

* a numba ``@njit`` kernel that loops over replications and time steps,
* a time-major numpy kernel.  Per block of ``BLOCK`` steps it computes
  the factors ``alpha*(e*e) + beta`` as a (block, reps) array, advances
  each step as an in-place multiply and add on one contiguous row and
  copies out only the kept columns.  The log track is one ``np.log``
  over the kept finite entries; the ``logaddexp`` log-space steps run
  only for rows that overflowed, from their first overflow on.  A batch
  of one row runs its linear track as a plain Python-float loop, since
  per-step numpy dispatch on length-1 arrays costs far more than the
  arithmetic.  Both are bit-identical to a step-by-step loop over the
  columns, which the tests keep as the reference.

``recursion_batch(..., keep=cols)`` returns the tracks only at the time
indices ``cols`` (the numba kernel's full output is sliced).  Selection:
numba is used when importable unless the environment variable
``MDGARCH_NO_NUMBA`` is set to a non-empty value.  Both paths produce
bit-identical linear volatilities and overflow flags; the log track may
differ by one unit in the last place (libm vs vectorized log).
"""
from __future__ import annotations

import math
import os
from typing import Optional, Sequence

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


#: time steps per block of the numpy kernel; a (BLOCK, reps) factor array
#: stays cache-sized while each step's numpy calls cover every replication
BLOCK = 256


def _recursion_blocked_py(eps, omega, alpha, beta, sigma0_sq, cols):
    """recursion_batch on the numpy kernel, for a batch of rows.  Past an
    overflow the linear track is inf (nan where a zero factor meets inf)
    and the log track continues exactly in log space."""
    reps, n1 = eps.shape
    sigma_sq = np.empty((reps, len(cols)))
    overflow_at = np.full(reps, -1, dtype=np.int64)
    last_finite = np.empty(reps)   # sigma_sq[r, overflow_at[r] - 1]
    prev = np.full(reps, sigma0_sq)
    factors = np.empty((min(BLOCK, n1 - 1), reps))
    for a in range(1, n1, BLOCK):
        b = min(a + BLOCK, n1)
        block = factors[:b - a]
        np.copyto(block, eps[:, a - 1:b - 1].T)
        # overflow to inf (and 0 * inf = nan) is expected on explosive
        # paths; the log-space pass carries the exact value onward
        with np.errstate(over="ignore", invalid="ignore"):
            block *= block
            block *= alpha
            block += beta
            row = prev
            for cur in block:
                cur *= row
                cur += omega
                row = cur
        # a non-finite sigma^2 stays non-finite, so the block's last row
        # shows every overflow
        newly = ~np.isfinite(block[-1]) & (overflow_at < 0)
        if newly.any():
            rows = np.flatnonzero(newly)
            j = np.isfinite(block[:, rows]).argmin(axis=0)
            overflow_at[rows] = a + j
            last_finite[rows] = np.where(j > 0, block[j - 1, rows],
                                         prev[rows])
        m = np.flatnonzero((cols >= a) & (cols < b))
        sigma_sq[:, m] = block[cols[m] - a].T
        prev = block[-1].copy()
    sigma_sq[:, np.flatnonzero(cols == 0)] = sigma0_sq
    return _with_log_track(eps, omega, alpha, beta, sigma0_sq, cols,
                           sigma_sq, overflow_at, last_finite)


def _recursion_row_py(eps, omega, alpha, beta, sigma0_sq, cols):
    """_recursion_blocked_py for a batch of one row, bit for bit: the
    linear track is a Python-float loop through memoryviews (inf and nan
    propagate as in numpy)."""
    n = eps.shape[1] - 1
    sigma_sq = np.empty(n + 1)
    track = memoryview(sigma_sq)
    cur = track[0] = sigma0_sq
    for t, e in enumerate(memoryview(eps[0])[:n], start=1):
        cur = omega + (alpha * (e * e) + beta) * cur
        track[t] = cur
    finite = np.isfinite(sigma_sq)
    t0 = -1 if finite.all() else int(np.argmin(finite))
    return _with_log_track(eps, omega, alpha, beta, sigma0_sq, cols,
                           sigma_sq.take(cols)[None], np.array([t0]),
                           sigma_sq[[max(t0 - 1, 0)]])


def _with_log_track(eps, omega, alpha, beta, sigma0_sq, cols, sigma_sq,
                    overflow_at, last_finite):
    """Add the log track at cols: one np.log over the kept entries, then,
    for each overflowed row r from overflow_at[r] on, the log-space
    recursion from the log of last_finite[r]."""
    log_sigma_sq = np.log(sigma_sq)   # inf/nan entries are replaced below
    log_sigma_sq[:, np.flatnonzero(cols == 0)] = math.log(sigma0_sq)
    rows = np.flatnonzero(overflow_at >= 0)
    if not rows.size:
        return sigma_sq, log_sigma_sq, overflow_at
    t0 = overflow_at[rows]
    start = np.log(last_finite[rows])
    start[t0 == 1] = math.log(sigma0_sq)
    log_omega = math.log(omega)
    log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
    log_beta = math.log(beta) if beta > 0.0 else -math.inf
    first = int(t0.min())
    # rows overflowing after `first` run along from there and are reset
    # to their own start at t0 - 1
    restart = {}
    for i in np.flatnonzero(t0 > first):
        restart.setdefault(int(t0[i]) - 1, []).append(i)
    lp = start
    for a in range(first, eps.shape[1], BLOCK):
        b = min(a + BLOCK, eps.shape[1])
        e2 = np.ascontiguousarray(eps[rows, a - 1:b - 1].T)
        e2 *= e2
        with np.errstate(divide="ignore"):
            block = np.logaddexp(log_alpha + np.log(e2), log_beta)
        for t, cur in enumerate(block, start=a):
            cur += lp
            np.logaddexp(log_omega, cur, out=cur)
            if t in restart:
                cur[restart[t]] = start[restart[t]]
            lp = cur
        m = np.flatnonzero((cols >= a) & (cols < b))
        sub = np.ix_(rows, m)
        log_sigma_sq[sub] = np.where(cols[m] >= t0[:, None],
                                     block[cols[m] - a].T, log_sigma_sq[sub])
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
                    sigma0_sq: float,
                    keep: Optional[Sequence[int]] = None):
    """Run the volatility recursion for a batch of innovation rows.

    eps has shape (reps, n+1).  Returns (sigma_sq, log_sigma_sq,
    overflow_at): both tracks at the time indices ``keep`` (all n+1 when
    None), each of shape (reps, len(keep)), and per row the first t with
    non-finite sigma_sq, or -1.
    """
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    n1 = eps.shape[1]
    cols = np.arange(n1) if keep is None else np.asarray(keep, dtype=np.intp)
    if cols.size and not 0 <= cols.min() <= cols.max() < n1:
        raise ValueError(f"keep must lie in [0, {n1 - 1}]")
    args = (eps, float(omega), float(alpha), float(beta), float(sigma0_sq))
    if USE_NUMBA:
        sigma_sq, log_sigma_sq, overflow_at = _recursion_batch_nb(*args)
        return sigma_sq[:, cols], log_sigma_sq[:, cols], overflow_at
    kernel = _recursion_row_py if eps.shape[0] == 1 else _recursion_blocked_py
    return kernel(*args, cols)
