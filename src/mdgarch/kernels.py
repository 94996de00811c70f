"""The volatility recursion sigma_t^2 = omega + (alpha eps_{t-1}^2 + beta)
sigma_{t-1}^2 for a batch of innovation rows, on numpy alone.

A batch of several rows runs a time-major kernel.  Per block of
``BLOCK`` steps it computes the factors ``alpha*(e*e) + beta`` as a
(block, reps) array, advances each step as an in-place multiply and add
on one contiguous row and copies out only the kept columns.  A batch of
one row runs its linear track as a plain Python-float loop, since
per-step numpy dispatch on length-1 arrays costs far more than the
arithmetic.  Both routes share the log track: one ``np.log`` over the
kept finite entries, then ``logaddexp`` log-space steps only for rows
that overflowed, from their first overflow on.

Rows are independent, so ``recursion_batch`` splits a batch into at
most ``WORKERS`` contiguous row blocks of at least ``KERNEL_MIN_ROWS``
rows and runs the kernel on them in up to ``WORKERS`` threads
(``map_row_blocks``); numpy's loops release the GIL, so the blocks
overlap on separate cores.  ``WORKERS`` is the number of CPUs this
process may run on; it is not an option.  Each row's arithmetic is the
same whichever block it lands in, so the outputs do not depend on the
worker count.

Contract: on all three outputs (linear track, log track, overflow
index) ``recursion_batch`` is bit-identical to the step-by-step loop
over the columns that ``tests/test_simulate.py`` keeps as the reference.
"""
from __future__ import annotations

import math
import os
import threading
from typing import Callable, Optional, Sequence

import numpy as np

#: read by perfbench/run.py ``_environment``; there is no numba kernel
USE_NUMBA = False

#: time steps per block of the numpy kernel; a (BLOCK, reps) factor array
#: stays cache-sized while each step's numpy calls cover every replication
BLOCK = 256

#: threads run at once by map_row_blocks: the CPUs this process may use
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

#: fewest rows in a kernel row block.  numpy releases the GIL only in
#: ufunc loops over more than 500 elements, and each per-step call of the
#: kernel spans one block's rows; smaller blocks in threads only queue for
#: the GIL (300 rows split in two ran 1.6x slower on a 2-vCPU host)
KERNEL_MIN_ROWS = 501


def map_row_blocks(fn: Callable[[slice], object], rows: int,
                   block_rows: int = 1) -> list:
    """[fn(s) for s in slices], over the contiguous slices of block_rows
    rows (the last may be shorter) that cover range(rows).

    Up to WORKERS threads, the calling thread among them, share the
    slices: each takes the lowest slice not yet taken whenever it is
    free, so a thread that runs on a slower or busier CPU takes fewer
    and the call ends about when the work does.  A single slice runs on
    the calling thread and starts no thread.  After a slice raises, no
    further slice is taken; all threads are joined before the exception
    of the lowest failed slice is re-raised.  numpy's errstate is per
    thread: fn sets whatever it needs itself."""
    slices = [slice(a, min(a + block_rows, rows))
              for a in range(0, rows, block_rows)] or [slice(0, 0)]
    results = [None] * len(slices)
    errors = []
    pending = iter(range(len(slices)))
    lock = threading.Lock()

    def take():
        with lock:
            return None if errors else next(pending, None)

    def run():
        while (i := take()) is not None:
            try:
                results[i] = fn(slices[i])
            except BaseException as exc:  # re-raised on the calling thread
                with lock:
                    errors.append((i, exc))
                return

    threads = [threading.Thread(target=run)
               for _ in range(min(WORKERS, len(slices)) - 1)]
    for t in threads:
        t.start()
    try:
        run()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


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
    args = float(omega), float(alpha), float(beta), float(sigma0_sq), cols

    def run(rows):
        block = eps[rows]
        kernel = (_recursion_row_py if block.shape[0] == 1
                  else _recursion_blocked_py)
        return kernel(block, *args)

    reps = eps.shape[0]
    blocks = max(1, min(WORKERS, reps // KERNEL_MIN_ROWS))
    parts = map_row_blocks(run, reps, max(1, -(-reps // blocks)))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(track) for track in zip(*parts))
