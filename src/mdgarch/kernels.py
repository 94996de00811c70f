"""The volatility recursion sigma_t^2 = omega + (alpha eps_{t-1}^2 + beta)
sigma_{t-1}^2 for a batch of innovation rows, on numpy alone.

``Recursion`` holds the recursion's state for a batch of rows and
advances it one time block of innovations at a time
(``Recursion.advance``): per row sigma^2 at the last step, the first
overflow index, log sigma^2 at the last step once the row has
overflowed, and both tracks at the kept time indices.  Only those are
kept, so the innovations can be drawn and dropped block by block.
``recursion_batch`` is the case of one block holding the whole path.

A batch steps through one loop over sub-blocks of its time block:
``BLOCK`` steps each when it has several rows, the whole time block
when it has one.  numpy computes the factors ``alpha*(e*e) + beta`` as a
(steps, rows) array, copied from the time block in tiles of ``BLOCK``
rows (for several rows one (``BLOCK``, rows) array, mapped on the first
block outside malloc and reused); only the linear step differs by row
count.  Several rows run time-major, an in-place multiply and add
(omega a float64 array) per step on one contiguous row.  One row runs
one Python-float multiply-add per step, since per-step numpy dispatch
on length-1 arrays costs far more than the arithmetic.  Every
sub-block then ends the same way: it
detects new overflows (and stores log sigma^2 just before each), copies
out only the kept columns with their ``np.log``, and runs exact
``logaddexp`` log-space steps for the rows that have overflowed, from
their first overflow on.

``advance`` runs on the calling thread.  Each per-step numpy call spans
every row of the batch, and numpy releases the GIL only in loops of more
than 500 elements; even split over two threads, 2000 x 4000 innovations
stepped no faster (22.6-30.5 ms on one thread, 26.4-37.0 ms wall and
39.8-57.6 ms CPU on two; 2-vCPU host).  ``map_row_blocks`` runs the
harness's sampling and path diagnostics over row blocks in up to
``WORKERS`` threads, the number of CPUs this process may run on; it is
not an option.  Each row's arithmetic is the same whichever time block
it lands in, so the outputs do not depend on the time blocks.

Contract: on all three outputs (linear track, log track, overflow
index) ``recursion_batch`` is bit-identical to the step-by-step loop
over the columns that ``tests/test_simulate.py`` keeps as the reference.
"""
from __future__ import annotations

import functools
import math
import mmap
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


def mapped_array(rows: int, cols: int) -> np.ndarray:
    """A zeroed C-contiguous (rows, cols) float array in its own anonymous
    memory map.  The map bypasses malloc: glibc raises its mmap threshold
    to the size of any mapped block it frees (up to 32 MiB), and the heap
    then keeps blocks below that size that it would have returned to the
    system."""
    try:
        buf = mmap.mmap(-1, 8 * rows * cols)
    except OSError as exc:
        raise MemoryError(f"cannot map a ({rows}, {cols}) array") from exc
    return np.frombuffer(buf).reshape(rows, cols)


def row_array(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) view whose row stride is an odd number of
    64-byte cache lines, in its own memory map (mapped_array).

    The kernel reads a time block down its columns; with a row stride of
    a power of two doubles, every row of a column falls in the same
    cache set, and stepping 2000 x 5000 innovations through 1024-column
    blocks took 1.6x as long."""
    return mapped_array(rows, 8 * (-(-cols // 8) | 1))[:, :cols]


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


class Recursion:
    """The recursion's state for a batch of ``reps`` rows over time
    indices 0..n, keeping both tracks at the time indices ``keep`` (all
    n+1 when None).

    ``advance`` takes the steps of one time block; after the last
    (step n), ``sigma_sq`` and ``log_sigma_sq`` (shape (reps, len(keep)))
    hold the tracks at ``keep`` and ``overflow_at`` per row the first t
    with non-finite sigma_sq, or -1.  Past an overflow the linear track
    is inf (nan where a zero factor meets inf) and the log track
    continues exactly in log space.  Between blocks the state is per row
    sigma^2 at the last step (``prev``) and, once the row has
    overflowed, log sigma^2 there (``log_prev``).
    """

    def __init__(self, reps: int, n: int, omega: float, alpha: float,
                 beta: float, sigma0_sq: float,
                 keep: Optional[Sequence[int]] = None):
        self.n = n
        self.params = float(omega), float(alpha), float(beta), \
            float(sigma0_sq)
        # keeping every index, a block's kept entries are slices
        self.every = keep is None
        self.cols = cols = (np.arange(n + 1) if keep is None
                            else np.asarray(keep, dtype=np.intp))
        if cols.size and not 0 <= cols.min() <= cols.max() <= n:
            raise ValueError(f"keep must lie in [0, {n}]")
        self.sigma_sq = np.empty((reps, len(cols)))
        self.log_sigma_sq = np.empty((reps, len(cols)))
        at0 = np.flatnonzero(cols == 0)
        self.sigma_sq[:, at0] = sigma0_sq
        self.log_sigma_sq[:, at0] = math.log(sigma0_sq)
        self.overflow_at = np.full(reps, -1, dtype=np.int64)
        self.prev = np.full(reps, float(sigma0_sq))  # at the last step
        self.log_prev = np.empty(reps)     # at the last step, if overflowed

    def advance(self, eps: np.ndarray, a: int) -> None:
        """Take steps a+1, ..., a+m of every row (none past n) from the
        innovations eps_a, ..., eps_{a+m-1}: eps has shape (reps, m)."""
        m = min(eps.shape[1], self.n - a)
        if m <= 0:
            return
        self._advance_rows(eps[:, :m], a)

    def kept(self, lo: int, hi: int):
        """(positions in keep, offsets from lo) of the kept time indices
        in [lo, hi): slices when every index is kept."""
        if self.every:
            return slice(lo, hi), slice(0, hi - lo)
        k = np.flatnonzero((self.cols >= lo) & (self.cols < hi))
        return k, self.cols[k] - lo

    @functools.cached_property
    def _factors(self) -> np.ndarray:
        """The (BLOCK, reps) factor array of several rows, mapped on the
        first block and reused by every later one.  Contiguous: with
        row_array's padded row stride, 500 x 4000 steps took 1.6x as
        long."""
        return mapped_array(min(BLOCK, self.n), len(self.prev))

    def _advance_rows(self, eps, a):
        prev, overflow_at, log_prev = (self.prev, self.overflow_at,
                                       self.log_prev)
        sigma_sq, log_sigma_sq = self.sigma_sq, self.log_sigma_sq
        omega, alpha, beta, sigma0_sq = self.params
        m = eps.shape[1]
        # one row takes the whole block at once: see the loop below
        if len(eps) == 1:
            size, factors = m, np.empty((m, 1))
        else:
            size, factors = BLOCK, self._factors
        omega_arr = np.array(omega)  # numpy's Python-float path is slower
        for j in range(0, m, size):
            t = a + 1 + j   # the step of the sub-block's first row
            block = factors[:min(size, m - j)]
            block_eps = eps[:, j:j + len(block)]
            # in tiles of BLOCK rows: the transposing copy reads one cache
            # line per row and step, and the lines of over about a
            # thousand rows spill out of L1 and the TLB
            for r in range(0, len(eps), BLOCK):
                np.copyto(block[:, r:r + BLOCK], block_eps[r:r + BLOCK].T)
            # overflow to inf (and 0 * inf = nan) is expected on explosive
            # paths; the log-space steps carry the exact value
            with np.errstate(over="ignore", invalid="ignore"):
                block *= block
                block *= alpha
                block += beta
                if len(eps) == 1:
                    # numpy dispatch per step costs far more than the
                    # arithmetic: bit for bit the same, inf and nan included
                    out = memoryview(block[:, 0])
                    cur = float(prev[0])
                    for i, f in enumerate(out):
                        cur = f * cur + omega
                        out[i] = cur
                else:
                    row = prev
                    for cur in block:
                        cur *= row
                        cur += omega_arr
                        row = cur
            # a non-finite sigma^2 stays non-finite, so the sub-block's
            # last row shows every overflow
            newly = ~np.isfinite(block[-1]) & (overflow_at < 0)
            if newly.any():
                new = np.flatnonzero(newly)
                i = np.isfinite(block[:, new]).argmin(axis=0)
                overflow_at[new] = t + i
                # the log-space steps start from log sigma^2 at t0 - 1
                log_prev[new] = np.log(np.where(i > 0, block[i - 1, new],
                                                prev[new]))
                log_prev[new[t + i == 1]] = math.log(sigma0_sq)
            k, c = self.kept(t, t + len(block))
            kept = block[c].T
            sigma_sq[:, k] = kept
            log_sigma_sq[:, k] = np.log(kept)  # inf/nan: see _log_space
            prev[:] = block[-1]
            self._log_space(block_eps, t, log_prev, overflow_at,
                            log_sigma_sq)

    def _log_space(self, eps, t, log_prev, overflow_at, log_sigma_sq):
        """The log track of steps t, ..., t+m-1 (eps has shape (rows, m))
        for the rows overflowed by step t+m-1, from log_prev: log sigma^2
        at step t-1, or at t0-1 for a row whose first overflow t0 is in
        the sub-block."""
        sub = np.flatnonzero(overflow_at >= 0)
        if not sub.size:
            return
        omega, alpha, beta, _ = self.params
        t0 = overflow_at[sub]
        first = max(t, int(t0.min()))
        start = lp = log_prev[sub]
        # rows overflowing after `first` run along from there and are
        # reset to their own start at t0 - 1
        restart = {}
        for i in np.flatnonzero(t0 > first):
            restart.setdefault(int(t0[i]) - 1, []).append(i)
        log_omega = math.log(omega)
        log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
        log_beta = math.log(beta) if beta > 0.0 else -math.inf
        e2 = np.ascontiguousarray(eps[sub, first - t:].T)
        e2 *= e2
        with np.errstate(divide="ignore"):
            block = np.logaddexp(log_alpha + np.log(e2), log_beta)
        for s, cur in enumerate(block, start=first):
            cur += lp
            np.logaddexp(log_omega, cur, out=cur)
            if s in restart:
                cur[restart[s]] = start[restart[s]]
            lp = cur
        k, c = self.kept(first, t + eps.shape[1])
        at = np.ix_(sub, np.arange(len(self.cols))[k])
        log_sigma_sq[at] = np.where(self.cols[k] >= t0[:, None],
                                    block[c].T, log_sigma_sq[at])
        log_prev[sub] = lp


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
    reps, n1 = eps.shape
    rec = Recursion(reps, n1 - 1, omega, alpha, beta, sigma0_sq, keep)
    rec.advance(eps, 0)
    return rec.sigma_sq, rec.log_sigma_sq, rec.overflow_at
