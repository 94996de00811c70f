"""Path simulation, the exact multiplicative identity, and the
four-component decomposition with remainder diagnostics.

The recursion and the multiplicative product form are algebraically
identical representations of the same volatility; comparing them is the
core exactness check.  The decomposition splits sigma_k^2 into a seeded
product term plus three sums whose remainders are computed from their
exact definitional identities (never from Taylor bounds; the bounds are
test assertions).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .innovations import InnovationSpec, RngStream, sample_innovations, validate_spec
from .kernels import recursion_batch
from .localization import GarchParams

CLASSICAL = "classical"
LITERAL = "literal"
MODES = (CLASSICAL, LITERAL)


@dataclass
class GarchPath:
    """One simulated trajectory, immutable by convention after build."""

    n: int
    eps: np.ndarray          # eps_0 .. eps_n
    xi: np.ndarray           # eps^2 - 1
    u: np.ndarray            # returns sigma_t * eps_t
    sigma_sq: np.ndarray     # sigma_0^2 given; inf past an overflow
    log_sigma_sq: np.ndarray  # always finite, exact in log space
    master_seed: int
    stream_index: int
    overflow_at: int = -1    # first t with non-representable sigma^2, or -1

    @property
    def overflowed(self) -> bool:
        return self.overflow_at >= 0


def simulate_path(params: GarchParams, spec: InnovationSpec,
                  stream: RngStream) -> GarchPath:
    validate_spec(spec)
    eps = sample_innovations(spec, params.n + 1, stream)
    return path_from_eps(params, eps, stream)


def path_from_eps(params: GarchParams, eps: np.ndarray,
                  stream: RngStream) -> GarchPath:
    """Build a path from given innovations (kernel-backed recursion)."""
    n = len(eps) - 1
    sigma_sq, log_sigma_sq, overflow = recursion_batch(
        eps[None, :], params.omega, params.alpha_n, params.beta_n,
        params.sigma0_sq)
    sigma_sq = sigma_sq[0]
    log_sigma_sq = log_sigma_sq[0]
    with np.errstate(invalid="ignore"):
        u = np.sqrt(sigma_sq) * eps
    return GarchPath(n=n, eps=eps, xi=eps ** 2 - 1.0, u=u,
                     sigma_sq=sigma_sq, log_sigma_sq=log_sigma_sq,
                     master_seed=stream.master_seed,
                     stream_index=stream.stream_index,
                     overflow_at=int(overflow[0]))


def volatility_multiplicative(params: GarchParams, eps: np.ndarray,
                              t: int) -> Tuple[float, Optional[float]]:
    """Evaluate sigma_t^2 through the product form, in log space.

    sigma_t^2 = sigma_0^2 prod_{i<=t} f_i + omega [1 + sum_{j<t} prod_{i<=j} f_i]
    with f_i = beta + alpha eps_{t-i}^2.  Returns (log sigma_t^2,
    sigma_t^2 or None when not representable).
    """
    if not 1 <= t <= len(eps) - 1:
        raise ValueError("t out of range")
    f = params.beta_n + params.alpha_n * eps[t - 1::-1][:t] ** 2
    with np.errstate(divide="ignore"):
        log_cum = np.cumsum(np.log(f))
    terms = np.concatenate((
        [math.log(params.omega)],
        math.log(params.omega) + log_cum[:t - 1],
        [math.log(params.sigma0_sq) + log_cum[t - 1]],
    ))
    m = terms.max()
    log_val = m + math.log(np.sum(np.exp(terms - m)))
    lin = math.exp(log_val) if log_val < 700.0 else None
    return log_val, lin


def _expm1_minus_x(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(x) - 1 - x with full relative accuracy near zero, written to
    out (a buffer other than x)."""
    small = np.abs(x, out=out) < 1e-4
    with np.errstate(over="ignore"):
        out = np.expm1(x, out=out)
        out -= x
    # the series only where it replaces the direct form
    xs = x[small]
    if xs.size:
        out[small] = xs * xs * (0.5 + xs * (1.0 / 6.0 + xs / 24.0))
    return out


class NumericalBreakdown(ArithmeticError):
    """A result lost all its significant digits or left the float range:
    `where` names the step, `why` what was lost and `row` the first failed
    row of the batch (None if none; a caller that ran it at an offset
    adds the offset)."""

    def __init__(self, where: str, row: Optional[int], why: str):
        self.where, self.row, self.why = where, row, why

    def __str__(self) -> str:
        row = "" if self.row is None else f", replication {self.row}"
        return f"{self.where}{row}: {self.why}"


class DecompositionOverflow(NumericalBreakdown):
    """A classical decomposition component is not representable: the
    first is sigma_0^2 times the product of the k factors, which
    overflows on explosive rows."""


@dataclass
class DecompositionReport:
    k: int
    mode: str
    components: tuple        # classical: 4 floats; literal: 4 (log_mag, sign)
    r1: float
    r2_max: float
    r2_lil_max: float
    r3_rel_max: float
    #: literal bookkeeping: log magnitude of the k^{k/2} prefactor
    prefactor_log: float = 0.0

    def reconstructed(self, omega: float) -> float:
        """omega + sum of components (classical mode only)."""
        if self.mode != CLASSICAL:
            raise ValueError("linear reconstruction is classical-mode only")
        return omega + math.fsum(self.components)


def decompose_volatility(path: GarchPath, params: GarchParams, k: int,
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
    return decompose_rows(path.xi[None, :], params, k, mode)[0]


@functools.lru_cache(maxsize=1)
def _decompose_weights(g_eff: float, k: int) -> Tuple[np.ndarray, ...]:
    """j = 1..k, the log log scale of R2 (j >= 3) and e^{j g_eff}
    (j <= k-1), read-only; one set per run, built in place."""
    j = np.arange(1, k + 1, dtype=float)
    lil = np.log(j[2:])
    np.log(lil, out=lil)
    np.maximum(lil, 0.1, out=lil)
    lil *= j[2:]
    ejg = np.multiply(j[:k - 1], g_eff)
    with np.errstate(over="ignore"):     # inf: see path_diagnostics
        np.exp(ejg, out=ejg)
    for table in (j, lil, ejg):
        table.flags.writeable = False
    return j, lil, ejg


@functools.lru_cache(maxsize=1)
def _lemma_weights(g: float, k: int) -> np.ndarray:
    """g e^{g (j-k)}, j = 1..k-1, read-only; one table per run, built in
    place."""
    wgt = np.arange(1 - k, 0, dtype=float)
    wgt *= g
    np.exp(wgt, out=wgt)
    wgt *= g
    wgt.flags.writeable = False
    return wgt


def decompose_rows(xi: np.ndarray, params: GarchParams, k: int, mode: str,
                   s: Optional[np.ndarray] = None,
                   work: Optional[Sequence[np.ndarray]] = None
                   ) -> List[DecompositionReport]:
    """decompose_volatility of each row of a xi block (rows, m >= k).

    s, when given, is the reversed prefix sum
    np.cumsum(xi[:, k-1::-1], axis=1), read instead of computed.  work,
    when given, is four float arrays of shape (rows, k) that the
    temporaries are written to; otherwise they are allocated here.
    work[0] may be the array holding xi[:, k-1::-1] (the same memory and
    strides) and work[1] may be s: each is read only element by element
    into itself (x = alpha xi + gamma, then alpha S_j) before anything
    else is written there.  The row is one tile of path_diagnostics.
    Raises DecompositionOverflow, naming the first row, when a classical
    component is not finite.
    """
    return path_diagnostics(xi, params, k, mode, ("remainders",), s=s,
                            work=work)["remainders"]


# numpy's pairwise sum adds a run of up to this many terms unsplit
# (its PW_BLOCKSIZE)
_PAIRWISE_BLOCK = 128


def _split(n: int, cap: int) -> Optional[int]:
    """Where numpy's pairwise sum of n terms splits them (a multiple of
    its 8-way unroll), or None if the n terms are a leaf: no more than
    cap, or a run numpy adds unsplit."""
    if n <= max(cap, _PAIRWISE_BLOCK):
        return None
    return n // 2 - (n // 2) % 8


def _sum_leaves(n: int, cap: int, lo: int = 0) -> List[Tuple[int, int]]:
    """The leaves [lo', hi') of numpy's pairwise sum of the n terms from
    lo, in order: its tree, split until each leaf fits cap."""
    half = _split(n, cap)
    if half is None:
        return [(lo, lo + n)]
    return _sum_leaves(half, cap, lo) + _sum_leaves(n - half, cap,
                                                    lo + half)


def _tree_sum(sums: Iterator, n: int, cap: int):
    """np.add.reduce of n terms, bit for bit, from the sums of its leaves
    (those of _sum_leaves(n, cap), as an iterator in order), added up
    numpy's tree."""
    half = _split(n, cap)
    if half is None:
        return next(sums)
    return _tree_sum(sums, half, cap) + _tree_sum(sums, n - half, cap)


def column_tiles(k: int, cap: int) -> List[Tuple[int, int]]:
    """The column tiles [lo, hi) of a diagnostic row of k reversed
    columns: the leaves of the pairwise sums over the first k - 1, the
    last column joining the last leaf when that holds fewer than cap (a
    tile of its own otherwise)."""
    tiles = _sum_leaves(k - 1, cap)
    lo, hi = tiles[-1]
    if hi - lo < cap:
        tiles[-1] = (lo, k)
    else:
        tiles.append((k - 1, k))
    return tiles


def _cumsum_rows(tile: np.ndarray, carry: np.ndarray, first: bool,
                 out: np.ndarray) -> None:
    """Each row of out the running sum of tile's, continued from carry
    (the running sums at the previous tile's last column) unless the
    tile is the first; carry then holds this tile's, and tile its own
    values again.  Adding the carry to the first column is the addition
    a running sum over the whole row makes there, so the bits are the
    same.  Row by row: numpy's cumsum releases the GIL on 1-D arrays
    only."""
    if not first:
        head = tile[:, 0].copy()
        tile[:, 0] += carry
    for row, row_out in zip(tile, out):
        np.add.accumulate(row, out=row_out)   # np.cumsum's loop
    if not first and out is not tile:
        tile[:, 0] = head
    carry[:] = out[:, -1]


def path_diagnostics(xi: np.ndarray, params: GarchParams, k: int, mode: str,
                     tests: Sequence[str], cap: Optional[int] = None,
                     s: Optional[np.ndarray] = None,
                     work: Optional[Sequence[np.ndarray]] = None) -> dict:
    """The path diagnostics of each row of a xi block (rows, m >= k) at
    k: per requested test of "lemma", "tau_coupling" and "remainders",
    what lemma_rows, tau_rows and decompose_rows return.

    All three read the reversed row xi_{k-1}, ..., xi_0 and its prefix
    sums S_j, here taken over column tiles (column_tiles(k, cap); one
    tile of the whole row when cap is None), so the temporaries are four
    tile buffers: x = alpha xi + gamma over the reversed xi, alpha S_j
    over S_j, log(1 + x) and one scratch tile.  The running sums carry
    from tile to tile (_cumsum_rows), the tiles' maxima combine with
    np.max, which propagates NaN, and each weighted sum adds the sums of
    its tiles up numpy's pairwise tree (_tree_sum), so every result is
    bit for bit the same for any cap.
    s, when given, is read instead of computed; work, when given, is
    the four tile buffers, each at least (rows, the widest tile).
    """
    alpha, gamma = params.alpha_n, params.gamma_n
    rows = len(xi)
    root = math.sqrt(k) if mode == LITERAL else 1.0
    g_eff = gamma / root
    cap = k if cap is None else cap
    tiles = column_tiles(k, cap)
    if work is None:
        work = np.empty((4, rows, max(hi - lo for lo, hi in tiles)))
    lemma, tau, remainders = (test in tests for test in
                              ("lemma", "tau_coupling", "remainders"))
    if lemma:
        lemma_wgt = _lemma_weights(g_eff, k)
    if tau or remainders:
        j, lil, ejg = _decompose_weights(g_eff, k)
    # per tile the sums of lemma, tau, tau*, inner2, inner3 and inner4
    # (a last tile of one column adds empty sums after them, never read)
    leaf = np.zeros((len(tiles), 6, rows))
    carry = np.empty((3, rows))   # running sums of S_j, R3, log(1 + x)
    # the last column of S_j (lemma) and alpha S_j (R1)
    s_last, a_s_last = np.empty(rows), np.empty(rows)
    # per tile max |R2|, max |R2| / lil_j (j >= 3) and max |R3| / j
    maxima = np.empty((3, rows, len(tiles)))
    for t, (lo, hi) in enumerate(tiles):
        w, m = hi - lo, min(hi, k - 1) - lo   # columns; terms of the sums
        xi_rev = work[0][:, :w]
        np.copyto(xi_rev, xi[:, k - hi:k - lo][:, ::-1])
        if s is None:
            s_tile = work[1][:, :w]
            _cumsum_rows(xi_rev, carry[0], lo == 0, s_tile)
        else:
            s_tile = s[:, lo:hi]
        scratch = work[3][:, :w]
        block = scratch[:, :m]
        # numpy's pairwise sum has a fixed order; np.dot's BLAS sum is
        # split by thread count, so its last bits depend on the host
        if lemma:
            np.add.reduce(np.multiply(lemma_wgt[lo:lo + m], s_tile[:, :m],
                                      out=block), axis=1, out=leaf[t, 0])
            if lo <= k - 2 < hi:
                s_last[:] = s_tile[:, k - 2 - lo]
        if tau or remainders:
            wgt = ejg[lo:lo + m]
        if tau:
            np.add.reduce(np.multiply(wgt, xi_rev[:, :m], out=block),
                          axis=1, out=leaf[t, 1])
            np.add.reduce(np.multiply(wgt, s_tile[:, :m], out=block),
                          axis=1, out=leaf[t, 2])
        if not remainders:
            continue
        x = np.multiply(xi_rev, alpha, out=xi_rev)
        x += gamma
        if root != 1.0:                  # dividing by 1.0 is exact
            x /= root
        a_s = np.multiply(s_tile, alpha / root, out=work[1][:, :w])
        log1p_x = work[2][:, :w]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(x, out=log1p_x)
            # R3, the product-form log remainder: cumulative log(1+x) - x
            r3 = np.subtract(log1p_x, x, out=x)
            _cumsum_rows(r3, carry[1], lo == 0, r3)
        _cumsum_rows(log1p_x, carry[2], lo == 0, log1p_x)
        r2 = _expm1_minus_x(a_s, out=log1p_x)
        if hi == k:
            a_s_last[:] = a_s[:, -1]

        np.abs(r2, out=scratch)
        scratch.max(axis=1, out=maxima[0, :, t])
        c = max(2 - lo, 0)               # R2's scale starts at column 2
        np.divide(scratch[:, c:], lil[lo + c - 2:hi - 2], out=scratch[:, c:])
        scratch[:, c:].max(axis=1, out=maxima[1, :, t])
        np.abs(r3, out=scratch)
        np.divide(scratch, j[lo:hi], out=scratch)
        scratch.max(axis=1, out=maxima[2, :, t])

        # on explosive classical rows these overflow; the components are
        # checked below
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.add(a_s[:, :m], 1.0, out=a_s[:, :m])
            np.add.reduce(np.multiply(base, wgt, out=block), axis=1,
                          out=leaf[t, 5])
            np.add.reduce(np.multiply(r2[:, :m], wgt, out=block), axis=1,
                          out=leaf[t, 4])
            base += r2[:, :m]
            np.expm1(r3[:, :m], out=block)
            block *= base
            block *= wgt
            np.add.reduce(block, axis=1, out=leaf[t, 3])

    sums = dict(zip(("lemma", "tau", "tau_star", "inner2", "inner3",
                     "inner4"), _tree_sum(iter(leaf), k - 1, cap)))
    values = {}
    if lemma:
        scale = k if mode == LITERAL else params.n
        gap = sums["lemma"] - s_last
        values["lemma"] = gap * gap / scale
    if tau:
        quarter = k ** 0.25 if mode == LITERAL else 1.0
        values["tau_coupling"] = (sums["tau"] / quarter,
                                  sums["tau_star"] / root)
    if remainders:
        with np.errstate(over="ignore", invalid="ignore"):
            # R1 from its exact identity: e^{-k g} prod - 1 - a S_k
            r1 = np.expm1(carry[2] - k * g_eff) - a_s_last
        values["remainders"] = _decomposition_reports(
            params, k, mode, carry[2], sums, r1, np.max(maxima, axis=2))
    return values


def _decomposition_reports(params: GarchParams, k: int, mode: str,
                           log_prod: np.ndarray, sums: dict, r1: np.ndarray,
                           maxima: np.ndarray) -> List[DecompositionReport]:
    """One DecompositionReport per row from the log product of its k
    factors, its inner sums, R1 and its three remainder maxima."""
    omega = params.omega
    pre = 0.5 * k * math.log(k) if mode == LITERAL else 0.0

    def first(lp: float):
        """sigma_0^2 e^lp, or its (log magnitude, sign) in literal mode."""
        if mode == LITERAL:
            return (math.log(params.sigma0_sq) + pre + lp, 1.0)
        try:
            return params.sigma0_sq * math.exp(lp)
        except OverflowError:
            return math.inf

    def component(inner: float):
        """omega * inner, or its (log magnitude, sign) in literal mode."""
        if mode == CLASSICAL:
            return omega * inner
        if inner == 0.0:
            return (-math.inf, 0.0)
        return (math.log(omega) + pre + math.log(abs(inner)),
                math.copysign(1.0, inner))

    reports = []
    for row, (lp, i2, i3, i4, *remainders) in enumerate(zip(*(
            a.tolist() for a in (log_prod, sums["inner2"], sums["inner3"],
                                 sums["inner4"], r1, *maxima)))):
        comps = (first(lp), component(i2), component(i3), component(i4))
        if mode == CLASSICAL and not all(map(math.isfinite, comps)):
            raise DecompositionOverflow(
                f"classical decomposition overflows at k={k}", row,
                "a component exceeds the float range; literal mode keeps "
                "the components as log magnitudes")
        reports.append(DecompositionReport(k, mode, comps, *remainders,
                                           prefactor_log=pre))
    return reports


def export_path_csv(path: GarchPath, fh: IO[str]) -> None:
    fh.write("t,eps,u,sigma_sq,log_sigma_sq\n")
    for t in range(path.n + 1):
        fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (
            t, path.eps[t], path.u[t], path.sigma_sq[t], path.log_sigma_sq[t]))
