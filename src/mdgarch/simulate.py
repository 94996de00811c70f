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
from typing import IO, List, Optional, Sequence, Tuple

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
    (j <= k-1), read-only; one set per run."""
    j = np.arange(1, k + 1, dtype=float)
    lil = np.maximum(np.log(np.log(j[2:])), 0.1) * j[2:]
    with np.errstate(over="ignore"):     # inf: see decompose_rows
        ejg = np.exp(g_eff * j[:k - 1])
    for table in (j, lil, ejg):
        table.flags.writeable = False
    return j, lil, ejg


def decompose_rows(xi: np.ndarray, params: GarchParams, k: int, mode: str,
                   s: Optional[np.ndarray] = None,
                   work: Optional[Sequence[np.ndarray]] = None
                   ) -> List[DecompositionReport]:
    """decompose_volatility of each row of a xi block (rows, m >= k).

    s, when given, is the reversed prefix sum
    np.cumsum(xi[:, k-1::-1], axis=1), shared with the other path
    diagnostics; otherwise it is computed here.  work, when given, is
    four float arrays of shape (rows, k) that the temporaries are
    written to, so that a caller can reuse them across blocks; otherwise
    they are allocated here.  work[0] may be the array holding
    xi[:, k-1::-1] (the same memory and strides) and work[1] may be s:
    each is read only element by element into itself (x = alpha xi +
    gamma, then alpha S_j) before anything else is written there, so a
    caller that has no further use of xi and s saves two arrays.  Raises
    DecompositionOverflow, naming the first row, when a classical
    component is not finite.
    """
    alpha, gamma, omega = params.alpha_n, params.gamma_n, params.omega
    xi_rev = xi[:, k - 1::-1]            # xi_{k-1}, ..., xi_0
    if s is None:
        s = np.cumsum(xi_rev, axis=1)    # S_j
    root = math.sqrt(k) if mode == LITERAL else 1.0
    g_eff = gamma / root
    j, lil, ejg = _decompose_weights(g_eff, k)

    # four (rows, k) buffers, each reused through out= once spent (x, then
    # R3; log(1+x), then R2; alpha S_j, then its base; one scratch).  At
    # k = 8e4 each holds 640 KB, and every fresh one glibc trims from its
    # heap is page-faulted in again on the next row: hence `work`
    if work is None:
        work = np.empty((4,) + xi_rev.shape)
    x, a_s, log1p_x, scratch = work
    np.multiply(xi_rev, alpha, out=x)
    x += gamma
    if root != 1.0:                      # dividing by 1.0 is exact
        x /= root
    np.multiply(s, alpha / root, out=a_s)   # alpha S_j

    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(x, out=log1p_x)
        # R3, the product-form log remainder: cumulative log(1+x) - x
        r3 = np.subtract(log1p_x, x, out=x)
        # row by row: numpy's cumsum releases the GIL on 1-D arrays only
        for row in r3:
            np.cumsum(row, out=row)
    for row in log1p_x:
        np.cumsum(row, out=row)
    log_prod = log1p_x[:, -1].copy()
    r2 = _expm1_minus_x(a_s, out=log1p_x)

    np.abs(r2, out=scratch)
    r2_max = np.max(scratch, axis=1)
    r2_lil_max = np.max(
        np.divide(scratch[:, 2:], lil, out=scratch[:, 2:]), axis=1)
    np.abs(r3, out=scratch)
    r3_rel_max = np.max(np.divide(scratch, j, out=scratch), axis=1)

    # numpy's pairwise sum has a fixed order; np.dot's BLAS sum is split
    # by thread count, so its last bits depend on the host.  On explosive
    # classical rows these overflow; the components are checked below
    block = scratch[:, :k - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # R1 from its exact identity: e^{-k g} prod - 1 - a S_k
        r1 = np.expm1(log_prod - k * g_eff) - a_s[:, -1]
        base = np.add(a_s[:, :k - 1], 1.0, out=a_s[:, :k - 1])
        inner4 = np.add.reduce(np.multiply(base, ejg, out=block), axis=1)
        inner3 = np.add.reduce(np.multiply(r2[:, :k - 1], ejg, out=block),
                               axis=1)
        base += r2[:, :k - 1]
        np.expm1(r3[:, :k - 1], out=block)
        block *= base
        block *= ejg
        inner2 = np.add.reduce(block, axis=1)

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
            a.tolist() for a in (log_prod, inner2, inner3, inner4,
                                 r1, r2_max, r2_lil_max, r3_rel_max)))):
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
