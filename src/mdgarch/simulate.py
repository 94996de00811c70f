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

import math
from dataclasses import dataclass
from typing import IO, Optional, Tuple

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
    # None on the harness's diagnostic paths, which carry only eps and xi
    u: Optional[np.ndarray]             # returns sigma_t * eps_t
    sigma_sq: Optional[np.ndarray]      # sigma_0^2 given; inf past an overflow
    log_sigma_sq: Optional[np.ndarray]  # always finite, exact in log space
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
    inner4 = float(np.dot(ejg, base))
    inner3 = float(np.dot(ejg, r2[:k - 1]))
    inner2 = float(np.dot(ejg, (base + r2[:k - 1]) * np.expm1(r3[:k - 1])))

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


def export_path_csv(path: GarchPath, fh: IO[str]) -> None:
    fh.write("t,eps,u,sigma_sq,log_sigma_sq\n")
    for t in range(path.n + 1):
        fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (
            t, path.eps[t], path.u[t], path.sigma_sq[t], path.log_sigma_sq[t]))
