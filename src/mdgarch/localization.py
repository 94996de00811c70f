"""Localized GARCH parameter schemes and regime classification.

A scheme maps the sample size n to concrete coefficients:

    alpha_n = c_alpha * n^{-p},   gamma_n = c_gamma * n^{-kappa},
    beta_n  = 1 + gamma_n - alpha_n.

The sign of c_gamma selects the regime: negative is near-stationary,
zero is integrated, positive is near-explosive.

``realize_params`` refuses (``InfeasibleScheme``) a scheme with
c_gamma != 0 whose gamma_n leaves no trace in beta_n, i.e.
beta_n == 1 - alpha_n in floating point: gamma_n underflowed to 0, or
is too small to change 1 + gamma_n.  Such a run would be classified by
the sign of c_gamma while the recursion simulates an integrated
process.  Every accepted scheme therefore has a gamma_n that is nonzero
exactly when c_gamma is, with the sign of c_gamma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence


class InfeasibleScheme(ValueError):
    pass


class Regime(enum.Enum):
    NEAR_STATIONARY = "near-stationary"
    INTEGRATED = "integrated"
    NEAR_EXPLOSIVE = "near-explosive"


@dataclass(frozen=True)
class LocalizationScheme:
    omega: float
    sigma0_sq: float
    c_alpha: float
    p: float
    c_gamma: float
    kappa: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise InfeasibleScheme("omega must be finite and > 0")
        if not 0.0 < self.sigma0_sq < math.inf:
            raise InfeasibleScheme("sigma0_sq must be finite and > 0")
        if not 0.0 < self.c_alpha < math.inf:
            raise InfeasibleScheme("c_alpha must be finite and > 0")
        if not math.isfinite(self.c_gamma):
            raise InfeasibleScheme("c_gamma must be finite")
        if not 0.0 < self.p < 1.0:
            raise InfeasibleScheme("p must lie in (0, 1)")
        if self.c_gamma != 0.0 and not 0.0 < self.kappa < 1.0:
            raise InfeasibleScheme("kappa must lie in (0, 1)")

    def to_config(self) -> dict:
        return {"omega": self.omega, "sigma0_sq": self.sigma0_sq,
                "c_alpha": self.c_alpha, "p": self.p,
                "c_gamma": self.c_gamma, "kappa": self.kappa}

    @staticmethod
    def from_config(cfg: dict) -> "LocalizationScheme":
        return LocalizationScheme(
            omega=cfg["omega"], sigma0_sq=cfg["sigma0_sq"],
            c_alpha=cfg["c_alpha"], p=cfg["p"],
            c_gamma=cfg["c_gamma"], kappa=cfg.get("kappa", 0.5))


@dataclass(frozen=True)
class GarchParams:
    n: int
    alpha_n: float
    beta_n: float
    gamma_n: float
    omega: float
    sigma0_sq: float


def realize_params(scheme: LocalizationScheme, n: int) -> GarchParams:
    if n < 2:
        raise InfeasibleScheme("n must be >= 2")
    alpha = scheme.c_alpha * n ** (-scheme.p)
    gamma = 0.0 if scheme.c_gamma == 0.0 else scheme.c_gamma * n ** (-scheme.kappa)
    beta = 1.0 + gamma - alpha
    if scheme.c_gamma != 0.0 and beta == 1.0 - alpha:
        raise InfeasibleScheme(
            f"gamma_n = {gamma} is lost in beta_n = 1 + gamma_n - alpha_n "
            f"at n = {n}: the regime of c_gamma = {scheme.c_gamma} cannot "
            f"be simulated")
    if beta < 0.0:
        raise InfeasibleScheme(
            f"beta_n = {beta} < 0: scheme infeasible at n = {n}")
    return GarchParams(n=n, alpha_n=alpha, beta_n=beta, gamma_n=gamma,
                       omega=scheme.omega, sigma0_sq=scheme.sigma0_sq)


def classify_regime(params: GarchParams) -> Regime:
    # realize_params refuses a nonzero c_gamma whose gamma_n leaves no
    # trace in beta_n, so gamma_n is zero exactly when c_gamma is and
    # otherwise has its sign: a sign test cannot misclassify.
    if params.gamma_n < 0.0:
        return Regime.NEAR_STATIONARY
    if params.gamma_n > 0.0:
        return Regime.NEAR_EXPLOSIVE
    return Regime.INTEGRATED


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric diagnostics on an n-grid plus analytic verdicts.

    The analytic verdicts come from exponent arithmetic (convergence can
    never be confirmed from finitely many n); the grid rows are for
    display and trend sanity checks.

    ns_centering_offset_vanishes is a verdict of its own beside the coded
    near-stationary condition, whose n^{1/4} form is literal mode's.  It
    holds when p < 3 kappa / 2, that is |gamma_n|^{3/2} / alpha_n -> 0,
    and ensures that the classical centering offset vanishes: the mean
    of the classical near-stationary volatility statistic, about
    (|c_gamma|^{3/2} / (2 c_alpha)) n^{p - 3 kappa / 2} for normal
    innovations, tends to 0.
    """

    n_grid: tuple
    rows: tuple  # per-n dicts of the five rate diagnostics
    regime: Regime
    rate_bound_holds: bool          # alpha log log n -> 0 and n alpha -> inf
    ns_rate_condition_holds: bool   # only meaningful when near-stationary
    ns_centering_offset_vanishes: bool  # p < 3 kappa / 2
    ne_rate_condition_holds: bool   # only meaningful when near-explosive


def check_assumptions(scheme: LocalizationScheme,
                      n_grid: Sequence[int]) -> AssumptionReport:
    if len(n_grid) < 3:
        raise ValueError("n_grid must have at least 3 points")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")

    rows = []
    for n in n_grid:
        params = realize_params(scheme, n)
        a, g = params.alpha_n, params.gamma_n
        rows.append({
            "n": n,
            "alpha_loglog_n": a * math.log(math.log(n)),
            "n_alpha": n * a,
            "sqrt_abs_gamma_over_alpha_n14": math.sqrt(abs(g)) / (a * n ** 0.25),
            "abs_gamma_32_over_alpha_n14": abs(g) ** 1.5 / (a * n ** 0.25),
            "gamma_over_alpha": g / a,
        })

    p, k = scheme.p, scheme.kappa
    regime = classify_regime(realize_params(scheme, n_grid[-1]))
    rate_bound = 0.0 < p < 1.0
    ns_ok = (k / 2.0 + 0.25 < p < 1.5 * k + 0.25)
    ne_ok = k > p
    return AssumptionReport(
        n_grid=tuple(n_grid), rows=tuple(rows), regime=regime,
        rate_bound_holds=rate_bound,
        ns_rate_condition_holds=ns_ok,
        ns_centering_offset_vanishes=p < 1.5 * k,
        ne_rate_condition_holds=ne_ok,
    )
