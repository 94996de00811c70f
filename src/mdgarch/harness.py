"""Monte Carlo experiment orchestration.

Replications are keyed to (master_seed, replication_id) streams, so the
report is a pure function of the config and seed; every reduction sorts
its inputs first, which makes the result independent of replication
order and hence of any scheduling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import gof, limits
from .innovations import (InnovationSpec, RngStream, innovation_cdf,
                          sample_innovations, validate_spec,
                          xi_second_moment)
from .kernels import recursion_batch
from .localization import (GarchParams, LocalizationScheme, Regime,
                           classify_regime, realize_params)
from .simulate import (CLASSICAL, LITERAL, MODES, DecompositionReport,
                       decompose_rows)
from .stats import (CancellationError, CheckpointGrid, checkpoint_returns,
                    int_return_stats, int_volatility_stats, lemma_rows,
                    ne_return_stats, ne_volatility_stats, ns_return_stats,
                    ns_volatility_stats, tau_rows)

ALL_TESTS = ("vol_gof", "ret_gof", "independence", "lemma", "remainders",
             "tau_coupling")
GOF_TESTS = frozenset({"vol_gof", "ret_gof"})

# diagnostic checkpoint for lemma / remainder / tau sweeps
DIAG_FRACTION = 0.8
# the path diagnostics run over blocks of replications whose (rows, k)
# temporaries hold about this many doubles (256 KiB) each
DIAG_BLOCK = 2 ** 15

# stream index block reserved for reference-law sampling
_REF_STREAM_BASE = 2 ** 32
# reference draws for the QQ data of `mdgarch diagnose`
QQ_REF_STREAM = _REF_STREAM_BASE + 1


@dataclass(frozen=True)
class RegimeSpec:
    """What the harness and CLI do differently in each regime."""

    # (sigma_sq, log_sigma_sq, params, n, k, xi_var, mode) -> StatArray
    vol_stats: Callable
    # (u, log_abs_u, params, k, mode) -> StatArray
    ret_stats: Callable
    reference: str  # limit law of the volatility statistics
    # (t_values, reps, stream) -> LimitSample; None for the iid standard
    # normal law, which is tested against its CDF instead
    sample_reference: Optional[Callable]
    # raw statistics are the independent objects in the near-stationary
    # limit; in the Wiener-type limits independence lives in increments
    independence_basis: str
    diagnostic: Optional[str]  # proof-device test valid only here


# the samplers are looked up on `limits` per call, so wrappers installed
# there (perfbench's tracer) see them
REGIMES = {
    Regime.NEAR_STATIONARY: RegimeSpec(
        ns_volatility_stats, ns_return_stats, limits.STD_NORMAL_IID, None,
        "statistics", "tau_coupling"),
    Regime.INTEGRATED: RegimeSpec(
        int_volatility_stats, int_return_stats, limits.TIME_WEIGHTED_WIENER,
        lambda *args: limits.sample_time_weighted_wiener(*args),
        "increments", None),
    Regime.NEAR_EXPLOSIVE: RegimeSpec(
        ne_volatility_stats, ne_return_stats, limits.WIENER_MARGINALS,
        lambda *args: limits.sample_wiener_marginals(*args),
        "increments", "lemma"),
}


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class McConfig:
    scheme: LocalizationScheme
    innovation: InnovationSpec
    n: int
    grid: CheckpointGrid
    reps: int
    master_seed: int
    mode: str = CLASSICAL
    tests: Tuple[str, ...] = ("vol_gof", "ret_gof", "independence")
    level: float = gof.DEFAULT_LEVEL

    def to_config(self) -> dict:
        return {
            "scheme": self.scheme.to_config(),
            "innovation": self.innovation.to_config(),
            "grid": {"t_values": list(self.grid.t_values)},
            "run": {"n": self.n, "reps": self.reps,
                    "master_seed": self.master_seed, "mode": self.mode,
                    "tests": list(self.tests), "level": self.level},
        }

    @staticmethod
    def from_config(cfg: dict) -> "McConfig":
        try:
            run = cfg["run"]
            return McConfig(
                scheme=LocalizationScheme.from_config(cfg["scheme"]),
                innovation=InnovationSpec.from_config(cfg["innovation"]),
                n=int(run["n"]),
                grid=CheckpointGrid(tuple(cfg["grid"]["t_values"])),
                reps=int(run["reps"]),
                master_seed=int(run["master_seed"]),
                mode=run.get("mode", CLASSICAL),
                tests=tuple(run.get("tests",
                                    ("vol_gof", "ret_gof", "independence"))),
                level=float(run.get("level", gof.DEFAULT_LEVEL)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid config: {exc}") from exc


@dataclass
class McReport:
    config: dict
    regime: str
    checkpoints: Tuple[int, ...]
    results: Dict[str, dict]
    moments: Tuple[dict, ...]
    master_seed: int
    verdict: bool
    # raw per-replication statistic matrices, not serialized
    vol_stats: Optional[np.ndarray] = field(default=None, repr=False)
    ret_stats: Optional[np.ndarray] = field(default=None, repr=False)
    # per-replication decompositions at the diagnostic checkpoint (the
    # "remainders" test only), not serialized
    decompositions: Optional[Sequence[DecompositionReport]] = field(
        default=None, repr=False)

    def to_json(self) -> str:
        doc = {"config": self.config, "regime": self.regime,
               "checkpoints": list(self.checkpoints),
               "results": self.results,
               "moments": list(self.moments),
               "master_seed": self.master_seed,
               "verdict": self.verdict}
        return json.dumps(doc, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "McReport":
        doc = json.loads(text)
        return McReport(config=doc["config"], regime=doc["regime"],
                        checkpoints=tuple(doc["checkpoints"]),
                        results=doc["results"],
                        moments=tuple(doc["moments"]),
                        master_seed=doc["master_seed"],
                        verdict=doc["verdict"])

    def stats_csv(self) -> str:
        if self.vol_stats is None:
            raise ValueError("raw statistics were not retained")
        lines = ["rep,checkpoint_k,vol_stat,ret_stat"]
        for i in range(self.vol_stats.shape[0]):
            for m, k in enumerate(self.checkpoints):
                lines.append("%d,%d,%.17g,%.17g" % (
                    i, k, self.vol_stats[i, m], self.ret_stats[i, m]))
        return "\n".join(lines) + "\n"


def validate_config(config: McConfig) -> GarchParams:
    if config.mode not in MODES:
        raise ConfigurationError(f"unknown mode {config.mode!r}")
    unknown = set(config.tests) - set(ALL_TESTS)
    if unknown:
        raise ConfigurationError(f"unknown tests: {sorted(unknown)}")
    if config.mode == LITERAL and GOF_TESTS & set(config.tests):
        raise ConfigurationError(
            "literal mode is diagnostic-only; GOF tests require classical")
    if GOF_TESTS & set(config.tests) and config.reps < 100:
        raise ConfigurationError("GOF tests need reps >= 100")
    if config.reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if not 0.0 < config.level < 1.0:
        raise ConfigurationError("level must lie in (0, 1)")
    try:
        validate_spec(config.innovation)
        params = realize_params(config.scheme, config.n)
        config.grid.checkpoints(config.n)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    regime = classify_regime(params)
    for home, spec in REGIMES.items():
        if spec.diagnostic in config.tests and home is not regime:
            raise ConfigurationError(
                f"{spec.diagnostic} test requires the {home.value} regime")
    if "ret_gof" in config.tests and config.innovation.kind == "two-point-mixture":
        raise ConfigurationError(
            "ret_gof needs a continuous innovation law (discrete CDF)")
    return params


def _simulate_chunked(config: McConfig, params: GarchParams, keep):
    """Yield (first_rep_index, eps, sigma_sq, log_sigma_sq, overflow),
    the two tracks at the time indices keep only."""
    n = config.n
    chunk = max(1, int(4e7 // (n + 1)))
    for start in range(0, config.reps, chunk):
        stop = min(start + chunk, config.reps)
        eps = np.empty((stop - start, n + 1))
        for i in range(start, stop):
            stream = RngStream(config.master_seed, i)
            eps[i - start] = sample_innovations(config.innovation, n + 1,
                                                stream)
        yield (start, eps) + recursion_batch(
            eps, params.omega, params.alpha_n, params.beta_n,
            params.sigma0_sq, keep=keep)
        # release this chunk before the next one is drawn
        del eps


def _sorted_mean(values: np.ndarray) -> float:
    return math.fsum(np.sort(values)) / len(values)


def _sorted_median(values: np.ndarray) -> float:
    return float(np.median(np.sort(values)))


def diag_checkpoint(n: int) -> int:
    """The checkpoint k of the lemma / remainder / tau diagnostics."""
    return max(3, int(math.floor(DIAG_FRACTION * n)))


def independence_threshold(reps: int) -> float:
    # 3/sqrt(reps) null bound plus a small slack for estimation noise
    return 3.0 / math.sqrt(reps) + 0.003


def run_experiment(config: McConfig, vol_shift: float = 0.0) -> McReport:
    """Run one Monte Carlo experiment.

    vol_shift adds a constant to every volatility statistic before
    testing; it exists only as fault injection for the CLI self-test
    (--corrupt-centering) and must be 0 in real runs.
    """
    params = validate_config(config)
    regime = classify_regime(params)
    spec = REGIMES[regime]
    n, reps, mode = config.n, config.reps, config.mode
    ks = config.grid.checkpoints(n)
    xi_var = xi_second_moment(config.innovation)
    k_diag = diag_checkpoint(n)

    # checkpoint rows: (checkpoint, replication)
    sigma_k = np.empty((len(ks), reps))
    log_sigma_k = np.empty((len(ks), reps))
    eps_k = np.empty((len(ks), reps))
    need_paths = {"lemma", "remainders", "tau_coupling"} & set(config.tests)
    diag_rows = max(1, DIAG_BLOCK // k_diag)
    lemma_vals = np.empty(reps) if "lemma" in config.tests else None
    tau_vals = np.empty(reps) if "tau_coupling" in config.tests else None
    decomps = [] if "remainders" in config.tests else None

    for start, eps, sigma_sq, log_sigma_sq, _ in \
            _simulate_chunked(config, params, ks):
        rows = slice(start, start + eps.shape[0])
        sigma_k[:, rows] = sigma_sq.T
        log_sigma_k[:, rows] = log_sigma_sq.T
        eps_k[:, rows] = eps[:, ks].T
        for a in range(0, eps.shape[0] if need_paths else 0, diag_rows):
            xi = eps[a:a + diag_rows] ** 2 - 1.0
            block = slice(start + a, start + a + xi.shape[0])
            if lemma_vals is not None:
                lemma_vals[block] = lemma_rows(xi, params, k_diag, mode)
            if tau_vals is not None:
                g = params.gamma_n
                tau, tau_star = tau_rows(xi, params, k_diag, mode)
                gap = (math.sqrt(2.0 * abs(g) ** 3) * tau_star
                       - math.sqrt(2.0 * abs(g)) * tau)
                # Python's float power; numpy's x * x differs in last bits
                tau_vals[block] = [v ** 2 for v in gap.tolist()]
            if decomps is not None:
                decomps.extend(decompose_rows(xi, params, k_diag, mode))
        # release this chunk before the next one is drawn
        del eps, sigma_sq, log_sigma_sq

    def checkpoint_stats(m, k, r=slice(None)):
        s, ls = sigma_k[m, r], log_sigma_k[m, r]
        return (spec.vol_stats(s, ls, params, n, k, xi_var, mode).value,
                spec.ret_stats(*checkpoint_returns(s, ls, eps_k[m, r]),
                               params, k, mode).value)

    vol, ret = np.empty((reps, len(ks))), np.empty((reps, len(ks)))
    for m, k in enumerate(ks):
        try:
            vol[:, m], ret[:, m] = checkpoint_stats(m, k)
        except CancellationError as exc:
            # a batch raises when any element cancels; name the first
            where = f"checkpoint k={k}"
            for i in range(reps):
                try:
                    checkpoint_stats(m, k, slice(i, i + 1))
                except CancellationError:
                    where += f", replication {i}"
                    break
            raise CancellationError(f"{where}: {exc}") from exc
    if vol_shift != 0.0:
        vol = vol + vol_shift

    results: Dict[str, dict] = {}
    if "vol_gof" in config.tests:
        results["vol_gof"] = _vol_gof(config, spec, ks, vol)
    if "ret_gof" in config.tests:
        results["ret_gof"] = _ret_gof(config, ks, ret)
    if "independence" in config.tests:
        results["independence"] = _independence(config, spec, vol)
    if lemma_vals is not None:
        results["lemma"] = {"k": k_diag, "mean": _sorted_mean(lemma_vals),
                            "pass": True}
    if tau_vals is not None:
        results["tau_coupling"] = {"k": k_diag,
                                   "estimate": _sorted_mean(tau_vals),
                                   "pass": True}
    if decomps is not None:
        rem = np.array([(abs(d.r1), d.r2_max, d.r2_lil_max, d.r3_rel_max)
                        for d in decomps])
        results["remainders"] = {
            "k": k_diag,
            "r1_abs_median": _sorted_median(rem[:, 0]),
            "r2_max_median": _sorted_median(rem[:, 1]),
            "r2_lil_median": _sorted_median(rem[:, 2]),
            "r3_rel_median": _sorted_median(rem[:, 3]),
            "pass": True,
        }

    moments = tuple(
        {"k": k,
         "vol_mean": _sorted_mean(vol[:, m]),
         "vol_sd": float(np.std(np.sort(vol[:, m]))),
         "ret_mean": _sorted_mean(ret[:, m]),
         "ret_sd": float(np.std(np.sort(ret[:, m])))}
        for m, k in enumerate(ks))

    verdict = all(entry["pass"] for entry in results.values())
    return McReport(config=config.to_config(), regime=regime.value,
                    checkpoints=ks, results=results, moments=moments,
                    master_seed=config.master_seed, verdict=verdict,
                    vol_stats=vol, ret_stats=ret, decompositions=decomps)


def _gof_entry(res: gof.GofResult, k: int) -> dict:
    return {"k": k, "D": res.statistic, "p": res.p_value, "pass": res.passed}


def _vol_gof(config: McConfig, spec: RegimeSpec, ks, vol) -> dict:
    if spec.sample_reference is None:
        per = [_gof_entry(gof.ks_one_sample(
            vol[:, m], np.vectorize(limits.normal_cdf), config.level), k)
            for m, k in enumerate(ks)]
    else:
        ref = spec.sample_reference(
            config.grid.t_values, config.reps,
            RngStream(config.master_seed, _REF_STREAM_BASE))
        per = [_gof_entry(gof.ks_two_sample(vol[:, m], ref.draws[:, m],
                                            config.level), k)
               for m, k in enumerate(ks)]
    return {"reference": spec.reference, "per_checkpoint": per,
            "pass": all(e["pass"] for e in per)}


def _ret_gof(config: McConfig, ks, ret) -> dict:
    cdf = innovation_cdf(config.innovation)
    per = [_gof_entry(gof.ks_one_sample(ret[:, m], cdf, config.level), k)
           for m, k in enumerate(ks)]
    return {"reference": "innovation", "per_checkpoint": per,
            "pass": all(e["pass"] for e in per)}


def _independence(config: McConfig, spec: RegimeSpec, vol) -> dict:
    basis = spec.independence_basis
    matrix = vol if basis == "statistics" else np.diff(vol, axis=1)
    if matrix.shape[1] < 2:
        return {"basis": basis, "max_abs_corr": 0.0,
                "threshold": independence_threshold(config.reps),
                "pass": True}
    max_corr = gof.max_offdiag_abs_correlation(matrix)
    thr = independence_threshold(config.reps)
    return {"basis": basis, "max_abs_corr": max_corr, "threshold": thr,
            "pass": max_corr < thr}


def _factor_band(values: Sequence[float]) -> dict:
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo > 0.0 else math.inf
    return {"min": lo, "max": hi, "ratio": ratio,
            "within_factor_3": ratio <= 3.0}


def run_n_sweep(config: McConfig,
                n_grid: Sequence[int]) -> Tuple[Tuple[McReport, ...], dict]:
    """One report per n (shared scheme) plus trend diagnostics."""
    if len(n_grid) < 3:
        raise ConfigurationError("n_grid must have at least 3 points")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigurationError("n_grid must be strictly increasing")
    reports = []
    for n in n_grid:
        cfg = McConfig(scheme=config.scheme, innovation=config.innovation,
                       n=int(n), grid=config.grid, reps=config.reps,
                       master_seed=config.master_seed, mode=config.mode,
                       tests=config.tests, level=config.level)
        reports.append(run_experiment(cfg))

    trend: Dict[str, dict] = {"n_grid": {"values": [int(n) for n in n_grid]}}
    if "lemma" in config.tests:
        means = [r.results["lemma"]["mean"] for r in reports]
        trend["lemma"] = {
            "means": means,
            "strictly_decreasing": all(b < a for a, b in zip(means, means[1:])),
        }
    if "remainders" in config.tests:
        r2_scaled, r3_scaled = [], []
        for n, r in zip(n_grid, reports):
            p = realize_params(config.scheme, int(n))
            e = r.results["remainders"]
            k = e["k"]
            r2_scaled.append(e["r2_max_median"] / p.alpha_n ** 2)
            r3_scaled.append(e["r3_rel_median"] * k
                             / (p.alpha_n ** 2 + p.gamma_n ** 2))
        trend["remainders"] = {"r2_over_alpha_sq": _factor_band(r2_scaled),
                               "r3_scaled": _factor_band(r3_scaled)}
    if "tau_coupling" in config.tests:
        est = [r.results["tau_coupling"]["estimate"] for r in reports]
        trend["tau_coupling"] = {
            "estimates": est,
            "strictly_decreasing": all(b < a for a, b in zip(est, est[1:])),
        }
    return tuple(reports), trend


def sweep_verdict(reports: Sequence[McReport], trend: dict) -> bool:
    """True when every report passes and every trend check of
    run_n_sweep holds (decreasing lemma/tau means, remainder bands within
    a factor of 3)."""
    ok = all(r.verdict for r in reports)
    for key in ("lemma", "tau_coupling"):
        if key in trend:
            ok = ok and trend[key]["strictly_decreasing"]
    if "remainders" in trend:
        ok = ok and all(band["within_factor_3"]
                        for band in trend["remainders"].values())
    return ok
