"""Monte Carlo experiment orchestration.

Replications are keyed to (master_seed, replication_id) streams, so the
report is a pure function of the config and seed; every reduction sorts
its inputs first, which makes the result independent of replication
order and hence of any scheduling.

Replications run in chunks of at most ``CHUNK_ROWS`` rows.  A chunk
keeps one generator per replication and streams its innovations through
the kernel in time blocks: each block is drawn into one reused (rows,
columns) buffer and advances the recursion's state
(``kernels.Recursion``), and only the checkpoint columns (sigma^2, log
sigma^2 and eps_k) are kept.  The blocks split [0, k] evenly, each of
about ``BLOCK_DRAWS`` innovations (``_block_width``), a rule of the rows
and k alone.  No statistic reads an innovation past the last checkpoint
k, so the kernel pass draws and steps the columns [0, k] only; n still
sets alpha_n, beta_n and every normalization.

The path diagnostics (lemma, tau, decomposition), which read the
innovations [0, k_diag) of each replication, are a pass of their own
before the kernel pass: they re-seed the chunk's generators and redraw
[0, k_diag) for a block of ``DIAG_BLOCK // k_diag`` rows at a time into
(rows, k_diag) arrays that each thread maps on its first block and
reuses.  That costs k_diag more draws per replication and holds no
(rows, k_diag) window, so memory scales with the rows times the block
width, never with rows x n.  The arrays are unmapped when the pass
ends, so the kernel pass never holds them beside its time block.

Sampling (a slice of a time block's rows each) and the path diagnostics
(one diagnostic block each) run over row blocks of a chunk, shared by as
many threads as the CPUs the process may use (``kernels.map_row_blocks``);
the kernel runs on the calling thread.  Each replication is computed the
same way in any chunk, row block, time block and thread, so the report
bytes depend on neither the worker count nor the block sizes.
"""

from __future__ import annotations

import json
import math
import mmap
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import gof, limits
from .innovations import (InnovationSpec, RngStream, innovation_cdf,
                          sample_innovations, stream_generators,
                          validate_spec, xi_second_moment)
from .kernels import Recursion, map_row_blocks
from .localization import (GarchParams, LocalizationScheme, Regime,
                           classify_regime, realize_params)
from .simulate import (CLASSICAL, LITERAL, MODES, DecompositionReport,
                       NumericalBreakdown, decompose_rows)
from .stats import (CheckpointGrid, checkpoint_returns,
                    int_return_stats, int_volatility_stats, lemma_rows,
                    ne_return_stats, ne_volatility_stats, ns_return_stats,
                    ns_volatility_stats, tau_rows)

ALL_TESTS = ("vol_gof", "ret_gof", "independence", "lemma", "remainders",
             "tau_coupling")
GOF_TESTS = frozenset({"vol_gof", "ret_gof"})

# diagnostic checkpoint for lemma / remainder / tau sweeps
DIAG_FRACTION = 0.8
# the path diagnostics run over blocks of replications whose (rows, k)
# arrays (six per thread in one memory map, reused from block to block
# of a chunk's diagnostics pass: the redrawn innovations, xi, its prefix
# sums and the decomposition's temporaries) hold about this many doubles
# (256 KiB) each
DIAG_BLOCK = 2 ** 15
# replications per chunk.  The kernel steps a chunk on one thread at
# 3.5 ns per row and step with 500 rows, 3.2-3.4 ns with 1000-2000 and
# 6.1 ns with 250 (2-vCPU host): more rows step no cheaper
CHUNK_ROWS = 500
# a chunk draws and steps [0, last] in equal time blocks of about this
# many innovations (8 MB): see _block_width
BLOCK_DRAWS = 10 ** 6
# sampling threads take a time block's rows in slices of about this many
# innovations; one row at a time, the two threads queued on the slice
# lock and the GIL (0.18 s against 0.16 s for slices of 16 rows)
DRAW_SLICE = 2 ** 15

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
            tests = run.get("tests", list(McConfig.tests))
            if not isinstance(tests, list):
                raise ConfigurationError(
                    f"run.tests must be a list of test names, got {tests!r}")
            return McConfig(
                scheme=LocalizationScheme.from_config(cfg["scheme"]),
                innovation=InnovationSpec.from_config(cfg["innovation"]),
                n=_run_value(run, "n", int),
                grid=CheckpointGrid(tuple(cfg["grid"]["t_values"])),
                reps=_run_value(run, "reps", int),
                master_seed=_run_value(run, "master_seed", int),
                mode=run.get("mode", McConfig.mode),
                tests=tuple(tests),
                level=_run_value(run, "level", float, McConfig.level),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"invalid config: {exc}") from exc


def _run_value(run: dict, key: str, kind: type, default=None):
    """run[key] (default when it is absent and not None) as kind, the
    key named when refused.  An int takes an integral float (JSON may
    spell 1e5), never a fraction, a non-finite number or a string."""
    value = run[key] if default is None else run.get(key, default)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return float(value) if kind is float else operator.index(value)
    except (TypeError, ValueError):
        what = "a number" if kind is float else "an integer"
        raise ConfigurationError(
            f"run.{key} must be {what}, got {value!r}") from None


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
        # Python floats format as their numpy scalars do, and faster
        for i, (vols, rets) in enumerate(zip(self.vol_stats.tolist(),
                                             self.ret_stats.tolist())):
            for k, v, r in zip(self.checkpoints, vols, rets):
                lines.append("%d,%d,%.17g,%.17g" % (i, k, v, r))
        return "\n".join(lines) + "\n"


def validate_config(config: McConfig) -> GarchParams:
    if config.mode not in MODES:
        raise ConfigurationError(f"unknown mode {config.mode!r}")
    unknown = [t for t in config.tests if t not in ALL_TESTS]
    if unknown:
        raise ConfigurationError(f"unknown tests: {unknown}")
    if config.mode == LITERAL and GOF_TESTS & set(config.tests):
        raise ConfigurationError(
            "literal mode is diagnostic-only; GOF tests require classical")
    if GOF_TESTS & set(config.tests) and config.reps < 100:
        raise ConfigurationError("GOF tests need reps >= 100")
    if "independence" in config.tests and config.reps < 10:
        raise ConfigurationError("the independence test needs reps >= 10")
    if config.reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if config.master_seed < 0:
        raise ConfigurationError("master_seed must be >= 0")
    if not 0.0 < config.level < 1.0:
        raise ConfigurationError("level must lie in (0, 1)")
    try:
        validate_spec(config.innovation)
        params = realize_params(config.scheme, config.n)
        config.grid.checkpoints(config.n)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    except TypeError as exc:
        raise ConfigurationError(f"invalid config value: {exc}") from exc
    regime = classify_regime(params)
    for home, spec in REGIMES.items():
        if spec.diagnostic in config.tests and home is not regime:
            raise ConfigurationError(
                f"{spec.diagnostic} test requires the {home.value} regime")
    if "ret_gof" in config.tests and config.innovation.kind == "two-point-mixture":
        raise ConfigurationError(
            "ret_gof needs a continuous innovation law (discrete CDF)")
    return params


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
    last = ks[-1]  # no statistic reads an innovation past it
    xi_var = xi_second_moment(config.innovation)
    k_diag = diag_checkpoint(n)

    need_paths = {"lemma", "remainders", "tau_coupling"} & set(config.tests)
    diag_rows = max(1, DIAG_BLOCK // k_diag)
    lemma_vals = np.empty(reps) if "lemma" in config.tests else None
    tau_vals = np.empty(reps) if "tau_coupling" in config.tests else None
    decomps = [None] * reps if "remainders" in config.tests else None
    vol, ret = np.empty((reps, len(ks))), np.empty((reps, len(ks)))
    # the diagnostics' (diag_rows, k_diag) arrays, one set per thread: a
    # diagnostic block takes a free set or maps one, and returns it
    spare = []

    # the helpers below read the current chunk: replications start + i,
    # their generators, the current time block and the kept columns
    def draw(rows):
        for i in range(rows.start, rows.stop):
            sample_innovations(config.innovation, block.shape[1], gens[i],
                               out=block[i])

    def diagnose(rows):
        """The path diagnostics of chunk rows `rows`, from their
        innovations [0, k_diag) redrawn from the chunk's generators."""
        try:
            work = spare.pop()
        except IndexError:
            work = _row_array(6 * diag_rows, k_diag).reshape(6, diag_rows, -1)
        eps, xi_rev, s, *temps = work[:, :rows.stop - rows.start]
        for i, row in enumerate(eps, start=rows.start):
            sample_innovations(config.innovation, k_diag, gens[i], out=row)
        # xi_{k-1}, ..., xi_0 and its prefix sums, shared by all three
        np.square(eps[:, ::-1], out=xi_rev)
        xi_rev -= 1.0
        xi = xi_rev[:, ::-1]
        for xi_row, s_row in zip(xi_rev, s):  # 1-D: cumsum drops the GIL
            np.cumsum(xi_row, out=s_row)
        block = slice(start + rows.start, start + rows.stop)
        if lemma_vals is not None:
            lemma_vals[block] = lemma_rows(xi, params, k_diag, mode, s=s)
        if tau_vals is not None:
            g = params.gamma_n
            tau, tau_star = tau_rows(xi, params, k_diag, mode, s=s)
            gap = (math.sqrt(2.0 * abs(g) ** 3) * tau_star
                   - math.sqrt(2.0 * abs(g)) * tau)
            # Python's float power; numpy's x * x differs in last bits
            tau_vals[block] = [v ** 2 for v in gap.tolist()]
        if decomps is not None:
            try:
                # eps, spent once squared, is the fourth temporary
                decomps[block] = decompose_rows(xi, params, k_diag, mode,
                                                s=s, work=temps + [eps])
            except NumericalBreakdown as exc:
                exc.row += block.start
                raise
        spare.append(work)

    for start in range(0, reps, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, reps - start)
        if need_paths:
            gens = stream_generators(config.master_seed, start, rows)
            map_row_blocks(diagnose, rows, diag_rows)
            spare.clear()  # unmaps the windows before the kernel pass
        gens = stream_generators(config.master_seed, start, rows)
        rec = Recursion(rows, last, params.omega, params.alpha_n,
                        params.beta_n, params.sigma0_sq, ks)
        eps_k = np.empty((rows, len(ks)))
        width = _block_width(rows, last)
        held = _row_array(rows, width)
        for a in range(0, last + 1, width):
            block = held[:, :min(width, last + 1 - a)]
            map_row_blocks(draw, rows, max(1, DRAW_SLICE // block.shape[1]))
            rec.advance(block, a)
            m, j = rec.kept(a, a + block.shape[1])
            eps_k[:, m] = block[:, j]
        out = slice(start, start + rows)
        try:
            for m, k in enumerate(ks):
                s, ls = rec.sigma_sq[:, m], rec.log_sigma_sq[:, m]
                vol[out, m] = spec.vol_stats(s, ls, params, n, k, xi_var,
                                             mode).value
                ret[out, m] = spec.ret_stats(
                    *checkpoint_returns(s, ls, eps_k[:, m]), params, k,
                    mode).value
        except NumericalBreakdown as exc:
            exc.row += start
            raise
        del held, block
    if vol_shift != 0.0:
        vol = vol + vol_shift
    _refuse_constant_column(config, spec, ks, vol, ret)

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


def _block_width(rows: int, last: int) -> int:
    """Columns of a chunk's time blocks: [0, last] in the fewest equal
    blocks of at most about BLOCK_DRAWS innovations, the last block
    narrower.  Each block costs a GIL-held draw call per replication:
    two threads drawing 8e6 normals in calls of 2048-4096 ran 1.5-1.8x
    as fast as one, of 512 0.75-0.89x (2-vCPU host), so a wide block of
    few rows beats a narrow block of many."""
    blocks = max(1, -(-rows * last // BLOCK_DRAWS))
    return -(-(last + 1) // blocks)


def _row_array(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) view whose row stride is an odd number of
    64-byte cache lines, in its own anonymous memory map.

    The kernel reads a time block down its columns; with a row stride of
    a power of two doubles, every row of a column falls in the same
    cache set, and stepping 2000 x 5000 innovations through 1024-column
    blocks took 1.6x as long.  The map bypasses malloc:
    glibc raises its mmap threshold to the size of any mapped block it
    frees (up to 32 MiB), and the heap then keeps blocks below that size
    that it would have returned to the system."""
    stride = 8 * (-(-cols // 8) | 1)
    try:
        buf = mmap.mmap(-1, 8 * rows * stride)
    except OSError as exc:
        raise MemoryError(f"cannot map a ({rows}, {cols}) array") from exc
    return np.frombuffer(buf).reshape(rows, stride)[:, :cols]


def _gof_entry(res: gof.GofResult, k: int) -> dict:
    return {"k": k, "D": res.statistic, "p": res.p_value, "pass": res.passed}


def _vol_gof(config: McConfig, spec: RegimeSpec, ks, vol) -> dict:
    if spec.sample_reference is None:
        per = [_gof_entry(gof.ks_one_sample(
            vol[:, m], limits.normal_cdfs, config.level), k)
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


def _refuse_constant_column(config: McConfig, spec: RegimeSpec, ks, vol,
                            ret) -> None:
    """Raise NumericalBreakdown for the first constant column a
    requested test reads (the independence basis first, then vol_gof's,
    then ret_gof's): every replication read the same value there, so the
    column carries no path information to test."""
    basis = spec.independence_basis
    columns = []
    if "independence" in config.tests:
        matrix = vol if basis == "statistics" else np.diff(vol, axis=1)
        if matrix.shape[1] >= 2:  # one column has nothing to correlate
            # an increment is named by the checkpoint it ends at
            columns.append((f"independence of the {basis}", matrix,
                            ks[basis == "increments":]))
    columns += [(test, stats, ks) for test, stats in
                (("vol_gof", vol), ("ret_gof", ret)) if test in config.tests]
    for where, matrix, at in columns:
        # not std == 0: the mean of equal values may round off them
        constant = np.flatnonzero((matrix == matrix[0]).all(axis=0))
        if constant.size:
            k = at[constant[0]]
            raise NumericalBreakdown(f"{where}, checkpoint k={k}", None,
                                     "the column is constant")


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
    reports = [run_experiment(replace(config, n=int(n))) for n in n_grid]

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
