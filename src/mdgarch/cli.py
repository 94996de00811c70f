"""Command-line front end.

Subcommands: simulate, verify, diagnose, sweep.  Exit codes: 0 all
enabled statistical tests pass, 1 a statistical test fails, 2 a usage
or configuration error (refused before any draw) or a run too large for
memory, 3 a numerical breakdown: cancellation, a decomposition overflow
or a constant column of a requested test (named by checkpoint k and any
first failed replication), 4 an internal error: any other exception, a fault
in the program, with its traceback.  verify, diagnose and sweep build
every output before writing the first, so a run that raises writes none.
All numeric file output is printed with 17 significant digits and is
byte-identical across reruns with the same master seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from typing import Optional, Sequence

import numpy as np

from .harness import (QQ_REF_STREAM, REGIMES, ConfigurationError, McConfig,
                      McReport, RegimeSpec, run_experiment, run_n_sweep,
                      sweep_verdict, validate_config)
from .innovations import RngStream
from .localization import classify_regime
from .simulate import (CLASSICAL, LITERAL, NumericalBreakdown,
                       export_path_csv, simulate_path)

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CANCELLATION = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdgarch",
        description="Simulate localized GARCH(1,1) paths and verify their "
                    "limit laws by Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.master_seed")
        p.add_argument("--reps", type=int, default=None,
                       help="override run.reps")
        p.add_argument("--mode", choices=[CLASSICAL, LITERAL], default=None,
                       help="override run.mode")
        p.add_argument("--level", type=float, default=None,
                       help="override run.level")

    common(sub.add_parser("simulate", help="write per-replication path CSVs"))
    p_verify = sub.add_parser("verify",
                              help="run the experiment and gate on its tests")
    common(p_verify)
    p_verify.add_argument("--corrupt-centering", action="store_true",
                          help="self-test: inject a centering error so the "
                               "verification must fail")
    common(sub.add_parser("diagnose",
                          help="write remainder/decomposition/QQ diagnostics"))
    p_sweep = sub.add_parser("sweep", help="run an n-sweep with trend checks")
    common(p_sweep)
    p_sweep.add_argument("--n-grid", default=None,
                         help="comma-separated n values (overrides config)")
    return parser


def _read_document(path: str, args) -> dict:
    """The config document with the command-line overrides applied."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path} is not a JSON object")
    run = doc.setdefault("run", {})
    if not isinstance(run, dict):
        raise ConfigurationError("config section run is not a JSON object")
    if args.seed is not None:
        run["master_seed"] = args.seed
    if args.reps is not None:
        run["reps"] = args.reps
    if args.mode is not None:
        run["mode"] = args.mode
    if args.level is not None:
        run["level"] = args.level
    return doc


def load_config(path: str, args) -> McConfig:
    return McConfig.from_config(_read_document(path, args))


def _read_sweep_grid(doc: dict, args) -> Sequence[int]:
    if getattr(args, "n_grid", None):
        try:
            return [int(x) for x in args.n_grid.split(",")]
        except ValueError as exc:
            raise ConfigurationError(
                f"--n-grid must be comma-separated integers: {exc}") from exc
    sweep = doc.get("sweep", {})
    grid = sweep.get("n_grid") if isinstance(sweep, dict) else None
    if not grid:
        raise ConfigurationError(
            "sweep needs --n-grid or a sweep.n_grid config section")
    if not (isinstance(grid, list) and all(isinstance(x, int) for x in grid)):
        raise ConfigurationError("sweep.n_grid must be a list of integers")
    return grid


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _write_all(out_dir: str, files: dict) -> None:
    """Write each file's text, all built before the first is written: a
    run that fails while building its outputs leaves none behind."""
    for name, text in files.items():
        _write(out_dir, name, text)


def cmd_simulate(args) -> int:
    # path export runs no statistical tests; drop the test list so its
    # constraints (GOF reps floor, classical-only) do not apply here
    config = dataclasses.replace(load_config(args.config, args), tests=())
    params = validate_config(config)
    os.makedirs(args.out, exist_ok=True)
    for i in range(config.reps):
        stream = RngStream(config.master_seed, i)
        path = simulate_path(params, config.innovation, stream)
        name = os.path.join(args.out, f"path_{i:04d}.csv")
        with open(name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# master_seed={config.master_seed},stream_index={i}\n")
            export_path_csv(path, fh)
    print(f"wrote {config.reps} path files to {args.out}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    config = load_config(args.config, args)
    if config.mode != CLASSICAL:
        raise ConfigurationError(
            "verify requires classical mode; literal is diagnostic-only")
    shift = 1.0 if args.corrupt_centering else 0.0
    report = run_experiment(config, vol_shift=shift)
    _write_all(args.out, {"report.json": report.to_json() + "\n",
                          "stats.csv": report.stats_csv()})
    print(f"verdict: {'pass' if report.verdict else 'FAIL'} "
          f"({len(report.results)} tests)")
    return EXIT_PASS if report.verdict else EXIT_STAT_FAIL


def cmd_diagnose(args) -> int:
    # diagnostics replace the configured test list with the regime's
    # diagnostic set (remainders plus tau or lemma); any mode is allowed
    config = dataclasses.replace(load_config(args.config, args), tests=())
    params = validate_config(config)
    spec = REGIMES[classify_regime(params)]
    tests = ("remainders",) + ((spec.diagnostic,) if spec.diagnostic else ())
    config = dataclasses.replace(config, tests=tests)
    report = run_experiment(config)
    _write_all(args.out, {"diagnostics.json": report.to_json() + "\n",
                          "components.csv": _components_csv(report),
                          "qq.csv": _qq_csv(config, spec, report)})
    print(f"wrote diagnostics to {args.out}")
    return EXIT_PASS


def _components_csv(report: McReport) -> str:
    """Decomposition component magnitudes of the first 20 replications,
    read off the decompositions of the report's remainders test.

    Classical rows carry linear values; literal rows carry log10
    magnitudes plus signs and the degenerate flag required when the
    linear value is not representable.
    """
    lines = ["rep,component,value_or_log10,sign,literal_degenerate"]
    for i, dec in enumerate(report.decompositions[:20]):
        for c, comp in enumerate(dec.components, start=1):
            if dec.mode == CLASSICAL:
                lines.append("%d,%d,%.17g,%d,0" % (
                    i, c, comp, 1 if comp >= 0 else -1))
            else:
                log_mag, sign = comp
                log10 = log_mag / math.log(10.0) if math.isfinite(log_mag) \
                    else -9999.0
                degenerate = 1 if log_mag > 308.0 * math.log(10.0) \
                    or not math.isfinite(log_mag) else 0
                lines.append("%d,%d,%.17g,%d,%d" % (
                    i, c, log10, int(sign) if sign else 0, degenerate))
    return "\n".join(lines) + "\n"


def _qq_csv(config: McConfig, spec: RegimeSpec, report) -> str:
    """Sorted statistic vs reference quantiles, reps x checkpoints rows."""
    from scipy.special import ndtri

    reps = config.reps
    lines = ["checkpoint_k,sample_quantile,reference_quantile"]
    probs = (np.arange(1, reps + 1) - 0.5) / reps
    if spec.sample_reference is None:
        ref_cols = np.tile(ndtri(probs), (len(report.checkpoints), 1))
    else:
        draws = spec.sample_reference(
            config.grid.t_values, reps,
            RngStream(config.master_seed, QQ_REF_STREAM)).draws
        ref_cols = np.sort(draws, axis=0).T
    for m, k in enumerate(report.checkpoints):
        sample = np.sort(report.vol_stats[:, m])
        for q, r in zip(sample, ref_cols[m]):
            lines.append("%d,%.17g,%.17g" % (k, q, r))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    doc = _read_document(args.config, args)
    config = McConfig.from_config(doc)
    n_grid = _read_sweep_grid(doc, args)
    reports, trend = run_n_sweep(config, n_grid)
    ok = sweep_verdict(reports, trend)
    files = {f"report_n{n}.json": rep.to_json() + "\n"
             for n, rep in zip(n_grid, reports)}
    files["trend.json"] = json.dumps(trend, sort_keys=True, indent=2) + "\n"
    _write_all(args.out, files)
    print(f"sweep verdict: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_STAT_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    handlers = {"simulate": cmd_simulate, "verify": cmd_verify,
                "diagnose": cmd_diagnose, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # too large a run for this host: not a statistical failure
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdown as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_CANCELLATION
    except Exception:
        # a bug, not a failed test (1): say so, with where it happened
        print("error: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
