"""The benchmark's workloads: configs built from a seed, the units each
pass runs, and the checks on every unit's output.

A unit is the smallest call a user waits on: one ``verify`` call, one
path with its oracle check, or one ``sweep`` call.  A pass runs a
workload's units once, in a fixed order.

Every unit is checked outside its timed region.  It fails if it raises,
if it yields a non-finite statistic, if its output differs from the
reference recorded at the default seed (``reference.json``), or if its
output bytes differ from the first pass of the same run.  A statistical
FAIL (exit code 1) is a result, not a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from mdgarch import cli, simulate
from mdgarch.harness import McConfig, validate_config
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.localization import LocalizationScheme, realize_params

GRID = (0.2, 0.4, 0.6, 0.8)
NORMAL = {"kind": "standard-normal"}

# the acceptance suite's Theorem 1/2/3 schemes
SCHEMES = {
    "NS": {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 1.0, "p": 0.5,
           "c_gamma": -1.0, "kappa": 0.4},
    "INT": {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 1.0, "p": 0.6,
            "c_gamma": 0.0, "kappa": 0.4},
    "NE": {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 1.0, "p": 0.5,
           "c_gamma": 1.0, "kappa": 0.6},
}

VERIFY_N, VERIFY_REPS = 5000, 2000
# few paths per pass: many short passes give the upper quartile of pass
# walls samples from each of the host's CPU speeds (see run.py)
PATH_N, PATHS_PER_REGIME, ORACLE_TIMES = 5000, 4, (1000, 5000)
LOG_TRACK_TIMES = (1000, 2000, 3000, 4000, 5000)
SWEEP_GRID, SWEEP_REPS = (1000, 10000, 100000), 500

# criterion 1 of the acceptance suite: recursion vs product form
IDENTITY_TOL = 1e-8

#: reference comparison rule per summary key; other keys compare exactly
TOLERANCES = {
    "p": ("abs", 1e-12),
    "log_sigma_sq": ("ulp", 1),
    "lemma_mean": ("rel", 1e-9),
    "r1_abs_median": ("rel", 1e-9),
    "r2_max_median": ("rel", 1e-9),
    "r2_lil_median": ("rel", 1e-9),
    "r3_rel_median": ("rel", 1e-9),
}


@dataclass
class Inspection:
    summary: dict        # compared with the reference at the default seed
    digest: str          # compared across passes of one run
    problems: List[str]  # non-finite statistics, identity gaps


@dataclass
class Unit:
    label: str
    steps: int                            # reps x n recursion steps
    run: Callable[[], object]             # the timed call
    inspect: Callable[[object], Inspection]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config_doc(scheme: dict, n: int, reps: int, seed: int,
                tests: List[str]) -> dict:
    return {"scheme": scheme, "innovation": NORMAL,
            "grid": {"t_values": list(GRID)},
            "run": {"n": n, "reps": reps, "master_seed": seed,
                    "tests": tests}}


def _write_config(work_dir: str, name: str, doc: dict) -> str:
    validate_config(McConfig.from_config(doc))
    path = os.path.join(work_dir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _cli(argv: List[str]) -> int:
    # the CLI prints a verdict line; keep stdout for the benchmark's result
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _verify_units(seed: int, work_dir: str) -> List[Unit]:
    units = []
    for regime, scheme in SCHEMES.items():
        config = _write_config(
            work_dir, "verify_" + regime,
            _config_doc(scheme, VERIFY_N, VERIFY_REPS, seed,
                        ["vol_gof", "ret_gof", "independence"]))
        out = os.path.join(work_dir, "verify_" + regime)
        argv = ["verify", "--config", config, "--out", out]
        units.append(Unit(regime, VERIFY_REPS * VERIFY_N,
                          lambda argv=argv: _cli(argv),
                          lambda rc, out=out: _inspect_verify(rc, out)))
    return units


def _inspect_verify(rc: int, out: str) -> Inspection:
    with open(os.path.join(out, "report.json"), "rb") as fh:
        report_bytes = fh.read()
    with open(os.path.join(out, "stats.csv"), "rb") as fh:
        csv_bytes = fh.read()
    shutil.rmtree(out)
    report = json.loads(report_bytes)
    problems = [] if rc in (0, 1) else [f"exit code {rc}"]
    summary = {"exit_code": rc, "stats_csv_sha256": _sha256(csv_bytes),
               "verdict": report["verdict"],
               "independence_pass": report["results"]["independence"]["pass"]}
    for test in ("vol_gof", "ret_gof"):
        entry = report["results"][test]
        per = [{key: e[key] for key in ("k", "D", "p", "pass")}
               for e in entry["per_checkpoint"]]
        if not all(_finite(e["D"]) and _finite(e["p"]) for e in per):
            problems.append(f"{test}: non-finite D or p")
        summary[test] = {"pass": entry["pass"], "per_checkpoint": per}
    rows = csv_bytes.decode("ascii").splitlines()[1:]
    if not all(math.isfinite(float(v)) for row in rows
               for v in row.split(",")[2:]):
        problems.append("stats.csv: non-finite statistic")
    return Inspection(summary, _sha256(report_bytes + csv_bytes), problems)


def _path_units(seed: int, work_dir: str) -> List[Unit]:
    spec = InnovationSpec.from_config(NORMAL)
    units = []
    for regime, scheme in SCHEMES.items():
        params = realize_params(LocalizationScheme.from_config(scheme),
                                PATH_N)
        for i in range(PATHS_PER_REGIME):
            stream = RngStream(seed, i)

            def run(params=params, stream=stream):
                path = simulate.simulate_path(params, spec, stream)
                oracle = [simulate.volatility_multiplicative(params,
                                                             path.eps, t)
                          for t in ORACLE_TIMES]
                return path, oracle

            units.append(Unit(f"{regime}/{i}", PATH_N, run, _inspect_path))
    return units


def _inspect_path(result) -> Inspection:
    path, oracle = result
    problems = []
    if not np.isfinite(path.log_sigma_sq).all():
        problems.append("non-finite log track")
    for t, (log_val, lin) in zip(ORACLE_TIMES, oracle):
        if not math.isfinite(log_val):
            problems.append(f"t={t}: non-finite oracle value")
            continue
        gap = abs(log_val - path.log_sigma_sq[t]) \
            / max(abs(path.log_sigma_sq[t]), 1.0)
        if lin is not None:
            gap = max(gap, abs(lin - path.sigma_sq[t]) / path.sigma_sq[t])
        if not gap < IDENTITY_TOL:
            problems.append(f"t={t}: recursion vs product form gap {gap:.3e}")
    summary = {"sigma_sq_sha256": _sha256(path.sigma_sq.tobytes()),
               "overflow_at": path.overflow_at,
               "log_sigma_sq": [float(path.log_sigma_sq[t])
                                for t in LOG_TRACK_TIMES]}
    digest = _sha256(path.sigma_sq.tobytes() + path.log_sigma_sq.tobytes()
                     + str(path.overflow_at).encode())
    return Inspection(summary, digest, problems)


def _sweep_units(seed: int, work_dir: str) -> List[Unit]:
    config = _write_config(
        work_dir, "sweep",
        _config_doc(SCHEMES["NE"], SWEEP_GRID[0], SWEEP_REPS, seed,
                    ["lemma", "remainders"]))
    out = os.path.join(work_dir, "sweep")
    argv = ["sweep", "--config", config, "--out", out,
            "--n-grid", ",".join(str(n) for n in SWEEP_GRID)]
    return [Unit("NE", SWEEP_REPS * sum(SWEEP_GRID),
                 lambda: _cli(argv), lambda rc: _inspect_sweep(rc, out))]


def _inspect_sweep(rc: int, out: str) -> Inspection:
    names = [f"report_n{n}.json" for n in SWEEP_GRID] + ["trend.json"]
    blobs = []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            blobs.append(fh.read())
    shutil.rmtree(out)
    problems = [] if rc in (0, 1) else [f"exit code {rc}"]
    per_n = {}
    for n, blob in zip(SWEEP_GRID, blobs):
        results = json.loads(blob)["results"]
        rem = results["remainders"]
        entry = {"lemma_mean": results["lemma"]["mean"]}
        entry.update({key: rem[key] for key in (
            "r1_abs_median", "r2_max_median", "r2_lil_median",
            "r3_rel_median")})
        if not all(_finite(v) for v in entry.values()):
            problems.append(f"n={n}: non-finite lemma mean or remainder")
        per_n[str(n)] = entry
    return Inspection({"exit_code": rc, "per_n": per_n},
                      _sha256(b"".join(blobs)), problems)


BUILDERS: Dict[str, Callable[[int, str], List[Unit]]] = {
    "verify-acceptance": _verify_units,
    "single-paths": _path_units,
    "sweep-long": _sweep_units,
}


def build(workload: str, seed: int, work_dir: str) -> List[Unit]:
    """Write and validate the workload's configs; return one pass's units."""
    return BUILDERS[workload](seed, work_dir)


def compare(got, want, key: str = "") -> List[str]:
    """Differences between a summary and its reference, by TOLERANCES."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{key}: keys differ"]
        return [d for k in want for d in compare(got[k], want[k], k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{key}: length differs"]
        return [d for g, w in zip(got, want) for d in compare(g, w, key)]
    rule = TOLERANCES.get(key)
    if rule is None or not isinstance(want, float):
        return [] if got == want else [f"{key}: {got!r} != {want!r}"]
    kind, tol = rule
    gap = abs(got - want)
    limit = {"abs": tol, "rel": tol * abs(want),
             "ulp": tol * math.ulp(want)}[kind]
    return [] if gap <= limit else [f"{key}: {got!r} vs {want!r} ({kind})"]
