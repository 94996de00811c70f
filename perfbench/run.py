"""mdgarch benchmark: the user workloads end to end, and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-acceptance --seed 20260823 \\
        --seconds 36 --trace 0
    python3 perfbench/run.py --workload all     # each in a fresh process

Each run drives one workload (see ``workloads.py``) in this process,
with BLAS pinned to one thread and the numpy kernel selected.  It
imports ``mdgarch`` from ``src/`` beside this directory, so it needs a
checkout of the repository and nothing installed.

Set-up (import plus config build) is timed in this process and in
``SETUP_PROBES`` fresh child processes; ``setup_s`` is the median.
Passes of the workload's units then run while one more fits in
``--seconds`` (at least two, so outputs can be compared across passes).

Pass and unit times are summarised by their upper quartile, not their
median.  On a shared 2-vCPU cloud host the CPU runs for tens of seconds
at a time at one of two speeds, about 1.5x apart, as other tenants come
and go; the median of a run's samples falls between the two and follows
the mix, which drifts from run to run (quartile spread across 36 s
windows of single-paths: 0.19-0.24 of the median).  The upper quartile
lies mostly in the slower, contended speed, which is steadier (spread
0.08-0.15 on the same samples), and it still scales with the program's
own work.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off.  With ``--trace 1``,
untraced and traced passes alternate; the result holds the per-layer
metrics of the traced passes (median per pass, counts per pass) and
``trace.overhead_s``, the traced minus the untraced pass wall time.
Spans are kept in memory and written to ``.perfbench/traces/`` at exit.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric by name with its unit, ``failed_frac`` and the
environment.  The exit code is 0 when a result was printed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify-acceptance", "single-paths", "sweep-long")
# the acceptance suite's seed, at which reference.json was recorded
DEFAULT_SEED = 20260823
SETUP_PROBES = 6
MIN_PASSES = 2
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _pin_environment() -> None:
    # set before numpy is imported: one BLAS thread, the numpy kernel
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MDGARCH_NO_NUMBA"] = "1"


def _setup(args):
    """Import mdgarch from src/ and build the workload's units.

    Returns (units, workloads module, work directory, seconds taken).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mdgarch
    if not Path(mdgarch.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mdgarch imported from {mdgarch.__file__}, "
                          f"not from {SRC}")
    import workloads
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    units = workloads.build(args.workload, args.seed, str(work_dir))
    return units, workloads, work_dir, time.perf_counter() - start


def _probe_setup(args):
    """Time set-up in fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Runs passes of units, times them and checks their outputs."""

    def __init__(self, units, workloads, reference):
        self.units = units
        self.workloads = workloads
        self.reference = reference
        self.first_digest = {}
        self.attempted = 0
        self.failures = []

    def one_pass(self):
        """Run every unit once; return the unit durations."""
        durations = []
        for unit in self.units:
            start = time.perf_counter()
            try:
                out = unit.run()
                error = None
            except Exception as exc:  # a unit failure, not a benchmark one
                error = f"raised {exc!r}"
            durations.append(time.perf_counter() - start)
            self.attempted += 1
            problems = [error] if error else self._check(unit, out)
            if problems:
                self.failures.append((unit.label, problems))
        return durations

    def _check(self, unit, out):
        try:
            seen = unit.inspect(out)
        except Exception as exc:
            return [f"output unreadable: {exc!r}"]
        problems = list(seen.problems)
        first = self.first_digest.setdefault(unit.label, seen.digest)
        if first != seen.digest:
            problems.append("output bytes differ from the first pass")
        if self.reference is not None:
            problems += self.workloads.compare(
                seen.summary, self.reference[unit.label])
        return problems


class _Deadline:
    """Ask before each pass: there is time for one more like the last."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()

    def another_pass(self) -> bool:
        now = time.perf_counter()
        last_pass, self.last = now - self.last, now
        return now - self.start + last_pass <= self.seconds


def _environment(args, tracer=None):
    from mdgarch import kernels
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "use_numba": bool(kernels.USE_NUMBA),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }
    if tracer is not None and tracer.missing:
        env["missing_boundaries"] = tracer.missing
    return env


def _upper_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _measure(args, run):
    """Untraced passes: the end-to-end metrics."""
    walls, unit_times = [], []
    deadline = _Deadline(args.seconds)
    while deadline.another_pass() or len(walls) < MIN_PASSES:
        durations = run.one_pass()
        walls.append(sum(durations))
        unit_times += durations
    pass_steps = sum(unit.steps for unit in run.units)
    p95 = statistics.quantiles(unit_times, n=20, method="inclusive")[18]
    metrics = {
        "wall_s": _upper_quartile(walls),
        "steps_per_s": pass_steps / _upper_quartile(walls),
        "unit_p75_s": _upper_quartile(unit_times),
        "unit_p95_s": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {"passes": len(walls), "units": len(unit_times),
             "units_beyond_p95": sum(t > p95 for t in unit_times),
             "pass_walls_s": walls}
    return metrics, notes


def _measure_traced(args, run, tracer):
    """Alternate untraced and traced passes: the per-layer metrics."""
    from tracer import EXACT_COUNTS, layer_metrics, layer_targets

    plain_walls, traced_walls, per_pass = [], [], []
    targets = layer_targets()
    deadline = _Deadline(args.seconds)
    while deadline.another_pass() or len(traced_walls) < 1:
        if len(plain_walls) <= len(traced_walls):
            plain_walls.append(sum(run.one_pass()))
            continue
        tracer.reset()
        tracer.install(targets)
        try:
            traced_walls.append(sum(run.one_pass()))
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer))
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    for name in EXACT_COUNTS:
        values = {p[name] for p in per_pass}
        metrics[name] = per_pass[0][name]
        if len(values) > 1:
            run.failures.append(("trace", [f"{name} differs across passes: "
                                           f"{sorted(values)}"]))
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    notes = {"traced_passes": len(traced_walls),
             "untraced_passes": len(plain_walls), "spans": len(tracer.spans)}
    return metrics, notes


def _write_spans(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent,
                                 "name": name, "start_s": start,
                                 "end_s": end}) + "\n")


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _pin_environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units_of = {m["name"]: m["unit"] for m in declared}
    try:
        units, workloads, work_dir, setup_s = _setup(args)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(repr(setup_s))
            return 0
        reference = None
        if args.seed == DEFAULT_SEED:
            ref_doc = json.loads((HERE / "reference.json").read_text())
            reference = ref_doc[args.workload]
        run = Run(units, workloads, reference)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            metrics, notes = _measure_traced(args, run, tracer)
            _write_spans(OUT / "traces" / f"{args.workload}-seed{args.seed}"
                         ".jsonl", tracer)
        else:
            setup_samples = [setup_s] + _probe_setup(args)
            metrics, notes = _measure(args, run)
            metrics["setup_s"] = statistics.median(setup_samples)
            notes["setup_samples_s"] = setup_samples
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(units_of):
        print(f"error: metrics {sorted(set(metrics) ^ set(units_of))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    failed = len(run.failures)
    env = _environment(args, tracer)
    for label, problems in run.failures[:20]:
        print(f"FAILED {args.workload} {label}: {'; '.join(problems)}",
              file=sys.stderr)
    for name in units_of:
        print(f"{args.workload} {name} {metrics[name]!r} {units_of[name]}")
    print(f"{args.workload} failed_frac {failed / run.attempted!r} fraction "
          f"({failed} of {run.attempted} units)")
    print(f"{args.workload} notes {json.dumps(notes)}")
    print(f"{args.workload} env {json.dumps(env)}")
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": units_of[name]}
                          for name in units_of}}
    record = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, "notes": notes,
                                  "failures": run.failures,
                                  **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
