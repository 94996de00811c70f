"""Per-layer bench of the recursion kernel (``mdgarch.kernels``).

Run from the repository root:

    python3 scripts/bench_kernel.py                  # this checkout's src/
    python3 scripts/bench_kernel.py --src ../parent/src --src src

Each ``--src`` is a source tree holding an ``mdgarch`` package; each is
imported as a package of its own, so two trees (before and after a
change) are timed in one process.  Three shapes are timed:

- one row x 5001 through ``recursion_batch``, every index kept (the
  shape of ``simulate_path``, so of ``simulate`` and acceptance
  criterion 1);
- 500 x 20000 and 2000 x 4000 through ``Recursion.advance``, in time
  blocks of 1024 columns with four kept columns (the shape of the
  harness's kernel pass on long paths and on verify).

The runs are interleaved: each round runs every shape once on every
tree, so a change in the host's speed falls on all of them alike.  For
each shape and tree the script prints the median and quartiles of wall
time and of the process's CPU time (``time.process_time``, all threads)
in milliseconds.  The innovations are standard normal, drawn once from
a fixed seed; the parameters are the acceptance near-stationary
scheme's (c_alpha 1, p 0.5, c_gamma -1, kappa 0.4), so no row overflows.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# (label, rows, steps); one row runs through recursion_batch
SHAPES = (("1 x 5001 recursion_batch", 1, 5000),
          ("500 x 20000 advance", 500, 20000),
          ("2000 x 4000 advance", 2000, 4000))
TIME_BLOCK = 1024  # harness.TIME_BLOCK
SEED = 20260823


def load(src: str, i: int):
    """The ``kernels`` and ``localization`` modules of the mdgarch
    package under src, imported as package ``_mdgarch_bench{i}``."""
    init = Path(src).resolve() / "mdgarch" / "__init__.py"
    name = f"_mdgarch_bench{i}"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return (importlib.import_module(f"{name}.kernels"),
            importlib.import_module(f"{name}.localization"))


def workload(kernels, localization, rows: int, steps: int):
    """A no-argument callable that runs one shape once."""
    scheme = localization.LocalizationScheme(
        omega=1.0, sigma0_sq=1.0, c_alpha=1.0, p=0.5, c_gamma=-1.0,
        kappa=0.4)
    p = localization.realize_params(scheme, steps)
    args = p.omega, p.alpha_n, p.beta_n, p.sigma0_sq
    rng = np.random.default_rng(SEED)
    if rows == 1:
        eps = rng.standard_normal((1, steps + 1))
        return lambda: kernels.recursion_batch(eps, *args)
    # an odd number of cache lines per row, as the harness's time block
    # has: a power-of-two row stride puts a column in one cache set
    block = np.empty((rows, TIME_BLOCK + 8))[:, :TIME_BLOCK]
    block[:] = rng.standard_normal((rows, TIME_BLOCK))
    keep = [steps * m // 5 for m in range(1, 5)]

    def run():
        rec = kernels.Recursion(rows, steps, *args, keep)
        for a in range(0, steps, TIME_BLOCK):
            rec.advance(block, a)
    return run


def bench(srcs, shapes=SHAPES, runs: int = 15) -> dict:
    """{(shape label, src): (wall times, CPU times)} in seconds, from
    `runs` interleaved rounds after one untimed warm-up round."""
    mods = [load(src, i) for i, src in enumerate(srcs)]
    jobs = [((label, src), workload(*mod, rows, steps))
            for label, rows, steps in shapes
            for src, mod in zip(srcs, mods)]
    times = {key: ([], []) for key, _ in jobs}
    for r in range(runs + 1):
        for key, fn in jobs:
            w, c = time.perf_counter(), time.process_time()
            fn()
            w, c = time.perf_counter() - w, time.process_time() - c
            if r:
                times[key][0].append(w)
                times[key][1].append(c)
    return times


def summary(values) -> str:
    """'median [q1, q3]' in milliseconds."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{1e3 * q2:.3f} [{1e3 * q1:.3f}, {1e3 * q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append",
                        help="a source tree holding mdgarch (repeatable; "
                             "default: src/ of this checkout)")
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two)")
    srcs = args.src or [str(ROOT / "src")]
    times = bench(srcs, runs=args.runs)
    print(f"{args.runs} interleaved runs, numpy {np.__version__}; "
          "ms, median [quartiles]")
    print("shape | src | wall | cpu")
    for (label, src), (wall, cpu) in times.items():
        print(f"{label} | {src} | {summary(wall)} | {summary(cpu)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
