"""Per-layer bench of the recursion kernel and of innovation sampling.

The kernel is ``mdgarch.kernels``; sampling is the harness's threaded
fill of a time block.  Run from the repository root:

    python3 scripts/bench_kernel.py                  # this checkout's src/
    python3 scripts/bench_kernel.py --src ../parent/src --src src

Each ``--src`` is a source tree holding an ``mdgarch`` package; each is
imported as a package of its own, so two trees (before and after a
change) are timed in one process.  These shapes are timed:

- kernel, one row x 5001 through ``recursion_batch``, every index kept
  (the shape of ``simulate_path``, so of ``simulate`` and acceptance
  criterion 1);
- kernel, 500 x 4000 and 500 x 80000 through ``Recursion.advance`` in
  time blocks of 2001 columns with four kept columns: a harness chunk of
  500 rows on verify (n = 5000) and on the long paths of the sweep
  (n = 1e5);
- sampling, one (rows, columns) time block drawn by ``map_row_blocks``
  with one generator per row, in slices of about 2**15 draws as the
  harness draws them: 2000 x 1024 (verify's block in chunks of 2000
  rows) against 500 x 2001 (in chunks of 500 rows).

The runs are interleaved: each round runs every shape once on every
tree, so a change in the host's speed falls on all of them alike.  For
each shape and tree the script prints the median and quartiles of wall
time and of the process's CPU time (``time.process_time``, all threads)
in milliseconds, and the median wall time per row and step (kernel) or
per draw (sampling) in nanoseconds.  The kernel's innovations are
standard normal, drawn once from a fixed seed; the parameters are the
acceptance near-stationary scheme's (c_alpha 1, p 0.5, c_gamma -1,
kappa 0.4), so no row overflows.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# (label, layer, rows, steps or columns); one kernel row runs through
# recursion_batch
SHAPES = (("1 x 5001 recursion_batch", "kernel", 1, 5000),
          ("500 x 4000 advance", "kernel", 500, 4000),
          ("500 x 80000 advance", "kernel", 500, 80000),
          ("2000 x 1024 draws", "sampling", 2000, 1024),
          ("500 x 2001 draws", "sampling", 500, 2001))
# harness._block_width of a 500-row chunk at n = 5000 and at n = 1e5
WIDTH = 2001
DRAW_SLICE = 2 ** 15  # harness.DRAW_SLICE
SEED = 20260823


def load(src: str, i: int) -> SimpleNamespace:
    """The ``kernels``, ``localization`` and ``innovations`` modules of
    the mdgarch package under src, imported as package
    ``_mdgarch_bench{i}``."""
    init = Path(src).resolve() / "mdgarch" / "__init__.py"
    name = f"_mdgarch_bench{i}"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{
        mod: importlib.import_module(f"{name}.{mod}")
        for mod in ("kernels", "localization", "innovations")})


def strided(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) array whose row stride is an odd number of cache
    lines, as the harness's time block has: a power-of-two row stride
    puts a column in one cache set."""
    return np.empty((rows, 8 * (-(-cols // 8) | 1)))[:, :cols]


def workload(tree: SimpleNamespace, layer: str, rows: int, cols: int):
    """A no-argument callable that runs one shape once."""
    if layer == "sampling":
        inn = tree.innovations
        normal = inn.InnovationSpec("standard-normal")
        gens = inn.stream_generators(SEED, 0, rows)
        block = strided(rows, cols)

        def draw(rows_slice):
            for i in range(rows_slice.start, rows_slice.stop):
                inn.sample_innovations(normal, cols, gens[i], out=block[i])
        return lambda: tree.kernels.map_row_blocks(
            draw, rows, max(1, DRAW_SLICE // cols))
    scheme = tree.localization.LocalizationScheme(
        omega=1.0, sigma0_sq=1.0, c_alpha=1.0, p=0.5, c_gamma=-1.0,
        kappa=0.4)
    p = tree.localization.realize_params(scheme, cols)
    args = p.omega, p.alpha_n, p.beta_n, p.sigma0_sq
    rng = np.random.default_rng(SEED)
    if rows == 1:
        eps = rng.standard_normal((1, cols + 1))
        return lambda: tree.kernels.recursion_batch(eps, *args)
    block = strided(rows, WIDTH)
    block[:] = rng.standard_normal((rows, WIDTH))
    keep = [cols * m // 5 for m in range(1, 5)]

    def run():
        rec = tree.kernels.Recursion(rows, cols, *args, keep)
        for a in range(0, cols, WIDTH):
            rec.advance(block, a)
    return run


def bench(srcs, shapes=SHAPES, runs: int = 15) -> dict:
    """{(shape label, src): (wall times, CPU times)} in seconds, from
    `runs` interleaved rounds after one untimed warm-up round."""
    trees = [load(src, i) for i, src in enumerate(srcs)]
    jobs = [((label, src), workload(tree, layer, rows, cols))
            for label, layer, rows, cols in shapes
            for src, tree in zip(srcs, trees)]
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
    units = {label: rows * cols for label, _, rows, cols in SHAPES}
    print(f"{args.runs} interleaved runs, numpy {np.__version__}; "
          "ms, median [quartiles]; ns a row-step or draw")
    print("shape | src | wall | cpu | ns")
    for (label, src), (wall, cpu) in times.items():
        ns = 1e9 * statistics.median(wall) / units[label]
        print(f"{label} | {src} | {summary(wall)} | {summary(cpu)} "
              f"| {ns:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
