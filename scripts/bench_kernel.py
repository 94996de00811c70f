"""Per-layer bench of the recursion kernel, innovation sampling and the
path diagnostics.

The kernel is ``mdgarch.kernels``; sampling is the harness's threaded
fill of a time block; the diagnostics are the harness's diagnostic pass.
Run from the repository root:

    python3 scripts/bench_kernel.py                  # this checkout's src/
    python3 scripts/bench_kernel.py --src ../parent/src --src src

Each ``--src`` is a source tree holding an ``mdgarch`` package; each is
imported as a package of its own, so two trees (before and after a
change) are timed in one process, and a tree given twice is timed
twice.  These shapes are timed:

- kernel, one row x 5001 through ``recursion_batch``, every index kept
  (the shape of ``simulate_path``, so of ``simulate`` and acceptance
  criterion 1);
- kernel, 500 x 4000 and 500 x 80000 through ``Recursion.advance`` in
  time blocks of 2001 or 1001 columns with four kept columns: a harness
  chunk of 500 rows on verify (n = 5000) and on the long paths of the
  sweep (n = 1e5), in 8 MB or 4 MB time blocks;
- sampling, one (rows, columns) time block drawn by ``map_row_blocks``
  with one generator per row, in slices of about 2**15 draws as the
  harness draws them: 2000 x 1024 (verify's block in chunks of 2000
  rows), 500 x 2001 (8 MB blocks in chunks of 500 rows) and 500 x 1001
  (4 MB blocks);
- sampling, 20000 one-draw ``sample_innovations`` calls into a given
  array on the calling thread: the cost of a draw call, nearly all of
  it spent holding the GIL;
- diagnostics, ``harness._diagnostic_pass`` of 2 replications at
  n = 1e5 (k = 8e4) on the acceptance near-explosive scheme (c_alpha 1,
  p 0.5, c_gamma 1, kappa 0.6), lemma and remainders: the redraw, xi
  and the tiled lemma and decomposition, over up to two threads.

The runs are interleaved: each round runs every shape once on every
tree, so a change in the host's speed falls on all of them alike, and
starts with one untimed run of its first shape, so that the first timed
run follows a run of itself as every other shape follows the shape
before it rather than the previous round's last shape.  For
each shape and tree the script prints the median and quartiles of wall
time and of the process's CPU time (``time.process_time``, all threads)
in milliseconds, and the median wall time per row and step (kernel),
per draw (sampling; a draw is a call in the one-draw shape) or per row
and diagnostic column in nanoseconds.  For the diagnostic shape it then
prints the most bytes one thread mapped in one pass (its diagnostic
arrays, counted in an untimed pass by wrapping ``mmap.mmap``).  The
kernel's innovations are
standard normal, drawn once from a fixed seed; the parameters are the
acceptance near-stationary scheme's (c_alpha 1, p 0.5, c_gamma -1,
kappa 0.4), so no row overflows.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import mmap
import statistics
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# (label, layer, rows, steps or columns[, kernel time block columns]);
# one kernel row runs through recursion_batch
SHAPES = (("1 x 5001 recursion_batch", "kernel", 1, 5000),
          ("500 x 4000 advance, blocks of 2001", "kernel", 500, 4000),
          ("500 x 4000 advance, blocks of 1001", "kernel", 500, 4000, 1001),
          ("500 x 80000 advance, blocks of 2001", "kernel", 500, 80000),
          ("500 x 80000 advance, blocks of 1001", "kernel", 500, 80000,
           1001),
          ("2000 x 1024 draws", "sampling", 2000, 1024),
          ("500 x 2001 draws", "sampling", 500, 2001),
          ("500 x 1001 draws", "sampling", 500, 1001),
          ("20000 x 1 draw calls", "call", 20000, 1),
          ("2 x 1e5 diagnostic pass", "diagnostic", 2, 10 ** 5))
# harness._block_width of a 500-row chunk at n = 5000 and at n = 1e5 in
# 8 MB time blocks (BLOCK_DRAWS = 1e6); 4 MB blocks take 1001 columns
WIDTH = 2001
DRAW_SLICE = 2 ** 15  # harness.DRAW_SLICE
SEED = 20260823
# the acceptance near-explosive scheme, whose diagnostics are the lemma
# and the remainders
NE_SCHEME = dict(omega=1.0, sigma0_sq=1.0, c_alpha=1.0, p=0.5, c_gamma=1.0,
                 kappa=0.6)
_LOADED = itertools.count()  # packages loaded so far


def load(src: str) -> SimpleNamespace:
    """The ``kernels``, ``localization``, ``innovations`` and ``harness``
    modules of the mdgarch package under src, imported as a package of a
    name not used before (``_mdgarch_bench{i}``), so a tree loaded after
    another never reuses its modules."""
    init = Path(src).resolve() / "mdgarch" / "__init__.py"
    name = f"_mdgarch_bench{next(_LOADED)}"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{
        mod: importlib.import_module(f"{name}.{mod}")
        for mod in ("kernels", "localization", "innovations", "harness")})


def strided(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) array whose row stride is an odd number of cache
    lines, as the harness's time block has: a power-of-two row stride
    puts a column in one cache set."""
    return np.empty((rows, 8 * (-(-cols // 8) | 1)))[:, :cols]


def workload(tree: SimpleNamespace, layer: str, rows: int, cols: int,
             width: int = WIDTH):
    """A no-argument callable that runs one shape once; a kernel shape
    advances in time blocks of `width` columns."""
    inn = tree.innovations
    normal = inn.InnovationSpec("standard-normal")
    if layer == "diagnostic":
        harness = tree.harness
        config = harness.McConfig(
            scheme=tree.localization.LocalizationScheme(**NE_SCHEME),
            innovation=normal, n=cols,
            grid=harness.CheckpointGrid((0.2, 0.4, 0.6, 0.8)),
            reps=rows, master_seed=SEED, tests=("lemma", "remainders"))
        params = harness.validate_config(config)
        k = harness.diag_checkpoint(cols)
        return lambda: harness._diagnostic_pass(config, params, k, 0, rows)
    if layer == "call":
        gen, out = inn.stream_generators(SEED, 0, 1)[0], np.empty(cols)

        def calls():
            for _ in range(rows):
                inn.sample_innovations(normal, cols, gen, out=out)
        return calls
    if layer == "sampling":
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
    block = strided(rows, width)
    block[:] = rng.standard_normal((rows, width))
    keep = [cols * m // 5 for m in range(1, 5)]

    def run():
        # [0, cols] in blocks of `width`, the last narrower, as the
        # harness steps it
        rec = tree.kernels.Recursion(rows, cols, *args, keep)
        for a in range(0, cols + 1, width):
            rec.advance(block[:, :min(width, cols + 1 - a)], a)
    return run


def bench(srcs, shapes=SHAPES, runs: int = 15) -> dict:
    """{(shape label, tree position in srcs): (wall times, CPU times)} in
    seconds, from `runs` interleaved rounds after one untimed warm-up
    round; each round starts with an untimed run of its first job."""
    trees = [load(src) for src in srcs]
    jobs = [((label, i), workload(tree, layer, rows, cols, *width))
            for label, layer, rows, cols, *width in shapes
            for i, tree in enumerate(trees)]
    times = {key: ([], []) for key, _ in jobs}
    for r in range(runs + 1):
        jobs[0][1]()
        for key, fn in jobs:
            w, c = time.perf_counter(), time.process_time()
            fn()
            w, c = time.perf_counter() - w, time.process_time() - c
            if r:
                times[key][0].append(w)
                times[key][1].append(c)
    return times


def mapped_per_thread(fn) -> int:
    """The most bytes one thread mapped with ``mmap.mmap`` in one call of
    fn."""
    real, mapped = mmap.mmap, {}
    lock = threading.Lock()

    def counted(fileno, length, *args, **kwargs):
        with lock:
            key = threading.get_ident()
            mapped[key] = mapped.get(key, 0) + length
        return real(fileno, length, *args, **kwargs)

    mmap.mmap = counted
    try:
        fn()
    finally:
        mmap.mmap = real
    return max(mapped.values(), default=0)


def units(layer: str, rows: int, cols: int) -> int:
    """Rows times steps, draws or (diagnostics) the columns [0, k)."""
    if layer == "diagnostic":
        return rows * max(3, int(0.8 * cols))   # harness.diag_checkpoint
    return rows * cols


def summary(values) -> str:
    """'median [q1, q3]' in milliseconds."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{1e3 * q2:.3f} [{1e3 * q1:.3f}, {1e3 * q3:.3f}]"


def table(times: dict, srcs, shapes=SHAPES) -> list:
    """One 'shape | src | wall | cpu | ns' line per shape and tree."""
    size = {label: units(layer, rows, cols)
            for label, layer, rows, cols, *_ in shapes}
    lines = []
    for (label, i), (wall, cpu) in times.items():
        ns = 1e9 * statistics.median(wall) / size[label]
        lines.append(f"{label} | {srcs[i]} | {summary(wall)} | "
                     f"{summary(cpu)} | {ns:.2f}")
    return lines


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
          "ms, median [quartiles]; ns a row-step, draw or row-column")
    print("shape | src | wall | cpu | ns")
    print("\n".join(table(times, srcs)))
    for label, layer, rows, cols, *_ in SHAPES:
        if layer == "diagnostic":
            for src in srcs:
                fn = workload(load(src), layer, rows, cols)
                print(f"{label} | {src} | bytes mapped per thread "
                      f"{mapped_per_thread(fn)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
