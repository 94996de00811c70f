"""Exit codes and output digests of a fixed set of CLI runs, per source tree.

A change that must keep the report bytes runs this on the tree before
and after it.  Run from the repository root:

    python3 scripts/output_digests.py                    # this checkout's src/
    python3 scripts/output_digests.py --src ../parent/src --src src --seed 7

Each ``--src`` is a source tree holding an ``mdgarch`` package, imported
as a package of its own (as ``scripts/bench_kernel.py`` does), so two
trees run in one process.  Every case runs in-process through the tree's
``cli.main`` on a config written to a temporary directory:

- verify NS, INT and NE (the acceptance schemes), standard normal and
  Student-t df 8 innovations, n 5000 x 2000 reps;
- verify ``ret_gof`` on the overflowing NE scheme (c_alpha 6, c_gamma 2,
  kappa 0.2), n 20000 x 200 reps;
- the sweep of perfbench's sweep-long workload: NE, lemma and
  remainders, n 1e3, 1e4 and 1e5 x 500 reps;
- diagnose NS and NE, classical and literal, n 2000 x 200 reps;
- diagnose NS classical (tau) and NE literal at n 50000 x 20 reps, where
  k = 40000 exceeds ``harness.DIAG_BLOCK`` and each row runs in several
  column tiles;
- simulate NS (n 300, 5 paths) and the overflowing NE scheme (n 20000,
  3 paths).

The script prints one line per case and tree: the case, the tree, the
exit code and the sha256 of the output files (each file's name and
bytes, in name order).  With several trees it ends with a line saying
whether every case gave the same exit code and digest on all of them,
and exits 1 if not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260823
_LOADED = itertools.count()  # packages loaded so far
GRID = [0.2, 0.4, 0.6, 0.8]
NORMAL = {"kind": "standard-normal"}
T8 = {"kind": "student-t-normalized", "df": 8.0}
_BASE = {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 1.0, "p": 0.5}
SCHEMES = {
    "NS": dict(_BASE, c_gamma=-1.0, kappa=0.4),
    "INT": dict(_BASE, p=0.6, c_gamma=0.0, kappa=0.4),
    "NE": dict(_BASE, c_gamma=1.0, kappa=0.6),
    # sigma^2 overflows before the last checkpoint in some replications
    "NE-overflow": dict(_BASE, c_alpha=6.0, c_gamma=2.0, kappa=0.2),
}


class Case(NamedTuple):
    label: str
    command: str           # verify, sweep, diagnose or simulate
    scheme: str            # a key of SCHEMES
    n: int
    reps: int
    innovation: dict = NORMAL
    tests: Tuple[str, ...] = ("vol_gof", "ret_gof", "independence")
    options: Tuple[str, ...] = ()


CASES = tuple(
    [Case(f"verify {s} {law}", "verify", s, 5000, 2000, inn)
     for law, inn in (("normal", NORMAL), ("t8", T8))
     for s in ("NS", "INT", "NE")]
    + [Case("verify NE-overflow ret_gof", "verify", "NE-overflow", 20000,
            200, tests=("ret_gof",)),
       Case("sweep NE", "sweep", "NE", 1000, 500,
            tests=("lemma", "remainders"),
            options=("--n-grid", "1000,10000,100000"))]
    + [Case(f"diagnose {s} {mode}", "diagnose", s, 2000, 200,
            options=("--mode", mode))
       for s in ("NS", "NE") for mode in ("classical", "literal")]
    + [Case(f"diagnose {s} {mode} n50000", "diagnose", s, 50000, 20,
            options=("--mode", mode))
       for s, mode in (("NS", "classical"), ("NE", "literal"))]
    + [Case("simulate NS", "simulate", "NS", 300, 5),
       Case("simulate NE-overflow", "simulate", "NE-overflow", 20000, 3)])


def load_cli(src: str):
    """The ``cli`` module of the mdgarch package under src, imported as a
    package of a name not used before (``_mdgarch_digest{i}``)."""
    init = Path(src).resolve() / "mdgarch" / "__init__.py"
    name = f"_mdgarch_digest{next(_LOADED)}"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{name}.cli")


def files_digest(out: str) -> str:
    """sha256 over the name and bytes of every file under out, in name
    order (of nothing if out does not exist)."""
    h = hashlib.sha256()
    paths = sorted(Path(out).rglob("*")) if os.path.isdir(out) else []
    for path in paths:
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_case(cli, case: Case, seed: int) -> Tuple[int, str]:
    """(exit code, digest of the output files) of one case on one tree."""
    doc = {"scheme": SCHEMES[case.scheme], "innovation": case.innovation,
           "grid": {"t_values": GRID},
           "run": {"n": case.n, "reps": case.reps, "master_seed": seed,
                   "tests": list(case.tests)}}
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(work, "out")
        argv = [case.command, "--config", config, "--out", out,
                *case.options]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        return rc, files_digest(out)


def digests(srcs: Sequence[str], seed: int, cases: Sequence[Case] = CASES
            ) -> Iterator[Tuple[Case, str, int, str]]:
    """(case, tree, exit code, digest) of every case on every tree, case
    by case."""
    clis = [load_cli(src) for src in srcs]
    for case in cases:
        for src, cli in zip(srcs, clis):
            yield (case, src) + run_case(cli, case, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append",
                        help="a source tree holding mdgarch (repeatable; "
                             "default: src/ of this checkout)")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    seen = {}  # case label -> the (exit code, digest) pairs of the trees
    for case, src, rc, digest in digests(srcs, args.seed):
        print(f"{case.label} | {src} | exit {rc} | {digest}", flush=True)
        seen.setdefault(case.label, set()).add((rc, digest))
    if len(srcs) > 1:
        differ = [label for label, results in seen.items()
                  if len(results) > 1]
        print(f"{len(seen) - len(differ)}/{len(seen)} cases equal on every "
              "tree" + (": differ in " + ", ".join(differ) if differ else ""))
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
