"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root; the traced runs take about two minutes:

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import DEFAULT_SEED  # noqa: E402
from tracer import EXACT_COUNTS, Tracer  # noqa: E402
from workloads import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-pass work of each workload, fixed by its configs
EXPECTED_COUNTS = {
    "verify-acceptance": {"kernels.calls": 3, "kernels.steps": 3 * 2000 * 5000,
                          "innovations.draws": 3 * 2000 * 5001,
                          "stats.calls": 3 * 2 * 2000 * 4, "gof.tests": 27,
                          "simulate.paths": 0},
    "single-paths": {"kernels.calls": 12, "kernels.steps": 12 * 5000,
                     "simulate.paths": 12, "stats.calls": 0, "gof.tests": 0},
    "sweep-long": {"kernels.steps": 500 * (1000 + 10000 + 100000),
                   "stats.calls": 3 * 500 * (2 * 4 + 1),
                   "simulate.decompose_calls": 3 * 500, "gof.tests": 0},
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{HERE.name}/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_exact_counts_repeat_across_runs(workload):
    # at the default seed every unit is also checked against reference.json
    args = ("--workload", workload, "--seed", str(DEFAULT_SEED),
            "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"]
                                          for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    for name, value in EXPECTED_COUNTS[workload].items():
        assert first["metrics"][name]["value"] == value, name


def test_end_to_end_metrics_at_another_seed():
    result = _result(_bench("--workload", "verify-acceptance", "--seed", "5",
                            "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["attempted"] == 6
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_checkout_without_program_fails_quietly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "single-paths", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf", "inner", "inner.calls")
    scalar = tracer.wrap(lambda: None, "scalar", "inner", "inner.calls",
                         keep_span=False)

    def body():
        leaf()
        scalar()

    tracer.wrap(body, "outer", "outer", "outer.calls")()
    # clock: outer 0..5, leaf 1..2, scalar 3..4
    assert tracer.self_s == {"inner": 2.0, "outer": 3.0}
    assert tracer.counts["inner.calls"] == 2
    assert [s[2] for s in tracer.spans] == ["leaf", "outer"]
    assert tracer.spans[0][1] == tracer.spans[1][0]  # leaf's parent


def test_tracer_restores_and_skips_missing_attributes():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = Tracer()
    tracer.install([(Owner, "f", "f", "layer", "layer.calls", None, True),
                    (Owner, "gone", "g", "layer", "layer.calls", None, True)])
    assert Owner.f(1) == 2 and tracer.counts["layer.calls"] == 1
    assert tracer.missing == ["Owner.gone"]
    tracer.uninstall()
    assert Owner.f is original


@pytest.mark.parametrize("key, want, got, ok", [
    ("p", 0.5, 0.5 + 9e-13, True),
    ("p", 0.5, 0.5 + 2e-12, False),
    ("log_sigma_sq", 8.25, 8.25 + math.ulp(8.25), True),
    ("log_sigma_sq", 8.25, 8.25 + 2 * math.ulp(8.25), False),
    ("lemma_mean", 0.02, 0.02 * (1 + 5e-10), True),
    ("lemma_mean", 0.02, 0.02 * (1 + 2e-9), False),
    ("D", 0.03, 0.03 + math.ulp(0.03), False),
    ("exit_code", 1, 1, True),
    ("exit_code", 1, 0, False),
])
def test_reference_tolerances(key, want, got, ok):
    assert (compare({key: got}, {key: want}) == []) is ok
