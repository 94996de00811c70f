"""In-memory span tracer wrapped around mdgarch's layer boundaries.

The program carries no tracing code.  ``Tracer.install`` replaces the
public functions that one layer calls in another, in the namespace of
the calling module (``mdgarch.cli``, ``mdgarch.harness``,
``mdgarch.simulate``, ``mdgarch.gof``, ``mdgarch.limits``), and
``Tracer.uninstall`` puts the originals back.

Each wrapped call records a span (id, parent id, name, start, end) and
adds to the counters of its layer.  A layer's self time is its spans'
durations minus the time covered by their child spans.  The scalar
statistics are called 2 x reps x checkpoints times per experiment, so
their calls are aggregated into a count and a total instead of one span
each; their time is still taken out of the parent's self time.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.spans: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Zero the per-layer totals and counters (spans are kept)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, fn: Callable, name: str, layer: str, calls_key: str,
             count: Optional[Callable] = None,
             keep_span: bool = True) -> Callable:
        """Return ``fn`` wrapped to record a span in ``layer``.

        ``count(counts, args, result)`` adds the call's work counts.
        With ``keep_span`` false the call is only aggregated.
        """
        stack, clock, ids = self._stack, self._clock, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [clock(), next(ids), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[layer + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self.self_s[layer] += duration - frame[2]
                self.total_s[name] += duration
                self.counts[calls_key] += 1
                if stack:
                    stack[-1][2] += duration
                if keep_span:
                    self.spans.append((frame[1], parent, name, frame[0], end))
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch ``(owner, attr, name, layer, calls_key, count, keep_span)``
        targets; an attribute the program no longer has is listed in
        ``missing`` and skipped."""
        self.missing = []
        for owner, attr, name, layer, calls_key, count, keep in targets:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(original, name, layer, calls_key, count, keep))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _kernel_counts(counts, args, result):
    reps, n1 = np.shape(args[0])
    counts["kernels.steps"] += reps * (n1 - 1)
    counts["kernels.rows"] += reps
    counts["kernels.overflow_rows"] += int(np.count_nonzero(result[2] >= 0))
    # computed from array sizes: eps read, sigma_sq and log_sigma_sq
    # written (8 bytes per element), plus the int64 overflow index
    counts["kernels.bytes_computed"] += 8 * (3 * reps * n1 + reps)


def _draw_counts(counts, args, result):
    counts["innovations.draws"] += int(args[1])


def _limit_counts(counts, args, result):
    counts["limits.draws"] += int(result.draws.size)


def _write_counts(counts, args, result):
    counts["report.bytes"] += len(args[2].encode("utf-8"))


STAT_FUNCTIONS = ("ns_volatility_stat", "ns_return_stat",
                  "int_volatility_stat", "int_return_stat",
                  "ne_volatility_stat", "ne_return_stat")


def layer_targets():
    """The layer boundaries the benchmark's workloads cross."""
    from mdgarch import cli, gof, harness, limits, simulate

    targets = [
        (cli, "main", "cli.main", "cli", "cli.calls", None, True),
        (cli, "run_experiment", "harness.run_experiment", "harness",
         "harness.calls", None, True),
        (cli, "run_n_sweep", "harness.run_n_sweep", "harness",
         "harness.calls", None, True),
        (harness, "run_experiment", "harness.run_experiment", "harness",
         "harness.calls", None, True),
        (cli, "_write", "report.write", "report", "report.calls",
         _write_counts, True),
        (harness.McReport, "to_json", "report.to_json", "report",
         "report.calls", None, True),
        (harness.McReport, "stats_csv", "report.stats_csv", "report",
         "report.calls", None, True),
        (harness, "lemma_discrepancy", "stats.lemma", "stats", "stats.calls",
         None, True),
        (harness, "tau_stats", "stats.tau", "stats", "stats.calls", None,
         True),
        (harness, "decompose_volatility", "simulate.decompose", "simulate",
         "simulate.decompose_calls", None, True),
        (simulate, "simulate_path", "simulate.path", "simulate",
         "simulate.paths", None, True),
        (simulate, "volatility_multiplicative", "simulate.oracle",
         "simulate", "simulate.oracle_calls", None, True),
        (gof, "ks_one_sample", "gof.ks_one_sample", "gof", "gof.tests", None,
         True),
        (gof, "ks_two_sample", "gof.ks_two_sample", "gof", "gof.tests", None,
         True),
        (gof, "max_offdiag_abs_correlation", "gof.independence", "gof",
         "gof.tests", None, True),
        (limits, "sample_time_weighted_wiener", "limits.sample", "limits",
         "limits.calls", _limit_counts, True),
        (limits, "sample_wiener_marginals", "limits.sample", "limits",
         "limits.calls", _limit_counts, True),
    ]
    for owner in (harness, simulate):
        targets += [
            (owner, "sample_innovations", "innovations.sample", "innovations",
             "innovations.calls", _draw_counts, True),
            (owner, "recursion_batch", "kernels.recursion", "kernels",
             "kernels.calls", _kernel_counts, True),
        ]
    targets += [(harness, fn, "stats.scalar", "stats", "stats.calls", None,
                 False) for fn in STAT_FUNCTIONS]
    return targets


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the calls traced since the last reset."""
    s, t, c = tracer.self_s, tracer.total_s, tracer.counts

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "kernels.busy_s": s["kernels"],
        "kernels.calls": c["kernels.calls"],
        "kernels.steps": c["kernels.steps"],
        "kernels.ns_per_step": ratio(s["kernels"], c["kernels.steps"], 1e9),
        "kernels.bytes_computed": c["kernels.bytes_computed"],
        "kernels.overflow_rows": c["kernels.overflow_rows"],
        "kernels.overflow_frac": ratio(c["kernels.overflow_rows"],
                                       c["kernels.rows"]),
        "innovations.busy_s": s["innovations"],
        "innovations.calls": c["innovations.calls"],
        "innovations.draws": c["innovations.draws"],
        "innovations.ns_per_draw": ratio(s["innovations"],
                                         c["innovations.draws"], 1e9),
        "stats.busy_s": s["stats"],
        "stats.calls": c["stats.calls"],
        "stats.us_per_call": ratio(s["stats"], c["stats.calls"], 1e6),
        "stats.lemma_s": t["stats.lemma"],
        "stats.errors": c["stats.errors"],
        "harness.self_s": s["harness"],
        "simulate.busy_s": s["simulate"],
        "simulate.paths": c["simulate.paths"],
        "simulate.oracle_s": t["simulate.oracle"],
        "simulate.decompose_s": t["simulate.decompose"],
        "simulate.decompose_calls": c["simulate.decompose_calls"],
        "limits.busy_s": s["limits"],
        "limits.draws": c["limits.draws"],
        "gof.busy_s": s["gof"],
        "gof.tests": c["gof.tests"],
        "report.busy_s": s["report"],
        "report.bytes": c["report.bytes"],
        "cli.self_s": s["cli"],
    }


#: counts that must repeat bit-for-bit across passes and runs
EXACT_COUNTS = ("kernels.calls", "kernels.steps", "kernels.bytes_computed",
                "kernels.overflow_rows", "innovations.calls",
                "innovations.draws", "stats.calls", "stats.errors",
                "simulate.paths", "simulate.decompose_calls", "limits.draws",
                "gof.tests", "report.bytes")
