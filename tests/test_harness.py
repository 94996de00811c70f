import functools
import mmap
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mdgarch import harness, kernels
from mdgarch.gof import DEFAULT_LEVEL
from mdgarch.harness import (ConfigurationError, McConfig, McReport,
                             diag_checkpoint, independence_threshold,
                             run_experiment, run_n_sweep, sweep_verdict,
                             validate_config)
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.kernels import recursion_batch
from mdgarch.localization import LocalizationScheme, realize_params
from mdgarch.simulate import CLASSICAL, LITERAL, MODES, simulate_path
from mdgarch.stats import (CheckpointGrid, checkpoint_returns,
                           geometric_exp_sum)

NORMAL = InnovationSpec(kind="standard-normal")
T8 = InnovationSpec(kind="student-t-normalized", df=8.0)
GRID = CheckpointGrid((0.2, 0.4, 0.6, 0.8))


def ns_scheme(**kw):
    base = dict(omega=1.0, sigma0_sq=1.0, c_alpha=1.0, p=0.5,
                c_gamma=-1.0, kappa=0.4)
    base.update(kw)
    return LocalizationScheme(**base)


def ns_config(**kw):
    base = dict(scheme=ns_scheme(), innovation=NORMAL, n=2000, grid=GRID,
                reps=200, master_seed=7,
                tests=("vol_gof", "ret_gof", "independence"))
    base.update(kw)
    return McConfig(**base)


@pytest.fixture(scope="module")
def ns_report():
    return run_experiment(ns_config())


class TestValidation:
    def test_valid_config_ok(self):
        validate_config(ns_config())

    def test_literal_with_gof_rejected(self):
        with pytest.raises(ConfigurationError, match="literal"):
            validate_config(ns_config(mode=LITERAL))

    def test_literal_without_gof_allowed(self):
        validate_config(ns_config(mode=LITERAL,
                                  tests=("remainders", "tau_coupling")))

    def test_low_reps_with_gof_rejected(self):
        with pytest.raises(ConfigurationError, match="reps"):
            validate_config(ns_config(reps=50))

    def test_unknown_test_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown tests"):
            validate_config(ns_config(tests=("vol_gof", "anderson")))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config(ns_config(mode="paper"))

    def test_degenerate_innovation_rejected(self):
        bad = InnovationSpec(kind="two-point-mixture", a=1.0, b=-1.0, w=0.5)
        with pytest.raises(ConfigurationError):
            validate_config(ns_config(innovation=bad, reps=100))

    def test_lemma_needs_near_explosive(self):
        with pytest.raises(ConfigurationError, match="lemma"):
            validate_config(ns_config(tests=("lemma",)))

    def test_tau_needs_near_stationary(self):
        cfg = ns_config(scheme=ns_scheme(c_gamma=1.0, kappa=0.6),
                        tests=("tau_coupling",))
        with pytest.raises(ConfigurationError, match="tau"):
            validate_config(cfg)

    def test_ret_gof_needs_continuous_innovation(self):
        import math
        tp = InnovationSpec(kind="two-point-mixture", a=math.sqrt(0.5),
                            b=math.sqrt(1.5), w=0.5)
        with pytest.raises(ConfigurationError, match="continuous"):
            validate_config(ns_config(innovation=tp))

    def test_infeasible_scheme_rejected(self):
        cfg = ns_config(scheme=ns_scheme(c_alpha=10.0, p=0.1), n=150)
        with pytest.raises(ConfigurationError):
            validate_config(cfg)

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigurationError, match="level"):
            validate_config(ns_config(level=0.0))


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = ns_config(level=0.02, mode="classical")
        assert McConfig.from_config(cfg.to_config()) == cfg

    def test_malformed_raises_config_error(self):
        with pytest.raises(ConfigurationError):
            McConfig.from_config({"scheme": {}})

    def test_defaults_filled(self):
        doc = ns_config().to_config()
        del doc["run"]["mode"]
        del doc["run"]["level"]
        cfg = McConfig.from_config(doc)
        assert cfg.mode == "classical"
        assert cfg.level == DEFAULT_LEVEL

    def test_integral_float_counts_as_integer(self):
        # JSON may spell n = 2000 as 2e3
        doc = ns_config().to_config()
        doc["run"]["n"] = 2e3
        cfg = McConfig.from_config(doc)
        assert cfg == ns_config() and type(cfg.n) is int


class TestRunExperiment:
    def test_ns_small_run_passes(self, ns_report):
        assert ns_report.regime == "near-stationary"
        assert ns_report.verdict
        assert set(ns_report.results) == {"vol_gof", "ret_gof",
                                          "independence"}

    def test_every_enabled_test_reported(self):
        cfg = ns_config(tests=("vol_gof", "remainders", "tau_coupling"))
        rep = run_experiment(cfg)
        assert set(rep.results) == set(cfg.tests)

    def test_moments_per_checkpoint(self, ns_report):
        assert len(ns_report.moments) == 4
        for mom, k in zip(ns_report.moments, ns_report.checkpoints):
            assert mom["k"] == k
            assert abs(mom["vol_mean"]) < 1.0
            assert 0.3 < mom["vol_sd"] < 3.0

    def test_determinism_byte_identical(self, ns_report):
        again = run_experiment(ns_config())
        assert again.to_json() == ns_report.to_json()
        assert again.stats_csv() == ns_report.stats_csv()

    def test_json_roundtrip(self, ns_report):
        parsed = McReport.from_json(ns_report.to_json())
        assert parsed.to_json() == ns_report.to_json()

    def test_stats_csv_shape(self, ns_report):
        lines = ns_report.stats_csv().strip().split("\n")
        assert lines[0] == "rep,checkpoint_k,vol_stat,ret_stat"
        assert len(lines) == 1 + 200 * 4

    def test_seed_changes_stats(self, ns_report):
        other = run_experiment(ns_config(master_seed=8))
        assert not np.array_equal(other.vol_stats, ns_report.vol_stats)

    def test_corrupt_centering_fails_vol_gof(self):
        rep = run_experiment(ns_config(tests=("vol_gof",)), vol_shift=1.0)
        assert not rep.verdict
        assert not rep.results["vol_gof"]["pass"]

    def test_omega_scaling_invariance(self, ns_report):
        # scaling omega (with sigma0_sq alongside) rescales sigma^2 paths
        # linearly but leaves every classical statistic invariant
        scaled = run_experiment(
            ns_config(scheme=ns_scheme(omega=2.5, sigma0_sq=2.5)))
        assert np.allclose(scaled.vol_stats, ns_report.vol_stats, rtol=1e-8)
        assert np.allclose(scaled.ret_stats, ns_report.ret_stats, rtol=1e-8)

    def test_independence_threshold(self):
        assert independence_threshold(2000) == pytest.approx(
            3.0 / np.sqrt(2000) + 0.003, rel=1e-12)

    def test_ne_diagnostics_run(self):
        cfg = ns_config(scheme=ns_scheme(c_gamma=1.0, kappa=0.6), reps=50,
                        tests=("lemma", "remainders"))
        rep = run_experiment(cfg)
        assert rep.results["lemma"]["mean"] > 0.0
        assert rep.results["remainders"]["r2_max_median"] > 0.0


REGIME_SCHEMES = {"NS": ns_scheme(), "INT": ns_scheme(p=0.6, c_gamma=0.0),
                  "NE": ns_scheme(c_gamma=1.0, kappa=0.6)}
DIAGNOSTICS = {"NS": ("tau_coupling", "remainders"), "INT": ("remainders",),
               "NE": ("lemma", "remainders")}


def report_bytes(config):
    """What a run writes: report.json, stats.csv and the decompositions."""
    rep = run_experiment(config)
    return (rep.to_json(), rep.stats_csv(),
            None if rep.decompositions is None
            else [repr(d) for d in rep.decompositions])


class TestWorkerCount:
    """Reports do not depend on how many row blocks of the sampling and
    the path diagnostics run at once."""

    @staticmethod
    def outputs(monkeypatch, config, workers):
        monkeypatch.setattr(kernels, "WORKERS", workers)
        return report_bytes(config)

    @pytest.mark.parametrize("innovation", [NORMAL, T8], ids=["normal", "t8"])
    @pytest.mark.parametrize("regime", REGIME_SCHEMES)
    def test_verify_bytes(self, monkeypatch, regime, innovation):
        config = ns_config(scheme=REGIME_SCHEMES[regime],
                           innovation=innovation, n=400, reps=120)
        want = self.outputs(monkeypatch, config, 1)
        for workers in (2, 3, 7):
            assert self.outputs(monkeypatch, config, workers) == want

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("regime", REGIME_SCHEMES)
    def test_diagnose_bytes(self, monkeypatch, regime, mode):
        # k = 1600: 20 rows per diagnostic block, so a worker's 25 or 17
        # rows span two blocks
        config = ns_config(scheme=REGIME_SCHEMES[regime], reps=50, mode=mode,
                           tests=DIAGNOSTICS[regime])
        want = self.outputs(monkeypatch, config, 1)
        assert len(want[2]) == 50
        for workers in (2, 3, 7):
            assert self.outputs(monkeypatch, config, workers) == want

    def test_short_switch_interval_many_workers(self, monkeypatch):
        # more workers than cores, switching threads every microsecond:
        # a lost or misplaced write into the shared result arrays and
        # list would change the bytes
        config = ns_config(scheme=REGIME_SCHEMES["NE"], reps=50,
                           tests=DIAGNOSTICS["NE"])
        want = self.outputs(monkeypatch, config, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert self.outputs(monkeypatch, config, 16) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("where", ["sample_innovations", "lemma_rows"])
    def test_exception_in_a_later_worker_surfaces(self, monkeypatch, where):
        class Boom(RuntimeError):
            pass

        real = getattr(harness, where)

        def failing(*args, **kwargs):
            # the last replication's first time block (sampling: its
            # generator still stands at the stream's start), or the first
            # diagnostic block a worker thread takes; the calling thread
            # holds its own block until then, so a worker thread takes one
            if where == "sample_innovations":
                fail = args[2].bit_generator.state == last_stream_start
            elif threading.current_thread() is main:
                worker_failed.wait(10)
                fail = False
            else:
                worker_failed.set()
                fail = True
            if fail:
                raise Boom(where)
            return real(*args, **kwargs)

        worker_failed = threading.Event()
        last_stream_start = RngStream(7, 49).generator().bit_generator.state

        main = threading.current_thread()
        monkeypatch.setattr(kernels, "WORKERS", 3)
        monkeypatch.setattr(harness, where, failing)
        before = threading.active_count()
        with pytest.raises(Boom):
            run_experiment(ns_config(scheme=REGIME_SCHEMES["NE"], reps=50,
                                     tests=DIAGNOSTICS["NE"]))
        assert threading.active_count() == before


@pytest.mark.parametrize("regime,mode,tests", [
    ("NS", CLASSICAL, McConfig.tests), ("INT", CLASSICAL, McConfig.tests),
    ("NE", LITERAL, DIAGNOSTICS["NE"]), ("NS", CLASSICAL, DIAGNOSTICS["NS"])],
    ids=["NS-verify", "INT-verify", "NE-literal-diagnose",
         "NS-classical-diagnose"])
def test_chunk_size_leaves_reports_unchanged(monkeypatch, regime, mode,
                                             tests):
    config = ns_config(scheme=REGIME_SCHEMES[regime], n=400, reps=120,
                       mode=mode, tests=tests)
    # a chunk holds CHUNK_ROWS rows, with path diagnostics or without
    assert harness.CHUNK_ROWS >= config.reps
    want = report_bytes(config)
    for rows in (1, 7, 50):
        monkeypatch.setattr(harness, "CHUNK_ROWS", rows)
        assert report_bytes(config) == want


@pytest.mark.parametrize("regime,mode", [
    ("NE", CLASSICAL), ("NE", LITERAL), ("NS", CLASSICAL), ("NS", LITERAL),
    ("INT", CLASSICAL)])
def test_diagnostic_block_leaves_reports_unchanged(monkeypatch, regime,
                                                   mode):
    # each diagnostic block redraws its rows' [0, k) into arrays that its
    # thread reuses from block to block, including a shorter last block:
    # by default 102 rows at k = 320 (blocks of 102 and 18 rows)
    config = ns_config(scheme=REGIME_SCHEMES[regime], n=400, reps=120,
                       mode=mode, tests=DIAGNOSTICS[regime])
    k = diag_checkpoint(config.n)
    assert harness.DIAG_BLOCK // k == 102
    want = report_bytes(config)
    for rows in (1, 3):
        monkeypatch.setattr(harness, "DIAG_BLOCK", rows * k)
        assert report_bytes(config) == want


# sigma^2 overflows between t = 1403 and 1410 at n = 2000 (seed 7)
OVERFLOW_NE = ns_scheme(c_gamma=3.0, kappa=0.2)


@pytest.mark.parametrize("scheme,mode,tests,n", [
    (REGIME_SCHEMES["NS"], CLASSICAL, McConfig.tests, 400),
    (REGIME_SCHEMES["INT"], CLASSICAL, McConfig.tests, 400),
    (REGIME_SCHEMES["NE"], CLASSICAL, McConfig.tests, 400),
    (REGIME_SCHEMES["NE"], LITERAL, DIAGNOSTICS["NE"], 400),
    (REGIME_SCHEMES["NS"], CLASSICAL, DIAGNOSTICS["NS"], 400),
    (OVERFLOW_NE, CLASSICAL, (), 2000)],
    ids=["NS-verify", "INT-verify", "NE-verify", "NE-literal-diagnose",
         "NS-classical-diagnose", "NE-overflow"])
def test_time_block_leaves_reports_unchanged(monkeypatch, scheme, mode,
                                             tests, n):
    # 300 columns is a multiple of neither the kernel's BLOCK nor k_diag
    # (320 at n = 400).  The path diagnostics redraw [0, k_diag) in a pass
    # of their own, whatever the time blocks.  The overflowing scheme runs
    # without diagnostics (its classical decomposition overflows); its
    # classical return statistic at k = 1600 (about e^-122) reads the
    # log-space track to the last bit
    config = ns_config(scheme=scheme, n=n, reps=120 if n == 400 else 40,
                       mode=mode, tests=tests)
    # by default a chunk of so few rows runs the whole path as one block
    want = report_bytes(config)
    for cols in (1, 7, 300):
        monkeypatch.setattr(harness, "_block_width", lambda rows, last: cols)
        assert report_bytes(config) == want


def test_overflow_scheme_overflows_across_time_blocks():
    # the rows of OVERFLOW_NE first overflow in different 7-column blocks
    # and inside (not at either end of) a 300-column block and the
    # default block of 40 rows (the whole path [0, 1600])
    params = realize_params(OVERFLOW_NE, 2000)
    eps = np.stack([RngStream(7, i).generator().standard_normal(2001)
                    for i in range(40)])
    t0 = recursion_batch(eps, params.omega, params.alpha_n, params.beta_n,
                         params.sigma0_sq, keep=[0])[2]
    assert (t0 > 0).all() and len({(t - 1) // 7 for t in t0}) > 1
    for cols in (300, harness._block_width(40, 1600)):
        assert all(0 < (t - 1) % cols < cols - 1 for t in t0)


class TestLastCheckpoint:
    """The harness draws and steps each replication only up to its last
    checkpoint; every statistic is still that of the whole path."""

    # sigma^2 overflows before the last checkpoint (k = 16000) in some rows
    OVERFLOWING = ns_scheme(c_alpha=6.0, c_gamma=2.0, kappa=0.2)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def reference_paths(scheme, n, ks):
        """sigma^2, log sigma^2 and eps at ks, and the first overflow, of
        simulate_path for replications 0..29 at seed 7 (the whole path)"""
        paths = [simulate_path(realize_params(scheme, n), NORMAL,
                               RngStream(7, i)) for i in range(30)]
        return [(p.sigma_sq[list(ks)], p.log_sigma_sq[list(ks)],
                 p.eps[list(ks)], p.overflow_at) for p in paths]

    @pytest.mark.parametrize("cols", [None, 64], ids=["one-block", "64-cols"])
    @pytest.mark.parametrize("scheme,mode,n", [
        (REGIME_SCHEMES["NS"], CLASSICAL, 400),
        (REGIME_SCHEMES["INT"], CLASSICAL, 400),
        (REGIME_SCHEMES["NE"], CLASSICAL, 400),
        (REGIME_SCHEMES["NE"], LITERAL, 400),
        (OVERFLOWING, CLASSICAL, 20000)],
        ids=["NS", "INT", "NE", "NE-literal", "NE-overflow"])
    def test_statistics_of_whole_paths(self, monkeypatch, scheme, mode, n,
                                       cols):
        config = ns_config(scheme=scheme, n=n, reps=30, mode=mode, tests=())
        if cols:
            # at n = 400 the last time block holds eps_320 alone, and the
            # kernel takes no step in it
            monkeypatch.setattr(harness, "_block_width",
                                lambda rows, last: cols)
        rep = run_experiment(config)
        params = realize_params(scheme, n)
        spec = harness.REGIMES[harness.classify_regime(params)]
        xi_var = harness.xi_second_moment(NORMAL)
        paths = self.reference_paths(scheme, n, rep.checkpoints)
        for i, (sigma_sq, log_sigma_sq, eps, _) in enumerate(paths):
            for m, k in enumerate(rep.checkpoints):
                s, ls = sigma_sq[m:m + 1], log_sigma_sq[m:m + 1]
                vol = spec.vol_stats(s, ls, params, n, k, xi_var, mode)
                ret = spec.ret_stats(
                    *checkpoint_returns(s, ls, eps[m:m + 1]), params, k, mode)
                assert rep.vol_stats[i, m].tobytes() == vol.value.tobytes()
                assert rep.ret_stats[i, m].tobytes() == ret.value.tobytes()
        overflowed = any(0 < t0 <= rep.checkpoints[-1] for *_, t0 in paths)
        assert overflowed == (scheme is self.OVERFLOWING)

    @pytest.mark.parametrize("tests", [(), DIAGNOSTICS["NE"]],
                             ids=["verify", "diagnostics"])
    def test_draw_count(self, monkeypatch, tests):
        drawn = []

        def counting(spec, count, *args, **kwargs):
            drawn.append(count)   # list.append is atomic across threads
            return real(spec, count, *args, **kwargs)

        real = harness.sample_innovations
        monkeypatch.setattr(harness, "sample_innovations", counting)
        config = ns_config(scheme=REGIME_SCHEMES["NE"], n=400, reps=30,
                           tests=tests)
        rep = run_experiment(config)
        want = config.reps * (rep.checkpoints[-1] + 1)
        if tests:
            want += config.reps * diag_checkpoint(config.n)
        assert sum(drawn) == want


def test_no_diagnostics_window_outlives_its_pass(monkeypatch):
    # each thread's diagnostic arrays live in an anonymous map of their
    # own, and no view of them is left when the kernel pass starts, so
    # their pages are back with the system before it maps its time block
    windows = []  # (weakref to the outermost array of s, mapped)
    live = []     # windows alive at each kernel pass

    def recording(xi, params, k, mode, s=None):
        outer = s
        while isinstance(outer.base, np.ndarray):
            outer = outer.base
        mapped = isinstance(getattr(outer.base, "obj", None), mmap.mmap)
        windows.append((weakref.ref(outer), mapped))
        return real(xi, params, k, mode, s=s)

    class Counting(harness.Recursion):
        def __init__(self, *args):
            live.append(sum(ref() is not None for ref, _ in windows))
            super().__init__(*args)

    real = harness.lemma_rows
    monkeypatch.setattr(harness, "lemma_rows", recording)
    monkeypatch.setattr(harness, "Recursion", Counting)
    run_experiment(ns_config(scheme=REGIME_SCHEMES["NE"], n=50000, reps=20,
                             tests=DIAGNOSTICS["NE"]))
    assert len(windows) == 20  # one row a block at k = 40000
    assert live == [0]
    assert all(mapped for _, mapped in windows)


class TestChunkShape:
    """The kernel pass runs chunks of at most CHUNK_ROWS rows on the
    calling thread, in time blocks of about BLOCK_DRAWS innovations set
    by the rows and the last checkpoint alone."""

    def test_acceptance_shape(self, monkeypatch):
        rows, threads, counts = [], [], []

        class Recording(harness.Recursion):
            def __init__(self, reps, *args):
                rows.append(reps)
                super().__init__(reps, *args)

            def _advance_rows(self, eps, a):
                threads.append(threading.get_ident())
                super()._advance_rows(eps, a)

        def counting(spec, count, *args, **kwargs):
            counts.append(count)  # list.append is atomic across threads
            return real(spec, count, *args, **kwargs)

        real = harness.sample_innovations
        monkeypatch.setattr(kernels, "WORKERS", 2)  # sampling threads
        monkeypatch.setattr(harness, "Recursion", Recording)
        monkeypatch.setattr(harness, "sample_innovations", counting)
        run_experiment(ns_config(n=5000, reps=2000))
        assert rows == [harness.CHUNK_ROWS] * 4
        assert len(threads) == 8
        assert set(threads) == {threading.get_ident()}
        # [0, 4000] in two blocks of 2001 and 2000 columns
        assert sorted(counts) == [2000] * 2000 + [2001] * 2000

    @pytest.mark.parametrize("reps", [1, 7, 499, 500, 501, 2000, 123457])
    @pytest.mark.parametrize("n", [20, 400, 5000, 10 ** 5, 10 ** 6])
    def test_block_rule(self, reps, n):
        last = GRID.checkpoints(n)[-1]
        for start in range(0, reps, harness.CHUNK_ROWS):
            rows = min(harness.CHUNK_ROWS, reps - start)
            width = harness._block_width(rows, last)
            assert rows * width <= harness.BLOCK_DRAWS + rows
            widths = [min(width, last + 1 - a)
                      for a in range(0, last + 1, width)]
            assert set(widths[:-1]) <= {width}
            assert 1 <= widths[-1] <= width


def test_stats_csv_formats_special_values():
    # the Python floats of tolist() print as numpy's float64 scalars do
    vol = np.array([[0.0, 5e-324, 1e308, np.inf, np.nan],
                    [-0.0, -5e-324, -1e308, -np.inf, -np.nan]])
    rep = McReport(config={}, regime="", checkpoints=(1, 2, 3, 4, 5),
                   results={}, moments=(), master_seed=0, verdict=True,
                   vol_stats=vol, ret_stats=vol[::-1])
    assert rep.stats_csv() == (
        "rep,checkpoint_k,vol_stat,ret_stat\n"
        "0,1,0,-0\n"
        "0,2,4.9406564584124654e-324,-4.9406564584124654e-324\n"
        "0,3,1e+308,-1e+308\n"
        "0,4,inf,-inf\n"
        "0,5,nan,nan\n"
        "1,1,-0,0\n"
        "1,2,-4.9406564584124654e-324,4.9406564584124654e-324\n"
        "1,3,-1e+308,1e+308\n"
        "1,4,-inf,inf\n"
        "1,5,nan,nan\n")


@pytest.mark.parametrize("p", [0.5, 0.7])
def test_ns_volatility_mean_offset(p):
    # pins measured behaviour, not criterion 2: the classical NS
    # statistic centres sigma_k^2 / omega on sum_{j=1}^{k-1} e^{j gamma},
    # while its mean is sum_{j<k} (1+gamma)^j + (1+gamma)^k sigma0^2/omega
    # (E eps^2 = 1); the mean of the statistic is that gap times its
    # prefactor, which tends to
    # (|c_gamma|^{3/2} / (2 c_alpha)) n^{p - 3 kappa/2} for normal eps
    config = ns_config(scheme=ns_scheme(p=p), n=10 ** 4, reps=2000,
                       master_seed=20260823, tests=("vol_gof",))
    rep = run_experiment(config)
    params = realize_params(config.scheme, config.n)
    a, g = params.alpha_n, params.gamma_n
    pref = np.sqrt(2.0 * abs(g) ** 3 / harness.xi_second_moment(NORMAL)) / a
    for m, k in enumerate(rep.checkpoints):
        growth = (1.0 + g) ** k
        mean = ((growth - 1.0) / g
                + growth * params.sigma0_sq / params.omega)
        offset = pref * (mean - geometric_exp_sum(g, k))
        col = rep.vol_stats[:, m]
        se = col.std() / np.sqrt(config.reps)
        assert abs(col.mean() - offset) < 4.0 * se, (k, col.mean(), offset)


class TestSweep:
    def test_grid_validation(self):
        cfg = ns_config(tests=("remainders",), reps=20)
        with pytest.raises(ConfigurationError):
            run_n_sweep(cfg, [1000])
        with pytest.raises(ConfigurationError):
            run_n_sweep(cfg, [1000, 1000, 2000])

    def test_sweep_structure(self):
        cfg = ns_config(scheme=ns_scheme(c_gamma=1.0, kappa=0.6), reps=30,
                        tests=("lemma", "remainders"))
        reports, trend = run_n_sweep(cfg, [400, 800, 1600])
        assert len(reports) == 3
        assert trend["n_grid"]["values"] == [400, 800, 1600]
        assert len(trend["lemma"]["means"]) == 3
        assert "within_factor_3" in trend["remainders"]["r2_over_alpha_sq"]

    def test_verdict_reads_every_trend_check(self):
        passed = [SimpleNamespace(verdict=True)] * 3
        band = {"min": 1.0, "max": 2.0, "ratio": 2.0, "within_factor_3": True}
        trend = {"n_grid": {"values": [400, 800, 1600]},
                 "lemma": {"means": [3.0, 2.0, 1.0],
                           "strictly_decreasing": True},
                 "tau_coupling": {"estimates": [3.0, 2.0, 1.0],
                                  "strictly_decreasing": True},
                 "remainders": {"r2_over_alpha_sq": band, "r3_scaled": band}}
        assert sweep_verdict(passed, trend)
        assert not sweep_verdict(passed[:2] + [SimpleNamespace(verdict=False)],
                                 trend)
        wide = dict(band, within_factor_3=False)
        for key, entry in (
                ("lemma", dict(trend["lemma"], strictly_decreasing=False)),
                ("tau_coupling",
                 dict(trend["tau_coupling"], strictly_decreasing=False)),
                ("remainders", {"r2_over_alpha_sq": band, "r3_scaled": wide})):
            assert not sweep_verdict(passed, dict(trend, **{key: entry})), key
