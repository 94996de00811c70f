import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdgarch
from mdgarch import cli, gof, harness
from mdgarch.cli import main
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.localization import LocalizationScheme, Regime, realize_params
from mdgarch.simulate import (DecompositionOverflow, decompose_volatility,
                              simulate_path)
from mdgarch.stats import CancellationError


def write_config(path, *, c_gamma=-1.0, kappa=0.4, p=0.5, n=1500, reps=150,
                 seed=11, mode="classical", tests=None, extra=None):
    doc = {
        "scheme": {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 1.0, "p": p,
                   "c_gamma": c_gamma, "kappa": kappa},
        "innovation": {"kind": "standard-normal"},
        "grid": {"t_values": [0.2, 0.4, 0.6, 0.8]},
        "run": {"n": n, "reps": reps, "master_seed": seed, "mode": mode,
                "tests": tests or ["vol_gof", "ret_gof", "independence"],
                "level": 0.01},
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_writes_reps_files_with_stream_headers(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=50, reps=10)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert len(files) == 10
        indices = set()
        for f in files:
            header = (out / f).read_text().splitlines()[0]
            assert header.startswith("# master_seed=11,stream_index=")
            indices.add(header.rsplit("=", 1)[1])
        assert len(indices) == 10

    def test_fixed_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=50, reps=3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        for f in os.listdir(out1):
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2


class TestVerify:
    def test_passing_run_exit_0(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=2000, reps=200, seed=7)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] is True
        assert (out / "stats.csv").exists()

    def test_corrupt_centering_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=2000, reps=200, seed=7)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--corrupt-centering"]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] is False

    def test_literal_mode_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path),
                     "--mode", "literal"]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2

    def test_cancellation_exit_3(self, tmp_path, capsys, monkeypatch):
        # a statistic that loses all its digits is neither a statistical
        # FAIL (1) nor a traceback
        spec = harness.REGIMES[Regime.NEAR_STATIONARY]

        def vol_stats(sigma_k_sq, log_sigma_k_sq, params, n, k, *args):
            if k == 800:
                raise CancellationError(f"checkpoint k={k}", 0,
                                        "centered difference lost all "
                                        "significant digits")
            return spec.vol_stats(sigma_k_sq, log_sigma_k_sq, params, n, k,
                                  *args)

        monkeypatch.setitem(harness.REGIMES, Regime.NEAR_STATIONARY,
                            dataclasses.replace(spec, vol_stats=vol_stats))
        cfg = write_config(tmp_path / "c.json", n=2000, reps=200, seed=7)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "k=800" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chunk_rows", [30, 37, 38, None])
    def test_cancellation_names_the_replication(self, tmp_path, capsys,
                                                monkeypatch, chunk_rows):
        # only replication 37 cancels at k = 800; the chunk's batch
        # raises, and the message names the checkpoint and that
        # replication, also when it lies in a later chunk (a verify chunk
        # holds CHUNK_ROWS rows)
        if chunk_rows is not None:
            monkeypatch.setattr(harness, "CHUNK_ROWS", chunk_rows)
        cfg = write_config(tmp_path / "c.json", n=2000, reps=200, seed=7)
        doc = json.loads(cfg.read_text())
        params = realize_params(LocalizationScheme.from_config(doc["scheme"]),
                                2000)
        target = simulate_path(params, InnovationSpec("standard-normal"),
                               RngStream(7, 37)).sigma_sq[800]
        spec = harness.REGIMES[Regime.NEAR_STATIONARY]

        def vol_stats(sigma_k_sq, log_sigma_k_sq, params, n, k, *args):
            if k == 800 and (sigma_k_sq == target).any():
                # the batch row of replication 37, as ne_volatility_stats
                # names its first cancelling row
                raise CancellationError(
                    f"checkpoint k={k}",
                    int(np.flatnonzero(sigma_k_sq == target)[0]),
                    "centered difference lost all significant digits")
            return spec.vol_stats(sigma_k_sq, log_sigma_k_sq, params, n, k,
                                  *args)

        monkeypatch.setitem(harness.REGIMES, Regime.NEAR_STATIONARY,
                            dataclasses.replace(spec, vol_stats=vol_stats))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "checkpoint k=800, replication 37:" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_independence_column_exit_3(self, tmp_path, capsys):
        # on this explosive scheme every replication reads the same
        # statistic at all four checkpoints (sigma^2 is lost against the
        # centring), so the increments have no correlation to test: a
        # numerical breakdown, not a configuration error (2)
        scheme = {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 6.0, "p": 0.5,
                  "c_gamma": 2.0, "kappa": 0.2}
        cfg = write_config(tmp_path / "c.json", n=20000, reps=200,
                           seed=20260823, extra={"scheme": scheme})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error: numerical breakdown: independence of the increments, " \
            "checkpoint k=8000: the column is constant" in err
        assert not out.exists()

    def test_constant_gof_column_exit_3(self, tmp_path, capsys):
        # the same scheme without the independence test: the KS test of a
        # column that holds one value would read a large D and exit 1
        scheme = {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 6.0, "p": 0.5,
                  "c_gamma": 2.0, "kappa": 0.2}
        cfg = write_config(tmp_path / "c.json", n=20000, reps=200,
                           seed=20260823, tests=["vol_gof"],
                           extra={"scheme": scheme})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "error: numerical breakdown: vol_gof, checkpoint k=4000: " \
            "the column is constant" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_return_column_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        # a zero return at k = 1200 in every replication: ret_gof's column
        # there is constant, vol_gof's are not
        spec = harness.REGIMES[Regime.NEAR_STATIONARY]

        def ret_stats(u_k, log_abs_u, params, k, *args):
            return spec.ret_stats(u_k * 0.0 if k == 1200 else u_k, log_abs_u,
                                  params, k, *args)

        monkeypatch.setitem(harness.REGIMES, Regime.NEAR_STATIONARY,
                            dataclasses.replace(spec, ret_stats=ret_stats))
        cfg = write_config(tmp_path / "c.json", n=2000, reps=200, seed=7,
                           tests=["vol_gof", "ret_gof"])
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "error: numerical breakdown: ret_gof, checkpoint k=1200: " \
            "the column is constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c_gamma", [1e-20, 5e-324, -5e-324])
    def test_gamma_lost_in_beta_exit_2(self, tmp_path, capsys, c_gamma):
        # the scheme cannot carry its regime at n = 10: a configuration
        # error, not a statistical FAIL (1) or a traceback
        cfg = write_config(tmp_path / "c.json", c_gamma=c_gamma, n=10,
                           reps=100)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "lost in beta_n" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=800, reps=120)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", str(cfg), "--out", str(out1)])
        main(["verify", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "stats.csv").read_bytes() == \
            (out2 / "stats.csv").read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=800, reps=120)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", str(cfg), "--out", str(out1)])
        main(["verify", "--config", str(cfg), "--out", str(out2),
              "--seed", "99"])
        assert (out1 / "stats.csv").read_bytes() != \
            (out2 / "stats.csv").read_bytes()


class TestDiagnose:
    def test_outputs_and_qq_row_count(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=600, reps=40)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(out)]) == 0
        qq = (out / "qq.csv").read_text().strip().split("\n")
        assert len(qq) == 1 + 40 * 4
        assert (out / "diagnostics.json").exists()
        assert (out / "components.csv").exists()

    def test_literal_mode_finite_log_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=600, reps=40,
                           mode="literal")
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = (out / "components.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            val = float(row.split(",")[2])
            assert math.isfinite(val)
        doc = json.loads((out / "diagnostics.json").read_text())
        rem = doc["results"]["remainders"]
        for key in ("r1_abs_median", "r2_max_median", "r3_rel_median"):
            assert math.isfinite(rem[key])

    @pytest.mark.parametrize("mode", ["classical", "literal"])
    def test_components_are_the_paths_decompositions(self, tmp_path, mode):
        # the rows of the first 20 replications equal the decomposition of
        # each replication's own simulated path
        cfg = write_config(tmp_path / "c.json", n=600, reps=25, mode=mode)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = [row.split(",") for row in
                (out / "components.csv").read_text().splitlines()[1:]]
        assert len(rows) == 20 * 4
        params = realize_params(LocalizationScheme.from_config(
            json.loads(cfg.read_text())["scheme"]), 600)
        k = harness.diag_checkpoint(600)
        for i in range(20):
            path = simulate_path(params, InnovationSpec("standard-normal"),
                                 RngStream(11, i))
            dec = decompose_volatility(path, params, k, mode)
            for c, comp in enumerate(dec.components):
                rep, comp_no, value, sign, _ = rows[4 * i + c]
                assert (int(rep), int(comp_no)) == (i, c + 1)
                if mode == "classical":
                    assert (float(value), int(sign)) == \
                        (comp, 1 if comp >= 0 else -1)
                else:
                    log_mag, comp_sign = comp
                    assert float(value) == log_mag / math.log(10.0)
                    assert int(sign) == int(comp_sign)

    def test_degenerate_innovation_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        doc = json.loads(cfg.read_text())
        doc["innovation"] = {"kind": "two-point-mixture", "a": 1.0,
                             "b": -1.0, "w": 0.5}
        cfg.write_text(json.dumps(doc))
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("block_rows", [None, 1])
    def test_classical_overflow_exit_3(self, tmp_path, capsys, monkeypatch,
                                       block_rows):
        # sigma_0^2 times the product of the k = 1600 factors exceeds the
        # float range on some replications of this scheme (seed 7): a
        # numerical breakdown (3) that names the first of them, also when
        # each diagnostic block holds one row and later blocks fail too
        if block_rows is not None:
            monkeypatch.setattr(harness, "DIAG_BLOCK", block_rows * 1600)
        scheme = {"omega": 1.0, "sigma0_sq": 1.0, "c_alpha": 6.0, "p": 0.5,
                  "c_gamma": 2.0, "kappa": 0.2}
        cfg = write_config(tmp_path / "c.json", n=2000, reps=40, seed=7,
                           extra={"scheme": scheme})
        params = realize_params(LocalizationScheme.from_config(scheme), 2000)
        overflows = []
        for i in range(40):
            path = simulate_path(params, InnovationSpec("standard-normal"),
                                 RngStream(7, i))
            try:
                decompose_volatility(path, params, 1600)
            except DecompositionOverflow:
                overflows.append(i)
        assert 0 < overflows[0] and len(overflows) > 1
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (f"classical decomposition overflows at k=1600, replication "
                f"{overflows[0]}:") in err
        assert "literal mode" in err and "Traceback" not in err
        assert not out.exists()
        assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                     "--mode", "literal"]) == 0

    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys):
        # the diagnostics' (1, 8e14) row arrays (6.4e15 bytes each) exceed
        # any address space, so numpy refuses them without touching memory
        cfg = write_config(tmp_path / "c.json", n=10 ** 15, reps=2)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "error: out of memory" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", c_gamma=1.0, kappa=0.6,
                           reps=30, tests=["lemma", "remainders"],
                           extra={"sweep": {"n_grid": [400, 800, 1600]}})
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1)
        assert (out / "trend.json").exists()
        for n in (400, 800, 1600):
            assert (out / f"report_n{n}.json").exists()

    def test_n_grid_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", c_gamma=1.0, kappa=0.6,
                           reps=20, tests=["remainders"])
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--n-grid", "300,600,1200"])
        assert code in (0, 1)
        assert (out / "report_n300.json").exists()

    def test_missing_grid_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tests=["remainders"],
                           reps=20)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


class TestUsage:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exit_2(self, capsys):
        assert main(["verify"]) == 2


class TestInternalError:
    """Any other exception is a fault in the program: exit 4 with its
    traceback, never 1 (a failed test), and no report."""

    @staticmethod
    def fault(*args):
        raise KeyError("injected")

    def check(self, command, tmp_path, capsys,
              raised="KeyError: 'injected'"):
        cfg = write_config(tmp_path / "c.json", n=400, reps=120)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "error: internal error" in err
        assert "Traceback" in err and raised in err
        assert not out.exists()

    def test_verify_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "checkpoint_returns", self.fault)
        self.check("verify", tmp_path, capsys)

    def test_diagnose_exit_4(self, tmp_path, capsys, monkeypatch):
        # the fault comes after diagnostics.json's text is built
        monkeypatch.setattr(cli, "_qq_csv", self.fault)
        self.check("diagnose", tmp_path, capsys)

    def test_mid_run_value_error_exit_4(self, tmp_path, capsys, monkeypatch):
        # a ValueError from inside a run is a fault, not a configuration
        # error (2)
        def fault(*args):
            raise ValueError("injected")

        monkeypatch.setattr(gof, "ks_one_sample", fault)
        self.check("verify", tmp_path, capsys, "ValueError: injected")


# c_gamma's sign picks the regime, each with the diagnostics a sweep
# may run; the last scheme's classical decompositions overflow (see
# test_classical_overflow_exit_3)
SCHEMES = [
    ({"c_alpha": 1.0, "c_gamma": -1.0}, ["tau_coupling", "remainders"]),
    ({"c_alpha": 1.0, "c_gamma": 0.0}, ["remainders"]),
    ({"c_alpha": 1.0, "c_gamma": 1.0}, ["lemma", "remainders"]),
    ({"c_alpha": 6.0, "c_gamma": 2.0, "kappa": 0.2, "p": 0.5},
     ["lemma", "remainders"])]
INNOVATIONS = [{"kind": "standard-normal"},
               {"kind": "student-t-normalized", "df": 8.0},
               {"kind": "two-point-mixture", "a": 0.5, "b": math.sqrt(1.75),
                "w": 0.5}]


def _written_verdict(out, command):
    if command == "sweep":
        reports = [SimpleNamespace(**json.loads(f.read_text()))
                   for f in out.glob("report_n*.json")]
        assert len(reports) == 3
        trend = json.loads((out / "trend.json").read_text())
        return harness.sweep_verdict(reports, trend)
    name = "report.json" if command == "verify" else "diagnostics.json"
    return json.loads((out / name).read_text())["verdict"]


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(["verify", "diagnose", "sweep"]),
       scheme=st.sampled_from(SCHEMES),
       kappa=st.sampled_from([0.01, 0.5, 0.99]),
       p=st.sampled_from([0.01, 0.5, 0.99]),
       mode=st.sampled_from(["classical", "literal"]),
       innovation=st.sampled_from(INNOVATIONS),
       n=st.sampled_from([300, 3000, 20000]),
       reps=st.sampled_from([30, 120, 200]), seed=st.integers(0, 2 ** 32 - 1))
def test_exit_code_property(tmp_path_factory, command, scheme, kappa, p, mode,
                            innovation, n, reps, seed):
    # exit 0-3 only, 1 exactly when the written verdict is false, and no
    # output on 2 or 3
    scheme, diagnostics = scheme
    if command == "sweep":
        tests = diagnostics
    else:
        tests = ["vol_gof", "independence"]
        if innovation["kind"] != "two-point-mixture":
            tests.append("ret_gof")
    scheme = {"omega": 1.0, "sigma0_sq": 1.0, "kappa": kappa, "p": p,
              **scheme}
    tmp = tmp_path_factory.mktemp("exit")
    cfg = write_config(tmp / "c.json", n=n, reps=reps, seed=seed, mode=mode,
                       tests=tests,
                       extra={"scheme": scheme, "innovation": innovation,
                              "sweep": {"n_grid": [n // 4, n // 2, n]}})
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code >= 2:
        assert not out.exists()
    else:
        assert (code == 1) == (not _written_verdict(out, command))


def _set(section, key, value):
    def edit(doc):
        doc[section][key] = value
        return doc
    return edit


def _innovation(**spec):
    def edit(doc):
        doc["innovation"] = spec
        doc["run"]["tests"] = ["vol_gof", "independence"]
        return doc
    return edit


class TestMalformedConfig:
    """A config value of the wrong JSON type is a configuration error
    (exit 2), never a traceback or a statistical FAIL (1)."""

    @pytest.mark.parametrize("command,edit,flags", [
        ("verify", lambda doc: [doc], []),
        ("verify", lambda doc: {**doc, "run": []}, ["--seed", "3"]),
        ("verify", _set("scheme", "c_gamma", "1"), []),
        ("verify", _innovation(kind="student-t-normalized", df="8"), []),
        ("verify", _innovation(kind="two-point-mixture", a="0.5",
                               b=math.sqrt(1.75), w=0.5), []),
        ("sweep", lambda doc: {**doc, "sweep": {"n_grid": 5}}, []),
        ("verify", _set("run", "tests", [["vol_gof"]]), []),
        ("verify", _set("run", "tests", "vol_gof"), []),
    ], ids=["document-list", "run-list", "c_gamma-string", "df-string",
            "mixture-a-string", "n_grid-int", "tests-nested-list",
            "tests-string"])
    def test_exit_2(self, tmp_path, capsys, command, edit, flags):
        cfg = write_config(tmp_path / "c.json", n=400, reps=120)
        cfg.write_text(json.dumps(edit(json.loads(cfg.read_text()))))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]
                    + flags) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


    def test_tests_string_is_named(self, tmp_path, capsys):
        # a string is not split into one-letter test names
        cfg = write_config(tmp_path / "c.json", n=400, reps=120)
        cfg.write_text(json.dumps(
            _set("run", "tests", "vol_gof")(json.loads(cfg.read_text()))))
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "run.tests must be a list" in err and "'v'" not in err


class TestRefusedBeforeDrawing:
    """A config that no run can honour exits 2 before the first draw,
    never through an exception from inside the run."""

    @staticmethod
    def no_draws(*args):
        raise AssertionError("drew innovations")

    @pytest.mark.parametrize("command,edit,flags,message", [
        ("verify", _set("run", "n", math.inf), [],
         "invalid config: run.n must be an integer, got inf"),
        ("verify", _set("run", "reps", "REPS"), [],
         "invalid config: run.reps must be an integer, got inf"),
        ("verify", _set("run", "master_seed", -1), [], "master_seed"),
        ("verify", _set("run", "n", 1000.7), [],
         "run.n must be an integer, got 1000.7"),
        ("sweep", _set("run", "reps", 120.5), ["--n-grid", "400,800,1600"],
         "run.reps must be an integer, got 120.5"),
        ("verify", _set("run", "master_seed", 7.25), [],
         "run.master_seed must be an integer, got 7.25"),
        ("diagnose", _set("run", "n", "400"), [],
         "run.n must be an integer, got '400'"),
        ("verify", _set("run", "level", "tight"), [],
         "run.level must be a number, got 'tight'"),
        ("verify", lambda doc: _set("run", "reps", 5)(
            _set("run", "tests", ["independence"])(doc)), [],
         "independence test needs reps >= 10"),
        ("verify", _innovation(kind="student-t-normalized", df=math.inf), [],
         "finite df"),
        ("verify", _innovation(kind="student-t-normalized", df=math.nan), [],
         "finite df"),
        ("verify", _innovation(kind="two-point-mixture", a=math.nan,
                               b=math.sqrt(1.75), w=0.5), [], "unit variance"),
        ("sweep", _set("run", "tests", ["remainders"]),
         ["--n-grid", "1000,x"], "--n-grid"),
        ("verify", _set("scheme", "omega", math.nan), [], "omega"),
        ("verify", _set("scheme", "sigma0_sq", math.inf), [], "sigma0_sq"),
        ("verify", _set("scheme", "c_alpha", math.nan), [], "c_alpha"),
        ("diagnose", _set("scheme", "c_gamma", math.inf), [], "c_gamma"),
    ], ids=["n-infinite", "reps-1e400", "seed-negative", "n-fraction",
            "reps-fraction", "seed-fraction", "n-string", "level-string",
            "independence-reps-5",
            "df-infinite", "df-nan", "mixture-a-nan", "n-grid-not-integer",
            "omega-nan", "sigma0_sq-infinite", "c_alpha-nan",
            "c_gamma-infinite"])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, command, edit, flags,
                    message):
        monkeypatch.setattr(harness, "stream_generators", self.no_draws)
        cfg = write_config(tmp_path / "c.json", n=400, reps=120)
        # 1e400 has no JSON spelling of its own; it parses as infinity
        cfg.write_text(json.dumps(edit(json.loads(cfg.read_text())))
                       .replace('"REPS"', "1e400"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]
                    + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_verify_imports_neither_scipy_nor_concurrent_futures(tmp_path):
    # importing scipy.special (0.19 s on a 2-vCPU Xeon host) takes longer
    # than a small verify run's whole set-up; only the CDFs that need it
    # import it.  The worker threads use threading, not an executor
    cfg = write_config(tmp_path / "c.json", n=400, reps=120)
    script = ("import sys; from mdgarch.cli import main; "
              f"rc = main(['verify', '--config', {str(cfg)!r}, "
              f"'--out', {str(tmp_path / 'out')!r}]); "
              "print(rc, sorted(m for m in ('scipy', 'concurrent.futures') "
              "if m in sys.modules))")
    rc, imported = _run_child(script).split(" ", 1)
    assert rc in ("0", "1") and imported == "[]"


def _run_child(script: str) -> str:
    """The last stdout line of `script` run in a fresh interpreter that
    imports this mdgarch."""
    src = os.path.dirname(os.path.dirname(mdgarch.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def _peak_rss_kb(argv) -> Tuple[str, int]:
    """(exit code, peak RSS in KiB) of `mdgarch argv` in a fresh
    interpreter.  Linux carries a process's peak RSS across fork and exec
    into its child's ru_maxrss, so the run is the child of a small
    launcher, not of this process."""
    argv = [sys.executable, "-m", "mdgarch.cli"] + argv
    script = ("import resource, subprocess; "
              f"rc = subprocess.run({argv!r}, "
              "stdout=subprocess.DEVNULL).returncode; "
              "print(rc, resource.getrusage("
              "resource.RUSAGE_CHILDREN).ru_maxrss)")
    rc, maxrss_kb = _run_child(script).split()
    return rc, int(maxrss_kb)


def test_verify_peak_memory_does_not_grow_with_n(tmp_path):
    # the innovations stream through the kernel in time blocks: holding
    # all of them would take 160 MB at n = 20000 x 1000 reps, and the
    # whole run peaks near 48 MB on a 2-vCPU Linux host
    cfg = write_config(tmp_path / "c.json", n=20000, reps=1000)
    rc, maxrss_kb = _peak_rss_kb(["verify", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert rc in ("0", "1")
    assert maxrss_kb < 110 * 1024


def test_diagnose_peak_memory_holds_no_diagnostics_window(tmp_path):
    # the path diagnostics redraw [0, k) a block of rows at a time into
    # arrays reused per thread: a (500, 40000) window of innovations
    # alone would take 160 MB, and the whole run peaks near 60 MB on a
    # 2-vCPU Linux host
    cfg = write_config(tmp_path / "c.json", c_gamma=1.0, kappa=0.6,
                       n=50000, reps=500)
    rc, maxrss_kb = _peak_rss_kb(["diagnose", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert rc == "0"
    assert maxrss_kb < 110 * 1024


def test_diagnose_peak_memory_at_long_k(tmp_path):
    # at k = 3.2e5 > DIAG_BLOCK a diagnostic block is one row, whose
    # diagnostics run over column tiles: each thread holds the (1, k)
    # innovations and four tiles of about 2e4 columns, 3.2 MB, where four
    # (1, k) arrays took 10.2 MB.  The run peaked at 65.1-65.2 MB on a
    # 2-vCPU Linux host, and at 77.4 MB with four (1, k) arrays a thread
    cfg = write_config(tmp_path / "c.json", c_gamma=1.0, kappa=0.6,
                       n=400000, reps=4)
    rc, maxrss_kb = _peak_rss_kb(["diagnose", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert rc == "0"
    assert maxrss_kb < 71 * 1024
