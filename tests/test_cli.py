import dataclasses
import json
import math
import os

import numpy as np
import pytest

from mdgarch import harness
from mdgarch.cli import main
from mdgarch.innovations import InnovationSpec, RngStream
from mdgarch.localization import LocalizationScheme, Regime, realize_params
from mdgarch.simulate import decompose_volatility, simulate_path
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
                raise CancellationError("centered difference lost all "
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

    def test_cancellation_names_the_replication(self, tmp_path, capsys,
                                                monkeypatch):
        # only replication 37 cancels at k = 800; the batch raises, and
        # the message names the checkpoint and that replication
        cfg = write_config(tmp_path / "c.json", n=2000, reps=200, seed=7)
        doc = json.loads(cfg.read_text())
        params = realize_params(LocalizationScheme.from_config(doc["scheme"]),
                                2000)
        target = simulate_path(params, InnovationSpec("standard-normal"),
                               RngStream(7, 37)).sigma_sq[800]
        spec = harness.REGIMES[Regime.NEAR_STATIONARY]

        def vol_stats(sigma_k_sq, log_sigma_k_sq, params, n, k, *args):
            if k == 800 and (sigma_k_sq == target).any():
                raise CancellationError("centered difference lost all "
                                        "significant digits")
            return spec.vol_stats(sigma_k_sq, log_sigma_k_sq, params, n, k,
                                  *args)

        monkeypatch.setitem(harness.REGIMES, Regime.NEAR_STATIONARY,
                            dataclasses.replace(spec, vol_stats=vol_stats))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "checkpoint k=800, replication 37:" in capsys.readouterr().err
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
