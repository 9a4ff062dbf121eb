"""Config parsing, matrix files, CLI subcommands, output determinism."""

import functools
import json
import os

import numpy as np
import pytest

from fasris import RisAngularProfile, cli, ris_correlation_matrix
from fasris.channel import check_psd
from fasris.config import (ConfigError, load_matrix, phases_from_config,
                           save_matrix, scenario_from_config,
                           selection_from_config)
from fasris.scenarios import random_correlation, uniform_selection
from fasris.sweep import CSV_HEADER, validate


def small_cfg(**overrides):
    cfg = {
        "scenario": {
            "mode": "common",
            "name": "tcfg",
            "dims": {"M": 10, "K": 3, "L": 6},
            "ris_profiles": {"C_L": {"d_c": 0.5, "alpha": 60.0, "beta": 5.0},
                             "C_R": {"d_c": 0.5, "alpha": 30.0, "beta": 5.0}},
            "R_profile": {"d_c": 0.5, "alpha": 10.0, "beta": 5.0},
            "geometry_gains": {"d_bs_ris": 5.0,
                               "d_ris_user": [20.0, 20.0, 21.0]},
            "powers": 1.0,
            "sigma2_inv_db": 80.0,
        },
        "sweep": {"axis": "snr_db", "values": [70.0, 80.0]},
        "precoders": ["rzf"],
        "methods": ["de", "mc"],
        "trials": 120,
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


class TestMatrixFiles:
    def test_csv_roundtrip_complex(self, tmp_path, rng):
        A = random_correlation(5, rng) + 0j
        path = tmp_path / "mat.csv"
        save_matrix(path, A)
        B = load_matrix(path)
        assert np.allclose(A, B, atol=1e-15)

    def test_csv_roundtrip_real(self, tmp_path):
        A = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "mat.csv"
        save_matrix(path, A)
        B = load_matrix(path)
        assert B.dtype.kind == "f" and np.array_equal(A, B)

    def test_npy_roundtrip(self, tmp_path, rng):
        A = random_correlation(4, rng)
        path = tmp_path / "mat.npy"
        save_matrix(path, A)
        assert np.allclose(load_matrix(path), A)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ConfigError):
            load_matrix(path)


class TestScenarioFromConfig:
    def test_explicit_common(self):
        sc = scenario_from_config(small_cfg())
        assert sc.dims.M == 10 and sc.dims.K == 3
        assert sc.sigma2 == pytest.approx(1e-8)
        assert sc.correlations.C_L.shape == (6, 6)
        assert np.all(sc.t < sc.u)

    def test_preset(self):
        cfg = {"scenario": {"preset": "fig1",
                            "preset_args": {"M": 16, "K": 4, "L": 8,
                                            "sigma2_inv_db": 70.0}}}
        sc = scenario_from_config(cfg)
        assert sc.dims.M == 16 and sc.dims.K == 4
        assert sc.sigma2 == pytest.approx(1e-7)

    def test_gains_db(self):
        cfg = small_cfg()
        del cfg["scenario"]["geometry_gains"]
        cfg["scenario"]["gains_db"] = {"u": -60.0, "t": -80.0}
        sc = scenario_from_config(cfg)
        assert np.allclose(sc.u, 1e-6) and np.allclose(sc.t, 1e-8)

    def test_matrix_file_override(self, tmp_path, rng):
        A = random_correlation(6, rng)
        path = tmp_path / "cl.npy"
        save_matrix(path, A)
        cfg = small_cfg()
        cfg["scenario"]["matrix_files"] = {"C_L": str(path)}
        sc = scenario_from_config(cfg)
        assert np.allclose(sc.correlations.C_L, A, atol=1e-12)

    def test_missing_pieces_raise(self):
        with pytest.raises(ConfigError):
            scenario_from_config({"scenario": {"mode": "common",
                                               "dims": {"M": 4, "K": 2, "L": 2},
                                               "gains_db": {"u": -60, "t": -70}}})
        with pytest.raises(ConfigError):
            scenario_from_config({"scenario": {"preset": "nope"}})

    def per_user_cfg(self):
        cfg = small_cfg()
        block = cfg["scenario"]
        block["mode"] = "uncommon"
        block["F_profiles"] = [{"alpha": 5.0 * k, "beta": 5.0 + 10.0 * k}
                               for k in range(3)]
        block["C_R_profiles"] = [{"d_c": 0.25 * (k + 1), "alpha": -5.0 * k,
                                  "beta": 30.0 - 5.0 * k} for k in range(3)]
        return cfg

    def test_per_user_profiles_match_single_builds(self, tmp_path, rng):
        A = random_correlation(6, rng)
        save_matrix(tmp_path / "cr1.npy", A)
        cfg = self.per_user_cfg()
        cfg["scenario"]["matrix_files"] = {"C_R_1": str(tmp_path / "cr1.npy")}
        corr = scenario_from_config(cfg).correlations
        for k in range(3):
            F = ris_correlation_matrix(RisAngularProfile(
                0.5, 5.0 * k, 5.0 + 10.0 * k, 10))
            assert np.array_equal(corr.F_tot[k], check_psd(F))
        for k in (0, 2):
            C = ris_correlation_matrix(RisAngularProfile(
                0.25 * (k + 1), -5.0 * k, 30.0 - 5.0 * k, 6))
            assert np.array_equal(corr.C_R[k], check_psd(C))
        assert np.allclose(corr.C_R[1], A, atol=1e-12)

    def test_invalid_per_user_profile_raises(self):
        cfg = self.per_user_cfg()
        cfg["scenario"]["C_R_profiles"][2]["beta"] = 0.0
        with pytest.raises(ValueError, match="beta must be positive"):
            scenario_from_config(cfg)
        del cfg["scenario"]["F_profiles"][2]
        with pytest.raises(IndexError):
            scenario_from_config(cfg)

    def test_unknown_mode_raises(self):
        cfg = small_cfg()
        cfg["scenario"]["mode"] = "foo"
        with pytest.raises(ConfigError, match="foo"):
            scenario_from_config(cfg)

    def test_no_selection_block_defaults_to_uniform(self):
        cfg = small_cfg()
        assert selection_from_config(cfg, scenario_from_config(cfg)) is None
        cfg["scenario"]["dims"]["M_tot"] = 14
        sc = scenario_from_config(cfg)
        assert np.array_equal(selection_from_config(cfg, sc),
                              uniform_selection(10, 14))

    def test_selection_blocks(self):
        sc = scenario_from_config(small_cfg())
        cfg = small_cfg()
        cfg["selection"] = {"type": "first", "M": 4}
        s = selection_from_config(cfg, sc)
        assert np.array_equal(np.flatnonzero(s), np.arange(4))
        cfg["selection"] = {"type": "indices", "indices": [0, 2, 5]}
        s = selection_from_config(cfg, sc)
        assert np.array_equal(np.flatnonzero(s), [0, 2, 5])

    @pytest.mark.parametrize("block,match", [
        ({"indices": [-1, 5, 7]}, "distinct ports in"),
        ({"indices": [100]}, "distinct ports in"),
        ({"indices": [5, 5, 7]}, "distinct ports in"),
        ({"indices": [1.5, 2]}, "integers"),
        ({"indices": [True, 2]}, "integers"),
        ({"indices": [1, 2, 3], "M": 4}, "3 indices, M = 4"),
    ])
    def test_bad_selection_indices_raise(self, block, match):
        sc = scenario_from_config(small_cfg())          # 10 ports
        with pytest.raises(ConfigError, match=match):
            selection_from_config({"selection": {"type": "indices", **block}},
                                  sc)

    @pytest.mark.parametrize("values", [
        [0.1] * 5, [0.1] * 7 + [float("nan")], [0.1] * 7 + [float("inf")],
        ["0.1"] * 8, [0.1] * 7 + [True], None], ids=[
        "5-of-8", "nan", "inf", "strings", "bool", "missing"])
    def test_bad_phase_values_raise(self, values):
        block = {"type": "values"}
        if values is not None:
            block["values"] = values
        with pytest.raises(ConfigError, match="8 finite real numbers"):
            phases_from_config({"phases": block}, 8)

    def test_phase_values_pass_through(self):
        values = [0.5, 1, 2.5, 0.0, 3.0, 1.5, 0.25, 6]
        phi = phases_from_config({"phases": {"type": "values",
                                             "values": values}}, 8)
        assert phi.dtype == float and np.array_equal(phi, values)

    @pytest.mark.parametrize("kind,M", [("first", 9), ("uniform", 9),
                                        ("first", 0), ("uniform", 0)])
    def test_selection_size_outside_ports_raises(self, kind, M):
        cfg = small_cfg()
        cfg["scenario"]["dims"] = {"M": 4, "K": 3, "L": 6, "M_tot": 6}
        sc = scenario_from_config(cfg)
        with pytest.raises(ConfigError, match=rf"M = {M} outside \[1, 6\]"):
            selection_from_config({"selection": {"type": kind, "M": M}}, sc)

    @pytest.mark.parametrize("kind", ["first", "uniform", "indices"])
    @pytest.mark.parametrize("M", [2.7, "3", True, None])
    def test_mistyped_selection_size_raises(self, kind, M):
        cfg = small_cfg()
        cfg["scenario"]["dims"] = {"M": 4, "K": 3, "L": 6, "M_tot": 6}
        sc = scenario_from_config(cfg)
        block = {"type": kind, "M": M, "indices": [0, 1, 2]}
        with pytest.raises(ConfigError, match="must be integers"):
            selection_from_config({"selection": block}, sc)

    @pytest.mark.parametrize("preset,args,key", [
        ("fig1", {"M": "16"}, "M"), ("fig1", {"K": 12.0}, "K"),
        ("fig3", {"N": True}, "N"), ("fig8", {"sigma2_inv_db": "80"},
                                     "sigma2_inv_db")])
    def test_mistyped_preset_args_raise(self, preset, args, key):
        cfg = {"scenario": {"preset": preset, "preset_args": args}}
        with pytest.raises(ConfigError, match=rf"preset_args '{key}' for "
                                              rf"'{preset}' must be"):
            scenario_from_config(cfg)

    def test_mistyped_preset_snr_raises(self):
        # the block's own sigma2_inv_db feeds the preset like a preset_arg
        cfg = {"scenario": {"preset": "fig8", "sigma2_inv_db": "80"}}
        with pytest.raises(ConfigError, match="'sigma2_inv_db' for 'fig8'"):
            scenario_from_config(cfg)

    def test_int_preset_arg_for_float_default(self):
        cfg = {"scenario": {"preset": "fig8",
                            "preset_args": {"sigma2_inv_db": 70}}}
        assert scenario_from_config(cfg).sigma2 == pytest.approx(1e-7)

    @pytest.mark.parametrize("preset,args,key", [
        ("fig1", {"m": 16}, "m"), ("fig3", {"M": 10}, "M")])
    def test_unknown_preset_args_raise(self, preset, args, key):
        cfg = {"scenario": {"preset": preset, "preset_args": args}}
        with pytest.raises(ConfigError, match=rf"\['{key}'\] for '{preset}'; "
                                              r"it accepts \[.*'sigma2_inv_db'"):
            scenario_from_config(cfg)


class TestCli:
    def _write_cfg(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_sweep_deterministic(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, small_cfg())
        rc1 = cli.main(["--config", cfg_path, "--out-dir",
                        str(tmp_path / "a"), "sweep"])
        rc2 = cli.main(["--config", cfg_path, "--out-dir",
                        str(tmp_path / "b"), "sweep"])
        assert rc1 == 0 and rc2 == 0
        a = (tmp_path / "a" / "tcfg_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "tcfg_sweep.csv").read_bytes()
        assert a == b
        assert a.decode().splitlines()[0] == CSV_HEADER
        assert (tmp_path / "a" / "tcfg_sweep.svg").exists()

    def test_montecarlo_csv_schema(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, small_cfg())
        out = tmp_path / "res.csv"
        assert cli.main(["--config", cfg_path, "montecarlo", "--trials", "32",
                         "--precoder", "mrt", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario_id,snr_db,precoder,trials,esr_mean,esr_stderr"
        fields = lines[1].split(",")
        assert fields[0] == "tcfg" and fields[2] == "mrt" and fields[3] == "32"
        assert float(fields[1]) == 80.0

    def test_montecarlo_deterministic(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, small_cfg())
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert cli.main(["--config", cfg_path, "montecarlo", "--trials", "64",
                         "--precoder", "zf", "--out", str(out1)]) == 0
        assert cli.main(["--config", cfg_path, "montecarlo",
                         "--trials", "64", "--precoder", "zf",
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_flag_is_rejected(self, capsys):
        # the flag never changed an output; argparse refuses it as unknown
        with pytest.raises(SystemExit) as exc:
            cli.main(["--threads=2", "evaluate"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err

    def test_empty_sweep_usage_error(self, tmp_path):
        cfg = small_cfg()
        cfg["sweep"] = {"axis": "snr_db", "values": []}
        cfg_path = self._write_cfg(tmp_path, cfg)
        rc = cli.main(["--config", cfg_path, "--out-dir",
                       str(tmp_path / "x"), "sweep"])
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_evaluate(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, small_cfg())
        rc = cli.main(["--config", cfg_path, "--out-dir", str(tmp_path / "e"),
                       "evaluate", "--precoder", "rzf", "--precoder", "zf"])
        assert rc == 0
        text = (tmp_path / "e" / "evaluate.csv").read_text().splitlines()
        assert text[0] == CSV_HEADER and len(text) == 3

    def test_optimize_zsearch_and_ports(self, tmp_path):
        cfg = small_cfg()
        cfg["scenario"]["dims"] = {"M": 6, "K": 3, "L": 6, "M_tot": 12}
        cfg["scenario"]["R_profile"] = {"d_c": 0.5, "alpha": 10.0, "beta": 5.0}
        cfg_path = self._write_cfg(tmp_path, cfg)
        out = tmp_path / "sol.json"
        rc = cli.main(["--config", cfg_path, "optimize", "--mode", "zsearch",
                       "--trials", "64", "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())
        assert sol["z"] > 0 and "esr_monte_carlo" in sol
        rc = cli.main(["--config", cfg_path, "optimize", "--mode", "ports",
                       "--precoder", "zf", "--trials", "64",
                       "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())
        assert len(sol["selected_ports"]) == 6

    def test_optimize_zf_writes_no_regularizer(self, tmp_path):
        # ZF has no regularizer: no mode writes a z, and the AO rows of the
        # phases trace leave theirs empty
        cfg = small_cfg()
        cfg["scenario"]["dims"] = {"M": 6, "K": 3, "L": 6, "M_tot": 12}
        cfg["scenario"]["R_profile"] = {"d_c": 0.5, "alpha": 10.0, "beta": 5.0}
        cfg_path = self._write_cfg(tmp_path, cfg)
        out, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
        for mode in ("joint", "ports", "phases"):
            rc = cli.main(["--config", cfg_path, "optimize", "--mode", mode,
                           "--precoder", "zf", "--iterations", "1",
                           "--trials", "16", "--trace", str(trace),
                           "--out", str(out)])
            assert rc == 0
            assert json.loads(out.read_text())["z"] is None, mode
        lines = trace.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(",")))
                for ln in lines[1:]]
        ao = [row for row in rows if row["stage"] == "ao"]
        assert ao and all(row["z"] == "" for row in ao)

    def test_optimize_zsearch_rejects_zf(self, tmp_path, capsys):
        # ZF has no regularizer: the RZF ESR must not be written next to a
        # ZF Monte-Carlo mean
        cfg_path = self._write_cfg(tmp_path, small_cfg())
        out = tmp_path / "sol.json"
        rc = cli.main(["--config", cfg_path, "optimize", "--mode", "zsearch",
                       "--precoder", "zf", "--trials", "16",
                       "--out", str(out)])
        assert rc == 2
        assert "zsearch" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_fig8(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path / "f"), "figure", "fig8"])
        assert rc == 0
        lines = (tmp_path / "f" / "fig8.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 42
        assert (tmp_path / "f" / "fig8.svg").read_text().startswith("<svg")

    def test_unknown_figure(self, tmp_path):
        rc = cli.main(["--out-dir", str(tmp_path), "figure", "fig99"])
        assert rc == 2


def _scale_lambda(name, so):
    # fault injection: corrupt the interference block
    so.Lambda_kl = so.Lambda_kl * 1.5


class TestValidate:
    def test_clean_run_passes(self):
        checks = validate(None, trials=400, seed=7)
        names = {c["name"] for c in checks}
        assert {"correlation_psd", "backsubstitution", "probe_first_order",
                "probe_bilinear_traces", "de_vs_mc", "mc_block_determinism",
                "fd_phase_gradient_uncommon"} <= names
        failed = [c for c in checks if not c["passed"]]
        assert not failed, f"failed checks: {failed}"

    def test_fault_injection_flags_block(self):
        # corrupting the interference block must be caught by the
        # second-order probe and localized to the lambda check
        checks = validate(None, trials=400, seed=7, _tamper=_scale_lambda)
        by_name = {c["name"]: c for c in checks}
        assert not by_name["probe_bilinear_traces"]["passed"]
        assert by_name["probe_first_order"]["passed"]

    def test_block_dependent_rates_are_flagged(self, monkeypatch):
        # a precoder scaled by the stack size makes rates depend on blocking
        from fasris import montecarlo
        build = montecarlo.build_precoder
        monkeypatch.setattr(montecarlo, "build_precoder",
                            lambda H, *a: build(H, *a) * (1.0 + 1e-3 * len(H)))
        checks = validate(None, trials=400, seed=7)
        by_name = {c["name"]: c for c in checks}
        assert not by_name["mc_block_determinism"]["passed"]
        assert by_name["de_vs_mc"]["passed"]

    def test_cli_exit_code_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "validate",
                            functools.partial(validate, _tamper=_scale_lambda))
        assert cli.main(["validate", "--trials", "400"]) == 1
        assert "FAIL" in capsys.readouterr().out


    def test_scaled_per_user_phase_gradient_fails(self, monkeypatch, capsys):
        from fasris import optimize
        grad = optimize.esr_gradient_phases_uncommon
        monkeypatch.setattr(optimize, "esr_gradient_phases_uncommon",
                            lambda *a, **k: 1.01 * grad(*a, **k))
        assert cli.main(["validate", "--trials", "400"]) == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        # one function serves the per-user RZF and ZF phase gradients
        assert failed == ["fd_phase_gradient_uncommon",
                          "fd_phase_gradient_zf_uncommon"]

    def test_scaled_per_user_port_gradient_fails(self, monkeypatch, capsys):
        from fasris import optimize
        grad = optimize.esr_gradient_ports_uncommon
        monkeypatch.setattr(optimize, "esr_gradient_ports_uncommon",
                            lambda *a, **k: 1.01 * grad(*a, **k))
        assert cli.main(["validate", "--trials", "400"]) == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        assert failed == ["fd_port_gradient_uncommon"]

    def test_scaled_z_derivative_fails(self, monkeypatch, capsys):
        from fasris import optimize
        grad = optimize.esr_gradient_z
        monkeypatch.setattr(optimize, "esr_gradient_z",
                            lambda *a, **k: 1.01 * grad(*a, **k))
        assert cli.main(["validate", "--trials", "400"]) == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        assert failed == ["fd_z_derivative"]


class TestFigureRecipes:
    def test_fig1_csv_structure(self, tmp_path):
        from fasris.sweep import run_figure
        out = run_figure("fig1", tmp_path, trials=50, seed=1)
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # 3 M-values x 5 SNR points x {DE, MC}
        assert len(lines) == 1 + 3 * 5 * 2
        assert sum(",de," in ln for ln in lines) == 15
        assert sum(",mc," in ln for ln in lines) == 15

    def test_rerun_byte_identical(self, tmp_path):
        from fasris.sweep import run_figure
        run_figure("fig8", tmp_path / "a", trials=10, seed=3)
        run_figure("fig8", tmp_path / "b", trials=10, seed=3)
        assert (tmp_path / "a" / "fig8.csv").read_bytes() == \
            (tmp_path / "b" / "fig8.csv").read_bytes()


class TestFigureSmoke:
    def test_every_recipe_produces_output(self, tmp_path):
        # minimal axis points and trial counts; exercises all eight recipes
        from fasris import sweep as sw
        outs = [
            sw.figure_fig1(tmp_path, 30, 1, False, snrs=(80,), Ms=(12,)),
            sw.figure_fig2(tmp_path, 30, 1, False, scales=(1,)),
            sw.figure_fig3(tmp_path, 30, 1, False, snrs=(80,)),
            sw.figure_fig4(tmp_path, 30, 1, False, snrs=(80,)),
            sw.figure_fig5(tmp_path, 30, 1, False, Ws=(2.0,)),
            sw.figure_fig6(tmp_path, 30, 1, False, Ks=(4,)),
            sw.figure_fig7(tmp_path, 30, 1, False, Ms=(20,)),
            sw.figure_fig8(tmp_path, 30, 1, False),
        ]
        for out in outs:
            assert out["csv"].exists() and out["svg"].exists()
            lines = out["csv"].read_text().splitlines()
            assert lines[0] == CSV_HEADER and len(lines) > 1


class TestValidateSkips:
    def test_t_zero_scenario_skips_cascaded_probes(self):
        cfg = small_cfg()
        cfg["scenario"]["gains_db"] = {"u": -60.0, "t": None}
        del cfg["scenario"]["geometry_gains"]
        checks = validate(cfg, trials=200, seed=5)
        by_name = {c["name"]: c for c in checks}
        assert "skipped" in by_name["probe_bilinear_traces"]["detail"]
        assert by_name["probe_bilinear_traces"]["passed"]


class TestCliJoint:
    def test_joint_mode_with_trace(self, tmp_path):
        import json as _json
        cfg = small_cfg()
        cfg["scenario"]["dims"] = {"M": 5, "K": 3, "L": 6, "M_tot": 10}
        path = tmp_path / "cfg.json"
        path.write_text(_json.dumps(cfg))
        out = tmp_path / "sol.json"
        trace = tmp_path / "trace.csv"
        rc = cli.main(["--config", str(path), "optimize", "--mode", "joint",
                       "--iterations", "1", "--trials", "48",
                       "--trace", str(trace), "--out", str(out)])
        assert rc == 0
        sol = _json.loads(out.read_text())
        assert len(sol["selected_ports"]) == 5
        assert len(sol["phi"]) == 6 and sol["z"] > 0
        assert sol["esr_monte_carlo"]["trials"] == 48
        lines = trace.read_text().splitlines()
        assert lines[0] == ("stage,iteration,objective,step,gradient_norm,"
                            "halvings,evals,z,stalled,s_indices,gap")
        assert any(ln.startswith("joint,") for ln in lines[1:])
        rows = [dict(zip(lines[0].split(","), ln.split(",")))
                for ln in lines[1:]]
        for row in rows:
            assert len(row) == 11
            if row["stage"] == "phases":
                assert int(row["evals"]) == int(row["halvings"]) + 1
            elif row["stage"] == "ao":
                # the z search's evaluations and |d ESR / d ln z| at its z
                assert row["halvings"] == "" and int(row["evals"]) >= 1
                assert 0.0 <= float(row["gradient_norm"]) < np.inf
            else:
                assert row["halvings"] == row["evals"] == ""
        fw = [row for row in rows if row["stage"] == "fw"]
        assert fw and all(np.isfinite(float(row["gap"]))
                          and float(row["gap"]) >= 0.0 for row in fw)
        assert all(row["gap"] == "" for row in rows if row["stage"] != "fw")
        ao = [row for row in rows if row["stage"] == "ao"]
        assert ao and all(row["stalled"] == "False" and float(row["z"]) > 0
                          for row in ao)
        joint = [row for row in rows if row["stage"] == "joint"]
        assert [int(i) for i in joint[0]["s_indices"].split()] \
            == sol["selected_ports"]
