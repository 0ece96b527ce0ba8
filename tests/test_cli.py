from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsqubit
from fsqubit import analysis, atomstark, cli, dynamics, focalfield
from fsqubit.errors import MalformedTable


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def base_cfg(**over) -> dict:
    cfg = {
        "schema_version": 1,
        "tweezer": {"wavelength_nm": 539.91, "power_mW": 0.046,
                    "na": 0.5, "waist_nm": 564.0},
        "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
        "drive": {"rabi_kHz": 84.0, "fringe_MHz": 1.3},
        "temperature_uK": 1.4,
        "time_grid": {"start_us": 0.0, "stop_us": 20.0, "points": 11},
        "trials": 8,
        "seed": 11,
    }
    cfg.update(copy.deepcopy(over))  # callers must not edit EXTRA
    return cfg


# the sections each command needs beyond base_cfg
EXTRA = {"t2": {"burst_grid": {"t2_guess_us": 450.0}},
         "magic-scan": {"angle_scan": {"start_deg": 0.0, "stop_deg": 30.0,
                                       "points": 3, "t_r_us": 600.0}},
         "fit": {"fit": {"trace_csv": "trace.csv", "mode": "sinusoid"}}}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestValidate:
    def test_clean_config(self, tmp_path):
        path = write_cfg(tmp_path, base_cfg())
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 0
        assert json.loads(out)["issues"] == []

    def test_wavelength_outside_table(self, tmp_path):
        cfg = base_cfg()
        cfg["tweezer"]["wavelength_nm"] = 900.0
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 2
        issues = json.loads(out)["issues"]
        assert any(i.startswith("coverage:") for i in issues)

    def test_negative_power(self, tmp_path):
        cfg = base_cfg()
        cfg["tweezer"]["power_mW"] = -1.0
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 2
        issues = json.loads(out)["issues"]
        assert any("tweezer.power_mW" in i and i.startswith("range:")
                   for i in issues)

    def test_missing_seed(self, tmp_path):
        cfg = base_cfg()
        del cfg["seed"]
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 2
        assert any("seed" in i for i in json.loads(out)["issues"])

    def test_unknown_key(self, tmp_path):
        cfg = base_cfg(powr=1.0)
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 2
        assert any("unknown key 'powr'" in i
                   for i in json.loads(out)["issues"])

    @pytest.mark.parametrize("sub,phi", [("ramsey", "magic"),
                                         ("magic-find", 0.0)])
    def test_magic_roots_need_no_waist(self, tmp_path, sub, phi):
        # the roots depend on the table alone, so filling_factor will do
        cfg = base_cfg()
        cfg["tweezer"] = {"wavelength_nm": 539.91, "power_mW": 0.046,
                          "na": 0.5, "filling_factor": 1.0}
        cfg["field"]["phi_deg"] = phi
        path = write_cfg(tmp_path, cfg, "ff.json")
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", sub)
        assert code == 0, out
        assert json.loads(out)["issues"] == []
        angles = []
        for name, tweezer in (("ff", cfg["tweezer"]),
                              ("waist", base_cfg()["tweezer"])):
            path = write_cfg(tmp_path, {**cfg, "tweezer": tweezer},
                             name + ".json")
            out_dir = tmp_path / name
            code, _, err = run_cli("magic-find", "--config", path,
                                   "--out", str(out_dir))
            assert code == 0, err
            meta = json.loads((out_dir / "meta.json").read_text())
            angles.append(meta["resolved"]["magic_phi_deg"])
        assert angles[0] == angles[1]

    def test_retired_pol_axis(self, tmp_path):
        cfg = base_cfg()
        cfg["tweezer"]["pol_axis"] = [0.0, 1.0]
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 2
        issues = json.loads(out)["issues"]
        assert [i.split(":")[0] for i in issues if "pol_axis" in i] \
            == ["schema"]


    @pytest.mark.parametrize("sub,key,value,prefix", [
        ("ramsey", "time_grid.start_us", "0", "type: time_grid.start_us"),
        ("t2", "burst_grid.points_per_window", 3,
         "range: burst_grid.points_per_window"),
        ("t2", "burst_grid.window_periods", 0.5,
         "range: burst_grid.window_periods"),
        ("t2", "burst_grid.n_windows", 3, "range: burst_grid.n_windows"),
        ("magic-scan", "angle_scan.window_periods", 0.5,
         "range: angle_scan.window_periods"),
        ("fit", "fit.window_periods", 0.5, "range: fit.window_periods"),
        ("magic-scan", "angle_scan.points_per_window", 0,
         "range: angle_scan.points_per_window"),
        ("ramsey", "noise.readout_fidelty", 0.9,
         "schema: unknown key 'noise.readout_fidelty'"),
        ("ramsey", "trials", True, "type: trials"),
        ("ramsey", "seed", True, "type: seed"),
        ("ramsey", "schema_version", True, "value: schema_version"),
        ("ramsey", "noise.prep_efficiency", 0,
         "range: noise.prep_efficiency"),
        ("ramsey", "tweezer.waist_nm", None,
         "missing: tweezer.waist_nm or tweezer.filling_factor"),
        ("ramsey", "tweezer.power_mW", 1e300, "range: tweezer.power_mW"),
        ("ramsey", "temperature_uK", 1e300, "range: temperature_uK"),
        ("t2", "burst_grid.span_factor", 1e300, "range: burst_grid ends"),
        ("t2", "burst_grid.t2_guess_us", 1e300, "range: burst_grid ends"),
        ("t2", "burst_grid.window_periods", 1e300,
         "range: burst_grid ends"),
        ("ramsey", "tweezer.waist_nm", 1e300, "range: tweezer.waist_nm"),
        ("ramsey", "noise.rabi_frac_std", 1e300,
         "range: noise.rabi_frac_std"),
        ("magic-scan", "drive.fringe_MHz", 1e300, "range: drive.fringe_MHz"),
        ("fit", "fit.f_fringe_MHz", 1e300, "range: fit.f_fringe_MHz"),
        ("magic-scan", "angle_scan.t_r_us", 1e300,
         "range: angle_scan.t_r_us"),
        ("magic-scan", "protocol.name", "echo",
         "value: protocol.name 'echo' not valid for 'magic-scan'"),
        ("rabi", "protocol.name", "ramsey",
         "value: protocol.name 'ramsey' not valid for 'rabi'")])
    def test_rejected_value(self, tmp_path, sub, key, value, prefix):
        cfg = base_cfg(**EXTRA.get(sub, {}))
        *sections, name = key.split(".")
        block = cfg
        for section in sections:
            block = block.setdefault(section, {})
        if value is None:
            del block[name]
        else:
            block[name] = value
        code, out, _ = run_cli("validate", "--config",
                               write_cfg(tmp_path, cfg), "--subcommand", sub)
        assert code == 2
        assert any(i.startswith(prefix) for i in json.loads(out)["issues"])


class TestErrorHandling:
    def test_waist_and_filling_factor_conflict(self, tmp_path):
        cfg = base_cfg()
        cfg["tweezer"]["filling_factor"] = 2.0
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "ramsey")
        assert code == 2
        assert any(i.startswith("conflict: give exactly one of "
                                "tweezer.waist_nm and tweezer.filling_factor")
                   for i in json.loads(out)["issues"])
        out_dir = tmp_path / "out"
        code, _, err = run_cli("ramsey", "--config", path,
                               "--out", str(out_dir))
        assert code == 1
        assert json.loads(err.strip())["error"]["type"] == "ConfigError"
        assert not out_dir.exists()

    def test_malformed_config_leaves_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ this is not json")
        out_dir = tmp_path / "out"
        code, _, err = run_cli("rabi", "--config", str(bad),
                               "--out", str(out_dir))
        assert code == 1
        assert "error" in json.loads(err.strip())
        assert not out_dir.exists()

    @pytest.mark.parametrize("trace", ["nope.csv", "."],
                             ids=["missing", "directory"])
    def test_missing_trace_file_is_config_error(self, tmp_path, trace):
        cfg = {"schema_version": 1,
               "tweezer": {"wavelength_nm": 539.91, "power_mW": 0.046,
                           "na": 0.5},
               "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
               "fit": {"trace_csv": str(tmp_path / trace),
                       "mode": "sinusoid"}}
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "fit")
        assert code == 2
        assert any(i.startswith("file: fit.trace_csv")
                   for i in json.loads(out)["issues"])
        out_dir = tmp_path / "out"
        code, _, err = run_cli("fit", "--config", path,
                               "--out", str(out_dir))
        assert code == 1
        payload = json.loads(err.strip())
        assert payload["error"]["type"] == "ConfigError"
        assert not out_dir.exists()

    @pytest.mark.parametrize("section,key,literal", [
        ("tweezer", "power_mW", "NaN"),
        ("field", "phi_deg", "Infinity"),
        ("drive", "rabi_kHz", "-Infinity"),
        ("tweezer", "power_mW", "1e400"),
        pytest.param("tweezer", "power_mW", "1" + "0" * 400,
                     id="tweezer-power_mW-400-digit-int")])
    def test_non_finite_number_rejected(self, tmp_path, section, key,
                                        literal):
        cfg = base_cfg(temperature_uK=0)
        cfg[section][key] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@"', literal))
        code, out, _ = run_cli("validate", "--config", str(path),
                               "--subcommand", "ramsey")
        assert code == 2
        assert json.loads(out)["issues"][0].startswith("schema:")
        out_dir = tmp_path / "out"
        code, _, err = run_cli("ramsey", "--config", str(path),
                               "--out", str(out_dir))
        assert code == 1
        assert json.loads(err.strip())["error"]["type"] == "ConfigError"
        assert not out_dir.exists()

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["undecodable", "deep-nesting"])
    def test_unreadable_config_rejected(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        code, out, _ = run_cli("validate", "--config", str(path),
                               "--subcommand", "ramsey")
        assert code == 2
        assert json.loads(out)["issues"][0].startswith("schema:")
        out_dir = tmp_path / "out"
        code, _, err = run_cli("ramsey", "--config", str(path),
                               "--out", str(out_dir))
        assert code == 1
        assert json.loads(err.strip())["error"]["type"] == "ConfigError"
        assert not out_dir.exists()

    def test_non_finite_result_leaves_no_output(self, tmp_path,
                                                monkeypatch):
        # JSON has no NaN: a result holding one must fail the run whole
        monkeypatch.setattr(cli.atomstark, "find_magic_angle",
                            lambda env, table: math.nan)
        cfg = base_cfg()
        for key in ("drive", "time_grid", "trials", "seed"):
            del cfg[key]
        out_dir = tmp_path / "out"
        code, _, err = run_cli("magic-find", "--config",
                               write_cfg(tmp_path, cfg), "--out",
                               str(out_dir))
        assert code == 1
        assert json.loads(err.strip())["error"]["type"] == "ValueError"
        assert not out_dir.exists()

    def test_module_entrypoint_runs(self, tmp_path):
        path = write_cfg(tmp_path, base_cfg())
        r = subprocess.run(
            [sys.executable, "-m", "fsqubit.cli", "validate",
             "--config", path, "--subcommand", "rabi"],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert json.loads(r.stdout)["issues"] == []


class TestMagicFind:
    def test_reports_both_roots(self, tmp_path):
        cfg = base_cfg()
        cfg["field"]["magnitude_G"] = 8.0
        for key in ("drive", "time_grid", "trials", "seed",
                    "temperature_uK"):
            del cfg[key]
        path = write_cfg(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, err = run_cli("magic-find", "--config", path,
                               "--out", str(out_dir))
        assert code == 0, err
        rows = (out_dir / "magic.csv").read_text().splitlines()
        assert rows[0] == "wavelength_nm,phi_deg,magic_wavelength_nm," \
                          "magic_phi_deg"
        vals = rows[1].split(",")
        assert float(vals[2]) == pytest.approx(535.9, abs=0.5)
        assert float(vals[3]) == pytest.approx(19.3, abs=1.0)
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["subcommand"] == "magic-find"
        assert set(meta["artifacts"]) == {"magic.csv"}

    def test_table_comes_from_config_only(self, tmp_path, monkeypatch):
        # meta.json records the config, not the environment, so the
        # environment must not pick the table
        path = str(pathlib.Path(__file__).resolve().parents[1] / "configs"
                   / "magic_find_phi0.json")
        outs = [tmp_path / "plain", tmp_path / "env"]
        code, _, err = run_cli("magic-find", "--config", path,
                               "--out", str(outs[0]))
        assert code == 0, err
        monkeypatch.setenv("FSQUBIT_TABLE", "builtin:sr88_fixture_755")
        code, _, err = run_cli("magic-find", "--config", path,
                               "--out", str(outs[1]))
        assert code == 0, err
        for name in ("magic.csv", "meta.json"):
            assert (outs[0] / name).read_bytes() \
                == (outs[1] / name).read_bytes(), name


_HEADER = b"state,wavelength_nm,alpha_s_au,alpha_t_au\n"
_ROWS = b"3P0,530.0,1017.09,0.0\n3P0,550.0,1037.09,0.0\n" \
    b"3P2,530.0,1123.57,84.845\n3P2,550.0,1080.23,94.845\n"


@pytest.mark.parametrize("content,where", [
    (b"", "no header line"),
    (b"# comments only\n\n", "no header line"),
    (b"# band\nstate,wavelength,alpha_s_au,alpha_t_au\n" + _ROWS, "line 2"),
    (_HEADER + _ROWS + b"3P2,540.0,1101.9\n", "line 6"),
    (_HEADER + b"3P0,540.0,1027.09,0.0,1\n" + _ROWS, "line 2"),
    (_HEADER + _ROWS + b"3P2,540.0,abc,89.845\n", "line 6"),
    (_HEADER + b"\n3P2,540.0,nan,89.845\n" + _ROWS, "line 3"),
    (_HEADER + _ROWS + b"3P0,inf,1027.09,0.0\n", "line 6"),
    (_HEADER + _ROWS + b"3P0,540.0,1027.09\xff,0.0\n", "line 6"),
], ids=["empty", "comments-only", "bad-header", "short-row", "long-row",
        "non-numeric", "nan", "inf", "non-utf8"])
def test_malformed_table_fails_validate(tmp_path, content, where):
    """A table that cannot be parsed is one validate issue (exit 2) that
    names the file and the line, raised as MalformedTable."""
    table = tmp_path / "table.csv"
    table.write_bytes(content)
    with pytest.raises(MalformedTable, match=where):
        atomstark.PolarizabilityTable.from_csv(table)
    path = write_cfg(tmp_path, base_cfg(table=str(table)))
    code, out, err = run_cli("validate", "--config", path,
                             "--subcommand", "rabi")
    assert (code, err) == (2, "")
    issues = json.loads(out)["issues"]
    assert len(issues) == 1
    assert issues[0].startswith(f"file: polarizability table: {table}")
    assert where in issues[0]


def test_table_missing_a_state_fails_validate(tmp_path):
    table = tmp_path / "table.csv"
    table.write_bytes(_HEADER + _ROWS.replace(b"3P2", b"3P1"))
    code, out, _ = run_cli("validate", "--config",
                           write_cfg(tmp_path, base_cfg(table=str(table))),
                           "--subcommand", "rabi")
    assert code == 2
    assert json.loads(out)["issues"] == [
        "file: polarizability table: state '3P2' not in table "
        "(have ['3P0', '3P1'])"]


def test_repeated_wavelength_fails_validate(tmp_path):
    """A state given twice at one wavelength is a malformed table naming
    both lines, not a step in the interpolation; another state at that
    wavelength is no repeat."""
    table = tmp_path / "table.csv"
    table.write_bytes(_HEADER + _ROWS + b"# again\n3P2,550,1081.0,94.0\n")
    with pytest.raises(MalformedTable,
                       match="line 7: 3P2 at 550.0 nm repeats line 5"):
        atomstark.PolarizabilityTable.from_csv(table)
    code, out, err = run_cli("validate", "--config",
                             write_cfg(tmp_path, base_cfg(table=str(table))),
                             "--subcommand", "rabi")
    assert (code, err) == (2, "")
    assert json.loads(out)["issues"] == [
        f"file: polarizability table: {table}, line 7: 3P2 at 550.0 nm "
        "repeats line 5"]


def _synthetic_trace(tmp_path, t, y):
    path = tmp_path / "trace.csv"
    dynamics.write_trace_csv(dynamics.TraceResult(
        t_s=t, p32_mean=y, p32_sem=np.zeros_like(t)), path)
    return str(path)


class TestFitSubcommand:
    F = 1.3e6

    def test_sinusoid_mode(self, tmp_path):
        t = np.linspace(0.0, 40e-6, 400)
        y = 0.5 + 0.45 * np.sin(2 * math.pi * self.F * t + 1.0)
        trace = _synthetic_trace(tmp_path, t, y)
        cfg = {"schema_version": 1, "tweezer": {
            "wavelength_nm": 539.91, "power_mW": 0.046, "na": 0.5},
            "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
            "fit": {"trace_csv": trace, "mode": "sinusoid"}}
        out_dir = tmp_path / "out"
        code, _, err = run_cli("fit", "--config",
                               write_cfg(tmp_path, cfg), "--out",
                               str(out_dir))
        assert code == 0, err
        fit = json.loads((out_dir / "fit.json").read_text())
        assert fit["status"] == "ok"
        assert fit["freq_hz"] == pytest.approx(self.F, rel=1e-6)
        assert fit["amplitude"] == pytest.approx(0.45, abs=1e-6)
        res = np.loadtxt(out_dir / "residuals.csv", delimiter=",",
                         skiprows=1)
        assert res.shape == (400, 4)
        assert np.max(np.abs(res[:, 3])) < 1e-6

    def test_sinusoid_fit_json_keys(self, tmp_path):
        # the keys of fit.json in sinusoid mode, pinned on every host by a
        # synthetic trace; the record itself says "ok"
        t = np.linspace(0.0, 10e-6, 200)
        y = 0.5 + 0.4 * np.sin(2 * math.pi * self.F * t)
        cfg = {"schema_version": 1,
               "fit": {"trace_csv": _synthetic_trace(tmp_path, t, y),
                       "mode": "sinusoid"}}
        out_dir = tmp_path / "out"
        code, _, err = run_cli("fit", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(out_dir))
        assert code == 0, err
        fit = json.loads((out_dir / "fit.json").read_text())
        assert set(fit) == {"model", "status", "amplitude", "freq_hz",
                            "phase_rad", "offset", "amplitude_err",
                            "freq_err_hz", "phase_err_rad", "offset_err",
                            "rms"}
        assert (fit["model"], fit["status"]) == ("sinusoid", "ok")

    def test_fit_needs_only_its_section(self, tmp_path):
        # fit reads its trace alone: no tweezer, field or table
        t = np.linspace(0.0, 10e-6, 200)
        y = 0.5 + 0.4 * np.sin(2 * math.pi * self.F * t)
        cfg = {"schema_version": 1,
               "fit": {"trace_csv": _synthetic_trace(tmp_path, t, y),
                       "mode": "sinusoid"}}
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "fit")
        assert code == 0, out
        assert json.loads(out)["issues"] == []
        out_dir = tmp_path / "out"
        code, _, err = run_cli("fit", "--config", path, "--out",
                               str(out_dir))
        assert code == 0, err
        fit = json.loads((out_dir / "fit.json").read_text())
        assert fit["freq_hz"] == pytest.approx(self.F, rel=1e-6)

    def test_equal_times_fail_typed_and_write_nothing(self, tmp_path):
        # 28 samples at one time: the fixed-frequency design has rank one.
        # At 3 us rounding leaves its Gram matrix invertible with a positive
        # diagonal (amplitude 0.225 +- 1.4e6); the rank test refuses it.
        t = np.full(28, 3e-6)
        cfg = {"schema_version": 1,
               "fit": {"trace_csv": _synthetic_trace(
                   tmp_path, t, np.linspace(0.2, 0.7, 28)),
                       "mode": "sinusoid", "f_fringe_MHz": 1.3}}
        out_dir = tmp_path / "out"
        code, _, err = run_cli("fit", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(out_dir))
        assert code == 1
        error = json.loads(err.strip())["error"]
        assert error["type"] == "FitFailed"
        assert "numerically singular" in error["message"]
        assert not out_dir.exists()

    def test_envelope_mode(self, tmp_path):
        t2 = 15e-6
        t = np.linspace(0.0, 60e-6, 1200)
        y = 0.5 + 0.5 * np.cos(2 * math.pi * self.F * t) \
            * np.exp(-t ** 2 / (2 * t2 ** 2))
        trace = _synthetic_trace(tmp_path, t, y)
        cfg = {"schema_version": 1, "tweezer": {
            "wavelength_nm": 539.91, "power_mW": 0.046, "na": 0.5},
            "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
            "fit": {"trace_csv": trace, "mode": "envelope",
                    "f_fringe_MHz": 1.3}}
        out_dir = tmp_path / "out"
        code, _, err = run_cli("fit", "--config",
                               write_cfg(tmp_path, cfg), "--out",
                               str(out_dir))
        assert code == 0, err
        fit = json.loads((out_dir / "fit.json").read_text())
        assert fit["status"] == "ok"
        assert fit["t2_s"] == pytest.approx(t2, rel=0.05)
        lines = (out_dir / "contrast.csv").read_text().splitlines()
        assert lines[0] == "t_s,contrast,contrast_err"
        assert len(lines) > 5


def _shipped_configs():
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    prefixes = (("magic_scan", "magic-scan"), ("magic_find", "magic-find"),
                ("phinoise", "phinoise"), ("shiftmap", "shiftmap"),
                ("rabi", "rabi"), ("ramsey", "ramsey"), ("t2", "t2"))
    out = []
    for path in sorted(root.glob("*.json")):
        sub = next(s for p, s in prefixes if path.name.startswith(p))
        out.append(pytest.param(path, sub, id=path.stem))
    return out


class TestShippedConfigs:
    @pytest.mark.parametrize("path,sub", _shipped_configs())
    def test_validates_clean(self, path, sub):
        code, out, _ = run_cli("validate", "--config", str(path),
                               "--subcommand", sub)
        assert code == 0, out
        assert json.loads(out)["issues"] == []


    def test_readme_example_validates_clean(self, tmp_path):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("### Config format", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        code, out, _ = run_cli("validate", "--config",
                               write_cfg(tmp_path, json.loads(example)),
                               "--subcommand", "ramsey")
        assert code == 0, out


T2_CONFIGS = [p.values[0] for p in _shipped_configs() if p.values[1] == "t2"]


class TestBurstWindows:
    """Contrast extraction puts each burst of ``ramsey_burst_grid`` in a
    window of its own, though burst starts sit on window edges only up to
    rounding."""

    @pytest.mark.parametrize("window_periods", [1, 3, 5, 7])
    @pytest.mark.parametrize("path", T2_CONFIGS, ids=lambda p: p.stem)
    def test_one_burst_per_window(self, tmp_path, path, window_periods):
        cfg = json.loads(path.read_text())
        cfg["burst_grid"]["window_periods"] = window_periods
        f_fr = cfg["drive"]["fringe_MHz"] * 1e6
        grid, _ = cli._burst_grid_s(cfg, f_fr)
        y = 0.5 + 0.4 * np.sin(2 * math.pi * f_fr * grid)
        reread = dynamics.read_trace_csv(_synthetic_trace(tmp_path, grid, y))
        n_windows = cli._get(cfg, "burst_grid", "n_windows")
        for t in (grid, reread.t_s):
            points = analysis.extract_contrast(t, y, f_fr, window_periods)
            assert [p.t_s for p in points] == pytest.approx(
                t.reshape(n_windows, -1).mean(axis=1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("path", T2_CONFIGS, ids=lambda p: p.stem)
    def test_refit_matches_run(self, tmp_path, path):
        cfg = json.loads(path.read_text())
        run_out = tmp_path / "run"
        code, _, err = run_cli("t2", "--config", str(path), "--out",
                               str(run_out))
        assert code == 0, err
        fit_cfg = {"schema_version": 1, "tweezer": cfg["tweezer"],
                   "field": cfg["field"],
                   "fit": {"trace_csv": str(run_out / "trace.csv"),
                           "mode": "envelope",
                           "f_fringe_MHz": cfg["drive"]["fringe_MHz"]}}
        fit_out = tmp_path / "fit"
        code, _, err = run_cli("fit", "--config",
                               write_cfg(tmp_path, fit_cfg), "--out",
                               str(fit_out))
        assert code == 0, err
        run, refit = (json.loads((d / "fit.json").read_text())
                      for d in (run_out, fit_out))
        assert run["status"] == refit["status"] == "ok"
        assert refit["t2_s"] == pytest.approx(run["t2_s"], rel=1e-7)


@pytest.mark.parametrize("status, keys", [
    ("ok", {"model", "t2_s", "c0", "t2_err_s", "c0_err", "rms", "status"}),
    ("no_decay_observed", {"model", "status", "t2_lower_bound_s"})])
def test_fit_json_keys(tmp_path, status, keys):
    # the keys of both outcomes, pinned on every host; a 20 us span at
    # the magic angle shows no decay
    path = next(p for p in T2_CONFIGS if p.stem == "t2_shallow_magic_8G")
    cfg = json.loads(path.read_text())
    cfg["trials"] = 200
    if status != "ok":
        cfg["burst_grid"].update(t2_guess_us=20.0, span_factor=1.0)
    run_out = tmp_path / "run"
    code, _, err = run_cli("t2", "--config", write_cfg(tmp_path, cfg),
                           "--out", str(run_out))
    assert code == 0, err
    fit_cfg = {"schema_version": 1, "tweezer": cfg["tweezer"],
               "field": cfg["field"],
               "fit": {"trace_csv": str(run_out / "trace.csv"),
                       "mode": "envelope",
                       "f_fringe_MHz": cfg["drive"]["fringe_MHz"]}}
    fit_out = tmp_path / "fit"
    code, _, err = run_cli("fit", "--config",
                           write_cfg(tmp_path, fit_cfg, "fit.json"),
                           "--out", str(fit_out))
    assert code == 0, err
    for d in (run_out, fit_out):
        fit = json.loads((d / "fit.json").read_text())
        assert set(fit) == keys
        assert (fit["model"], fit["status"]) == ("gaussian_envelope",
                                                 status)


def test_meta_records_package_version(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert fsqubit.__version__ == version
    out = tmp_path / "out"
    code, _, err = run_cli("magic-find", "--config",
                           str(root / "configs" / "magic_find_phi0.json"),
                           "--out", str(out))
    assert code == 0, err
    meta = json.loads((out / "meta.json").read_text())
    assert meta["tool"] == {"name": "fsqubit", "version": version}


def test_phinoise_ramp_matches_values(tmp_path):
    # the ramp start_deg/stop_deg/points is values_deg by linspace
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" \
        / "phinoise_magic_8G.json"
    cfg = json.loads(path.read_text())
    cfg["trials"] = 60
    scans = {"values": {"values_deg": [0.0, 1.0]},
             "ramp": {"start_deg": 0.0, "stop_deg": 1.0, "points": 2}}
    csvs = []
    for name, scan in scans.items():
        cfg["phi_noise_scan"] = scan
        out = tmp_path / name
        code, _, err = run_cli("phinoise", "--config",
                               write_cfg(tmp_path, cfg, name + ".json"),
                               "--out", str(out))
        assert code == 0, err
        csvs.append((out / "phinoise.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("value, want", [(89.9, 0), (90.0, 2), (120.0, 2)])
def test_phinoise_amplitudes_stay_below_90_deg(tmp_path, value, want):
    # db_x_G = |B| tan(delta_phi) is a transverse field only below 90 deg
    cfg = _shipped("phinoise_magic_8G")
    for scan in ({"values_deg": [0.0, value]},
                 {"start_deg": 0.0, "stop_deg": value, "points": 2}):
        cfg["phi_noise_scan"] = scan
        code, out, _ = run_cli("validate", "--config",
                               write_cfg(tmp_path, cfg),
                               "--subcommand", "phinoise")
        assert code == want, out


def test_echo_protocol_runs_simulate_echo(tmp_path):
    # ramsey with protocol.name "echo": trace.csv is simulate_echo's trace
    # on the scenario's trap, grid and seed
    cfg = _shipped("ramsey_shallow_magic_8G")
    cfg["trials"] = 64
    cfg["protocol"] = {"name": "echo", "fluctuating_detuning": True}
    out = tmp_path / "out"
    code, _, err = run_cli("ramsey", "--config", write_cfg(tmp_path, cfg),
                           "--out", str(out))
    assert code == 0, err
    scn = cli._Scenario(cfg, "ramsey")
    trace = dynamics.simulate_echo(
        scn.trap, scn.temperature_K, scn.noise,
        2 * math.pi * cfg["drive"]["rabi_kHz"] * 1e3,
        cfg["drive"]["fringe_MHz"] * 1e6, cli._time_grid_s(cfg),
        cfg["trials"], cfg["seed"], fluctuating_detuning=True,
        field=scn.field, env=scn.env, table=scn.table)
    dynamics.write_trace_csv(trace, tmp_path / "direct.csv")
    assert (out / "trace.csv").read_bytes() \
        == (tmp_path / "direct.csv").read_bytes()


class TestPointsPerWindowCeiling:
    @pytest.mark.parametrize("name,sub,section", [
        ("t2_shallow_magic_8G", "t2", "burst_grid"),
        ("magic_scan_8G", "magic-scan", "angle_scan")])
    def test_ceiling(self, tmp_path, name, sub, section):
        path = pathlib.Path(__file__).resolve().parents[1] / "configs" \
            / f"{name}.json"
        cfg = json.loads(path.read_text())
        for points, want in ((10_000, 0), (10_001, 2)):
            cfg[section]["points_per_window"] = points
            code, out, _ = run_cli("validate", "--config",
                                   write_cfg(tmp_path, cfg),
                                   "--subcommand", sub)
            assert code == want, out


def _shipped(name) -> dict:
    path = pathlib.Path(__file__).resolve().parents[1] / "configs"
    return json.loads((path / f"{name}.json").read_text())


class TestAliasedWindows:
    """Contrast windows whose fringe phases, m window_periods /
    points_per_window mod 1, fail the fit's rank test at some start phase
    leave the window's sinusoid fit singular, so validate rejects them;
    the rest run."""

    CASES = [("t2_shallow_magic_8G", "t2", "burst_grid"),
             ("magic_scan_8G", "magic-scan", "angle_scan")]

    @pytest.mark.parametrize("name,sub,section", CASES)
    @pytest.mark.parametrize("periods,points,want", [
        (6.0, 6, 2), (7.0, 7, 2), (12.0, 6, 2), (10.0, 6, 0), (5.0, 28, 0),
        (6.000001, 6, 2), (6.01, 6, 2)])
    def test_validate(self, tmp_path, name, sub, section, periods, points,
                      want):
        cfg = _shipped(name)
        cfg[section].update(window_periods=periods, points_per_window=points)
        code, out, _ = run_cli("validate", "--config",
                               write_cfg(tmp_path, cfg), "--subcommand", sub)
        assert code == want, out
        if want:
            (issue,) = json.loads(out)["issues"]
            assert issue.startswith("aliasing:")
            assert f"{section}.points_per_window" in issue
            assert f"{section}.window_periods" in issue

    @pytest.mark.parametrize("name,sub,section", CASES)
    def test_three_phases_run(self, tmp_path, name, sub, section):
        cfg = _shipped(name)
        cfg[section].update(SMALL[section], window_periods=10.0,
                            points_per_window=6)
        cfg["trials"] = 40
        code, _, err = run_cli(sub, "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "out"))
        assert code == 0, err


def test_map_extent_capped_at_field_reach(tmp_path):
    # the cap is the waist search range; 1e6 nm fails the field quadrature
    assert cli._MAP_MAX_HALF_EXTENT_NM == round(
        focalfield._MEASURE_RANGE_M * 1e9)
    cfg = _shipped("shiftmap_magic_46uW")
    for half, want in ((40_000, 0), (40_001, 2), (1e6, 2)):
        cfg["map_grid"]["half_extent_nm"] = half
        code, out, _ = run_cli("validate", "--config",
                               write_cfg(tmp_path, cfg),
                               "--subcommand", "shiftmap")
        assert code == want, out
    assert "map_grid.half_extent_nm" in json.loads(out)["issues"][0]


def test_waist_capped_at_waist_search_range(tmp_path):
    # measure_waist looks for the 1/e^2 radius no farther than this
    assert cli._MAX_WAIST_NM == round(focalfield._MEASURE_RANGE_M * 1e9)
    cfg = base_cfg()
    for waist, want in ((40_000, 0), (40_001, 2), (1e300, 2)):
        cfg["tweezer"]["waist_nm"] = waist
        code, out, _ = run_cli("validate", "--config",
                               write_cfg(tmp_path, cfg),
                               "--subcommand", "ramsey")
        assert code == want, out
    assert json.loads(out)["issues"][0].startswith("range: tweezer.waist_nm")


def test_magic_without_root_fails_validate(tmp_path):
    """validate builds the run's "magic" root: where none exists it reports
    the run's own error, and the run fails the same way before writing."""
    cfg = _shipped("shiftmap_magic_46uW")
    cfg["tweezer"].update(wavelength_nm=528, na=0.99)
    path = write_cfg(tmp_path, cfg)
    code, out, _ = run_cli("validate", "--config", path,
                           "--subcommand", "shiftmap")
    assert code == 2
    (issue,) = json.loads(out)["issues"]
    assert issue.startswith("value: field.phi_deg is 'magic'")
    out_dir = tmp_path / "out"
    code, _, err = run_cli("shiftmap", "--config", path, "--out",
                           str(out_dir))
    assert code == 1
    assert json.loads(err.strip())["error"] == {"type": "ConfigError",
                                                "message": issue}
    assert not out_dir.exists()


def test_run_loads_table_once(tmp_path, monkeypatch):
    # the run's checks build the scenario that the command then runs
    specs = []
    load = atomstark.load_table
    monkeypatch.setattr(atomstark, "load_table",
                        lambda spec=None: specs.append(spec) or load(spec))
    cfg = _quick(_shipped("t2_shallow_magic_8G"), trials=8)
    code, _, err = run_cli("t2", "--config", write_cfg(tmp_path, cfg),
                           "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert specs == [None]


SHIPPED = [(json.loads(p.values[0].read_text()), p.values[1])
           for p in _shipped_configs()]
# (config index, section or None for the top level, key)
SITES = [(i, None, key) for i, (cfg, _) in enumerate(SHIPPED) for key in cfg]
SITES += [(i, section, key) for i, (cfg, _) in enumerate(SHIPPED)
          for section, block in cfg.items() if isinstance(block, dict)
          for key in block]
DROP = object()


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutant")


def _assert_finite_csvs(out_dir):
    for path in out_dir.glob("*.csv"):
        for row in list(csv.reader(path.read_text().splitlines()))[1:]:
            # an empty cell is a phinoise point without visible decay
            assert all(math.isfinite(float(c)) for c in row if c), path


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SITES))
def test_mutated_config_fails_validate_or_builds(mutant_dir, site):
    """Each one-key mutant of a shipped config, cut to a quick run, fails
    validate (exit 2) or runs to exit 0 with finite artifacts."""
    index, section, key = site
    for value in (DROP, -1.0, 0, True, "x", [], 1e300):
        cfg = _quick(json.loads(json.dumps(SHIPPED[index][0])), trials=8)
        sub = SHIPPED[index][1]
        block = cfg if section is None else cfg[section]
        if value is DROP:
            del block[key]
        else:
            block[key] = value
        path = write_cfg(mutant_dir, cfg)
        args = argparse.Namespace(config=path, subcommand=sub)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli._validate(args)
        assert code in (0, 2), out.getvalue()
        if code == 2:
            continue
        out_dir = mutant_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        code, _, err = run_cli(sub, "--config", path, "--out", str(out_dir))
        assert code == 0, (site, value, err)
        _assert_finite_csvs(out_dir)


# per section, the keys that cut a shipped config to a quick run
SMALL = {"time_grid": {"points": 21},
         "burst_grid": {"n_windows": 5, "points_per_window": 12},
         "angle_scan": {"points": 2},
         "phi_noise_scan": {"values_deg": [0.0, 1.0]},
         "map_grid": {"points": 11}}


def _quick(cfg, trials):
    """``cfg`` cut to a quick run: SMALL grids and ``trials`` trials."""
    for section, keys in SMALL.items():
        if section in cfg:
            cfg[section].update(keys)
    if "trials" in cfg:
        cfg["trials"] = trials
    return cfg


def _assert_meta_roundtrip(tmp_path, sub, cfg):
    """Run ``cfg``, rerun its meta.json as the config: identical bytes."""
    outs = [tmp_path / "run", tmp_path / "rerun"]
    code, _, err = run_cli(sub, "--config", write_cfg(tmp_path, cfg),
                           "--out", str(outs[0]))
    assert code == 0, err
    code, _, err = run_cli(sub, "--config", str(outs[0] / "meta.json"),
                           "--out", str(outs[1]))
    assert code == 0, err
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() \
            == (outs[1] / name).read_bytes(), name


# one shipped config per run command, the magic angle wherever it applies
ROUNDTRIP = ("rabi_deep_phi0_3G", "ramsey_shallow_magic_8G",
             "t2_shallow_magic_8G", "magic_scan_8G", "phinoise_magic_8G",
             "shiftmap_magic_46uW", "magic_find_phi0")


@pytest.mark.slow
class TestEndToEnd:
    @pytest.mark.parametrize("path,sub", [p for p in _shipped_configs()
                                          if p.id in ROUNDTRIP])
    def test_meta_roundtrip(self, tmp_path, path, sub):
        _assert_meta_roundtrip(tmp_path, sub,
                               _quick(json.loads(path.read_text()), 64))

    def test_fit_meta_roundtrip(self, tmp_path):
        t = np.linspace(0.0, 10e-6, 200)
        y = 0.5 + 0.4 * np.sin(2 * math.pi * 1.3e6 * t + 0.3)
        cfg = {"schema_version": 1, "tweezer": {
            "wavelength_nm": 539.91, "power_mW": 0.046, "na": 0.5},
            "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
            "fit": {"trace_csv": _synthetic_trace(tmp_path, t, y),
                    "mode": "sinusoid"}}
        _assert_meta_roundtrip(tmp_path, "fit", cfg)

    def test_rabi_rerun_and_meta_roundtrip(self, tmp_path):
        cfg = base_cfg()
        cfg["tweezer"]["power_mW"] = 1.45
        cfg["temperature_uK"] = 8.0
        cfg["noise"] = {"rabi_frac_std": 0.10, "prep_efficiency": 0.9,
                        "readout_fidelity": 0.76}
        cfg["trials"] = 24
        path = write_cfg(tmp_path, cfg)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        for out_dir in outs[:2]:
            code, _, err = run_cli("rabi", "--config", path, "--out",
                                   str(out_dir))
            assert code == 0, err
        # identical config + seed => byte-identical outputs
        for name in ("trace.csv", "trace_ideal.csv", "meta.json"):
            assert (outs[0] / name).read_bytes() \
                == (outs[1] / name).read_bytes(), name
        # a meta.json is itself a runnable config
        code, _, err = run_cli("rabi", "--config",
                               str(outs[0] / "meta.json"), "--out",
                               str(outs[2]))
        assert code == 0, err
        assert (outs[0] / "trace.csv").read_bytes() \
            == (outs[2] / "trace.csv").read_bytes()
        # SPAM-free companion really is the raw trace rescaled
        obs = np.loadtxt(outs[0] / "trace.csv", delimiter=",",
                         skiprows=1)
        ideal = np.loadtxt(outs[0] / "trace_ideal.csv", delimiter=",",
                           skiprows=1)
        np.testing.assert_allclose(obs[:, 1], 0.9 * 0.76 * ideal[:, 1],
                                   atol=1e-12)

    def test_ramsey_magic_refit(self, tmp_path):
        cfg = base_cfg()
        cfg["field"] = {"magnitude_G": 8.0, "phi_deg": "magic"}
        cfg["temperature_uK"] = 0.0
        cfg["time_grid"] = {"start_us": 0.0,
                            "stop_us": 6.0 / 1.3, "points": 160}
        cfg["trials"] = 4
        path = write_cfg(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, err = run_cli("ramsey", "--config", path, "--out",
                               str(out_dir))
        assert code == 0, err
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["resolved"]["phi_was_magic"]
        assert meta["resolved"]["phi_deg"] == pytest.approx(19.3, abs=1.0)
        fit_cfg = {"schema_version": 1,
                   "tweezer": cfg["tweezer"], "field": cfg["field"],
                   "fit": {"trace_csv": str(out_dir / "trace.csv"),
                           "mode": "sinusoid"}}
        fit_out = tmp_path / "fit_out"
        code, _, err = run_cli("fit", "--config",
                               write_cfg(tmp_path, fit_cfg, "fit.json"),
                               "--out", str(fit_out))
        assert code == 0, err
        fit = json.loads((fit_out / "fit.json").read_text())
        assert abs(fit["freq_hz"] - 1.3e6) / 1.3e6 < 1e-4

    def test_remaining_subcommand_tour(self, tmp_path):
        # t2: shallow trap at phi = 0 decays within the burst span
        t2_cfg = base_cfg()
        t2_cfg["burst_grid"] = {"t2_guess_us": 450.0, "n_windows": 5,
                                "points_per_window": 16}
        del t2_cfg["time_grid"]
        t2_cfg["trials"] = 250
        t2_out = tmp_path / "t2"
        code, _, err = run_cli("t2", "--config",
                               write_cfg(tmp_path, t2_cfg, "t2.json"),
                               "--out", str(t2_out))
        assert code == 0, err
        fit = json.loads((t2_out / "fit.json").read_text())
        assert fit["status"] in ("ok", "no_decay_observed")
        assert (t2_out / "trace.csv").exists()
        assert (t2_out / "contrast.csv").exists()

        # magic-scan: higher contrast near the magic angle than at 0
        sc_cfg = base_cfg()
        sc_cfg["field"] = {"magnitude_G": 8.0, "phi_deg": 0.0}
        sc_cfg["angle_scan"] = {"start_deg": 0.0, "stop_deg": 30.0,
                                "points": 3, "t_r_us": 600.0}
        del sc_cfg["time_grid"]
        sc_cfg["trials"] = 200
        sc_out = tmp_path / "scan"
        code, _, err = run_cli("magic-scan", "--config",
                               write_cfg(tmp_path, sc_cfg, "sc.json"),
                               "--out", str(sc_out))
        assert code == 0, err
        rows = np.loadtxt(sc_out / "scan.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 4)
        assert rows[:, 3].max() == pytest.approx(1.0, abs=1e-12)
        assert rows[1, 1] > rows[0, 1]  # 15 deg beats 0 deg at 600 us

        # shiftmap: peak magnitude in the documented window
        map_cfg = base_cfg()
        map_cfg["field"] = {"magnitude_G": 8.0, "phi_deg": "magic"}
        map_cfg["map_grid"] = {"points": 41}
        for key in ("drive", "time_grid", "trials", "seed"):
            del map_cfg[key]
        map_out = tmp_path / "map"
        code, _, err = run_cli("shiftmap", "--config",
                               write_cfg(tmp_path, map_cfg, "map.json"),
                               "--out", str(map_out))
        assert code == 0, err
        meta = json.loads((map_out / "meta.json").read_text())
        assert 300.0 < meta["resolved"]["peak_abs_hz"] < 3400.0
        lines = (map_out / "map.csv").read_text().splitlines()
        assert lines[0] == "x_nm,y_nm,dU_over_h_Hz"
        assert len(lines) == 41 * 41 + 1

        # phinoise: angle noise costs coherence
        pn_cfg = base_cfg()
        pn_cfg["field"] = {"magnitude_G": 8.0, "phi_deg": "magic"}
        pn_cfg["phi_noise_scan"] = {"values_deg": [0.0, 1.0]}
        pn_cfg["burst_grid"] = {"t2_guess_us": 1800.0, "n_windows": 5,
                                "points_per_window": 16}
        del pn_cfg["time_grid"]
        pn_cfg["trials"] = 250
        pn_out = tmp_path / "pn"
        code, _, err = run_cli("phinoise", "--config",
                               write_cfg(tmp_path, pn_cfg, "pn.json"),
                               "--out", str(pn_out))
        assert code == 0, err
        rows = np.loadtxt(pn_out / "phinoise.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape == (2, 4)
        assert rows[0, 1] > rows[1, 1] > 0
        assert rows[1, 3] == pytest.approx(
            8.0 * math.tan(math.radians(1.0)), rel=1e-9)

    def test_magic_scan_with_angle_jitter(self, tmp_path):
        # each scan angle carries the field context its jitter needs
        cfg = base_cfg(**EXTRA["magic-scan"])
        cfg["noise"] = {"phi_jitter_std_deg": 0.1}
        del cfg["time_grid"]
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "magic-scan")
        assert code == 0, out
        code, _, err = run_cli("magic-scan", "--config", path, "--out",
                               str(tmp_path / "out"))
        assert code == 0, err
        rows = np.loadtxt(tmp_path / "out" / "scan.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape == (3, 4)
        assert np.all(np.isfinite(rows))

    def test_rabi_protocol_name_defaults_to_command(self, tmp_path):
        cfg = base_cfg(protocol={"motional_model": "classical"})
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", "rabi")
        assert code == 0, out
        assert json.loads(out)["issues"] == []
        code, _, err = run_cli("rabi", "--config", path, "--out",
                               str(tmp_path / "out"))
        assert code == 0, err
        # a Rabi drive starts in 3P0 and reaches 3P2 within a period
        # (11.9 us at 84 kHz); a Ramsey fringe would start near 1
        p = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",",
                       skiprows=1)[:, 1]
        assert p[0] == 0.0
        assert p.max() > 0.5

    def test_phinoise_point_without_decay(self, tmp_path):
        # a 20 us span at the magic angle: no decay at zero angle noise,
        # clear decay at 2 degrees; the run reports both
        path = pathlib.Path(__file__).resolve().parents[1] / "configs" \
            / "phinoise_magic_8G.json"
        cfg = json.loads(path.read_text())
        cfg["burst_grid"].update(t2_guess_us=20.0, span_factor=1.0)
        cfg["phi_noise_scan"] = {"values_deg": [0.0, 2.0]}
        cfg["trials"] = 100
        out = tmp_path / "out"
        code, _, err = run_cli("phinoise", "--config",
                               write_cfg(tmp_path, cfg), "--out", str(out))
        assert code == 0, err
        flat, decayed = json.loads(
            (out / "meta.json").read_text())["resolved"]["points"]
        assert flat["status"] == "no_decay_observed"
        assert flat["t2_lower_bound_s"] > 0
        assert set(flat) == {"delta_phi_deg", "status", "t2_lower_bound_s",
                             "db_x_G"}
        assert set(decayed) == {"delta_phi_deg", "t2_s", "t2_err_s",
                                "db_x_G"}
        rows = (out / "phinoise.csv").read_text().splitlines()
        assert rows[1].split(",")[1:3] == ["", ""]
        assert rows[2].split(",")[1] == f"{decayed['t2_s']:.9e}"

    def test_phinoise_honours_instantaneous_pulses(self, tmp_path):
        cfg = base_cfg(burst_grid={"t2_guess_us": 450.0, "n_windows": 5,
                                   "points_per_window": 16},
                       phi_noise_scan={"values_deg": [0.0, 0.3]})
        del cfg["time_grid"]
        t2s = []
        for instantaneous in (False, True):
            cfg["protocol"] = {"instantaneous_pulses": instantaneous}
            out = tmp_path / str(instantaneous)
            code, _, err = run_cli("phinoise", "--config",
                                   write_cfg(tmp_path, cfg), "--out",
                                   str(out))
            assert code == 0, err
            t2s.append(np.loadtxt(out / "phinoise.csv", delimiter=",",
                                  skiprows=1)[:, 1])
        # finite pulses carry the per-trial detuning, ideal ones do not
        assert np.all(t2s[0] != t2s[1])


# numpy 2.4 target names; the older AVX512F-style names change nothing
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _avx512_dispatch() -> bool:
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return False
    return "X86_V4" in __cpu_dispatch__ and __cpu_features__.get("X86_V4")


@pytest.mark.slow
@pytest.mark.skipif(not _avx512_dispatch(),
                    reason="X86_V4 is not among numpy's dispatch targets "
                    "on this CPU, so there is no second dispatch level to "
                    "compare against")
@pytest.mark.parametrize("name,sub", [("t2_deep_phi0_3G", "t2"),
                                      ("phinoise_magic_8G", "phinoise")])
def test_artifacts_do_not_depend_on_simd_dispatch(tmp_path, name, sub):
    """The same bytes with and without numpy's AVX-512 kernels: the T2
    envelope fit takes its exponentials from libm."""
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / f"{name}.json").read_text())
    cfg["trials"] = 100
    path = write_cfg(tmp_path, cfg)
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(root / "src")
    files = []
    for level, disable in (("default", {}),
                           ("no_avx512", {"NPY_DISABLE_CPU_FEATURES":
                                          NO_AVX512})):
        out = tmp_path / level
        done = subprocess.run(
            [sys.executable, "-m", "fsqubit.cli", sub, "--config", path,
             "--out", str(out)], env={**env, **disable},
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        files.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(files[0]) == sorted(files[1])
    for fname in files[0]:
        assert files[0][fname] == files[1][fname], fname


@pytest.mark.skipif(not _avx512_dispatch(),
                    reason="X86_V4 is not among numpy's dispatch targets "
                    "on this CPU, so there is no second dispatch level to "
                    "compare against")
def test_geometric_grids_do_not_depend_on_simd_dispatch():
    """The T2 envelope fit's beta grid and the far waist-scan radii have
    the same bytes with and without numpy's AVX-512 kernels: their powers
    come from libm, where numpy's geomspace moves in the last bit."""
    root = pathlib.Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""
        from fsqubit import analysis, focalfield
        print(analysis._ENVELOPE_GRID.tobytes().hex())
        for nm in (500.0, 539.91, 813.0, 1064.0):
            print(focalfield._far_radii(nm * 1e-9).tobytes().hex())
        """)
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(root / "src")
    grids = []
    for disable in ({}, {"NPY_DISABLE_CPU_FEATURES": NO_AVX512}):
        done = subprocess.run([sys.executable, "-c", code],
                              env={**env, **disable}, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        grids.append(done.stdout.splitlines())
    assert len(grids[0]) == 5
    for i, (a, b) in enumerate(zip(*grids)):
        assert a == b, f"grid {i}"


def _blas_core(env=None) -> str:
    """OpenBLAS's core type in a fresh process with environment ``env``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import runpy, sys; print(runpy.run_path(sys.argv[1])"
            "['blas_core']())")
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "scripts/artifact_hashes.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src"), **(env or {})},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.slow
@pytest.mark.parametrize("name,sub", [("t2_deep_phi0_3G", "t2"),
                                      ("phinoise_magic_8G", "phinoise")])
def test_artifacts_across_blas_cores(tmp_path, name, sub):
    """Under OpenBLAS's Haswell kernels (AVX2) as under the default core:
    the same CSV bytes, and every JSON number within artifact_diff's
    REL_FLOOR relative (or both within it of zero). Only JSON bytes are
    held to one core: the matrix products round per core."""
    core = _blas_core()
    if core in ("unknown", "Haswell") or _blas_core(
            {"OPENBLAS_CORETYPE": "Haswell"}) != "Haswell":
        pytest.skip(f"no second OpenBLAS core to compare: default {core}")
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / f"{name}.json").read_text())
    cfg["trials"] = 100
    path = write_cfg(tmp_path, cfg)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(root / "src")
    outs = []
    for level, override in (("default", {}),
                            ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        out = tmp_path / level
        done = subprocess.run(
            [sys.executable, "-m", "fsqubit.cli", sub, "--config", path,
             "--out", str(out)], env={**env, **override},
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outs.append(out)
    diff = _script("artifact_diff")
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for fname in names:
        a, b = (out / fname for out in outs)
        if a.suffix == ".csv":
            assert a.read_bytes() == b.read_bytes(), fname
            continue
        for (where, x), (_, y) in zip(diff._values(a), diff._values(b),
                                      strict=True):
            if isinstance(x, float) and isinstance(y, float):
                scale = max(abs(x), abs(y))
                assert (abs(x - y) <= diff.REL_FLOOR * scale
                        or scale <= diff.REL_FLOOR), f"{fname}{where}"
            else:
                assert x == y, f"{fname}{where}"


def _script(name: str):
    """The module of ``scripts/<name>.py``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        name, root / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _artifact_record() -> dict[str, str]:
    """config/file -> sha256 from tests/data/artifacts.sha256; skips the
    calling test where numpy, the machine or OpenBLAS's core type differs
    from the header, or the core type is unknown."""
    record = pathlib.Path(__file__).resolve().parent / "data" \
        / "artifacts.sha256"
    lines = record.read_text().splitlines()
    header = dict(line[2:].split(": ", 1) for line in lines
                  if line.startswith("# ") and ": " in line)
    here = {"numpy": np.__version__, "machine": platform.machine(),
            "blas_core": _script("artifact_hashes").blas_core()}
    differ = [f"{key} {header[key]} recorded, {value} here"
              for key, value in here.items()
              if header[key] != value or value == "unknown"]
    if differ:
        pytest.skip("the record holds for its own numpy, machine and BLAS "
                    "core: " + "; ".join(differ))
    return _hash_lines(lines)


def _hash_lines(lines) -> dict[str, str]:
    return {name: digest for digest, name in (
        line.split("  ", 1) for line in lines if not line.startswith("#"))}


def _moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(name for name in want.keys() | got.keys()
                  if want.get(name) != got.get(name))


def test_shipped_artifacts_match_record(tmp_path, capsys):
    """Every file the shipped configs produce has the bytes recorded in
    tests/data/artifacts.sha256. The determinism contract covers one numpy
    version, so the record holds where the header's numpy and machine
    match. A change that moves bytes on purpose regenerates the record
    (``scripts/artifact_hashes.py`` below the header) and says why."""
    want = _artifact_record()
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "artifact_hashes", root / "scripts/artifact_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.hash_outputs(tmp_path) == 0
    got = _hash_lines(capsys.readouterr().out.splitlines())
    moved = _moved(want, got)
    assert not moved, f"moved files: {moved}"


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity call on this platform")
def test_shipped_artifacts_match_record_on_one_cpu():
    """The recorded bytes from a process that may run on one CPU only,
    pinned before numpy loads, so BLAS starts one thread for the
    Monte-Carlo engine's products: its thread choice changes no byte."""
    want = _artifact_record()
    root = pathlib.Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import os, runpy, sys
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if len(os.sched_getaffinity(0)) != 1:
            sys.exit("not pinned to one CPU")
        sys.argv = [sys.argv[1]]
        runpy.run_path(sys.argv[0], run_name="__main__")
        """)
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "scripts/artifact_hashes.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    moved = _moved(want, _hash_lines(done.stdout.splitlines()))
    assert not moved, f"moved files: {moved}"


def test_artifact_diff_counts_moves_and_floors_relative_change(tmp_path):
    """A value that moves from 0 to 1.7e-17 is round-off about zero: it is
    counted as moved and in the absolute change, not as a relative one."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "artifact_diff", root / "scripts/artifact_diff.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = {"a": ["0.0", "0.5", "2.0"], "b": ["1.7e-17", "0.5", "2.000002"]}
    for tree, cells in rows.items():
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "trace.csv").write_text(
            "t_s,p32_mean,p32_sem\r\n" + ",".join(cells) + "\r\n")
    line = script.compare(tmp_path / "a" / "trace.csv",
                          tmp_path / "b" / "trace.csv")
    assert line.startswith("2 of 3 values moved")
    assert "max abs 2e-06" in line
    assert "max rel 1e-06 (at row 1 p32_sem" in line


@pytest.mark.parametrize("change, code", [
    (None, 0), ("differ", 1), ("one tree only", 1)])
def test_artifact_diff_exit_code(tmp_path, capsys, change, code):
    """0 when the trees are byte for byte identical, else 1."""
    for tree in "ab":
        (tmp_path / tree / "run").mkdir(parents=True)
        (tmp_path / tree / "run" / "fit.json").write_text('{"t2_s": 0.001}\n')
    if change == "differ":
        (tmp_path / "b" / "run" / "fit.json").write_text('{"t2_s": 0.002}\n')
    elif change == "one tree only":
        (tmp_path / "b" / "run" / "meta.json").write_text("{}\n")
    args = [str(tmp_path / tree) for tree in "ab"]
    assert _script("artifact_diff").main(args) == code
    assert bool(capsys.readouterr().out) == bool(code)
