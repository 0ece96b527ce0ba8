from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqubit import cli, dynamics


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
    def test_magic_roots_need_waist(self, tmp_path, sub, phi):
        cfg = base_cfg()
        cfg["tweezer"] = {"wavelength_nm": 539.91, "power_mW": 0.046,
                          "na": 0.5, "filling_factor": 1.0}
        cfg["field"]["phi_deg"] = phi
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run_cli("validate", "--config", path,
                               "--subcommand", sub)
        assert code == 2
        assert any(i.startswith("missing: tweezer.waist_nm")
                   for i in json.loads(out)["issues"])

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
         "range: burst_grid ends")])
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
    def test_malformed_config_leaves_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ this is not json")
        out_dir = tmp_path / "out"
        code, _, err = run_cli("rabi", "--config", str(bad),
                               "--out", str(out_dir))
        assert code == 1
        assert "error" in json.loads(err.strip())
        assert not out_dir.exists()

    def test_missing_trace_file_is_config_error(self, tmp_path):
        cfg = {"schema_version": 1,
               "tweezer": {"wavelength_nm": 539.91, "power_mW": 0.046,
                           "na": 0.5},
               "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
               "fit": {"trace_csv": str(tmp_path / "nope.csv"),
                       "mode": "sinusoid"}}
        path = write_cfg(tmp_path, cfg)
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


class TestFitSubcommand:
    F = 1.3e6

    def _trace(self, tmp_path, y, t):
        tr = dynamics.TraceResult(t_s=t, p32_mean=y,
                                  p32_sem=np.zeros_like(t), trials=1,
                                  master_seed=0)
        path = tmp_path / "trace.csv"
        dynamics.write_trace_csv(tr, path)
        return str(path)

    def test_sinusoid_mode(self, tmp_path):
        t = np.linspace(0.0, 40e-6, 400)
        y = 0.5 + 0.45 * np.sin(2 * math.pi * self.F * t + 1.0)
        trace = self._trace(tmp_path, y, t)
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

    def test_envelope_mode(self, tmp_path):
        t2 = 15e-6
        t = np.linspace(0.0, 60e-6, 1200)
        y = 0.5 + 0.5 * np.cos(2 * math.pi * self.F * t) \
            * np.exp(-t ** 2 / (2 * t2 ** 2))
        trace = self._trace(tmp_path, y, t)
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SITES))
def test_mutated_config_fails_validate_or_builds(mutant_dir, site):
    index, section, key = site
    for value in (DROP, -1.0, 0, True, "x", [], 1e300):
        cfg, sub = json.loads(json.dumps(SHIPPED[index][0])), SHIPPED[index][1]
        block = cfg if section is None else cfg[section]
        if value is DROP:
            del block[key]
        else:
            block[key] = value
        args = argparse.Namespace(config=write_cfg(mutant_dir, cfg),
                                  subcommand=sub)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli._validate(args)
        assert code in (0, 2), out.getvalue()
        if code == 2:
            continue
        cli._tweezer_from(cfg)
        cli._noise_from(cfg)
        if cfg.get("time_grid") is not None:
            assert np.all(np.isfinite(cli._time_grid_s(cfg)))
        if cfg.get("burst_grid") is not None:
            fringe_hz = float(cfg["drive"]["fringe_MHz"]) * 1e6
            grid, _ = cli._burst_grid_s(cfg, fringe_hz)
            assert np.all(np.isfinite(grid))


@pytest.mark.slow
class TestEndToEnd:
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
