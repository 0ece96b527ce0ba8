"""Module layering: which fsqubit modules each module imports.

Physics modules sit below the Monte-Carlo engine, and only the CLI joins
simulation to fits: ``dynamics`` returns traces and never fits them, and
``trapmodel`` characterizes the focal field it is given and never builds
one.
The constants are literals, and the root finder, J0, J1 and the normal
quantile are in-package, so numpy is the only runtime dependency and no
module imports scipy.
"""

import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src/fsqubit"

LAYERS = {
    "__init__": {"params"},
    "constants": set(),
    "errors": set(),
    "params": set(),
    "special": set(),
    "analysis": {"constants", "errors"},
    "atomstark": {"constants", "errors", "params"},
    "focalfield": {"atomstark", "constants", "errors", "params", "special"},
    "trapmodel": {"atomstark", "constants", "errors", "params", "special"},
    "dynamics": {"atomstark", "params", "special", "trapmodel"},
    "cli": {"analysis", "atomstark", "dynamics", "errors", "focalfield",
            "params", "trapmodel"},
}


def package_imports(path: pathlib.Path) -> set[str]:
    """fsqubit modules imported anywhere in ``path``, function bodies
    included, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if not node.level:
                if module[0] != "fsqubit":
                    continue
                module = module[1:]
            if module and module[0]:
                found.add(module[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fsqubit."))
    return found


def test_every_module_is_listed():
    assert {p.stem for p in SRC.glob("*.py")} == LAYERS.keys()


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports(module):
    assert package_imports(SRC / f"{module}.py") == LAYERS[module]


def run_python(code, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          check=False, capture_output=True, text=True)


@pytest.mark.parametrize("module", ["fsqubit.constants", "fsqubit.cli"])
def test_constants_load_no_scipy(module):
    done = run_python(f"import sys, {module}; "
                      "sys.exit('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr


def test_numpy_only_commands_load_no_scipy(tmp_path):
    """Every command runs without importing scipy: the shipped configs at
    40 trials, and a fit of a synthetic trace."""
    trace = tmp_path / "trace.csv"
    rows = ["t_s,p32_mean,p32_sem"]
    for i in range(40):
        t = i * 2.5e-7
        p = 0.5 + 0.4 * math.sin(2 * math.pi * 1.3e6 * t + 0.3)
        rows.append(f"{t:.12e},{p:.9e},1e-2")
    trace.write_text("\n".join(rows) + "\n")
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({
        "schema_version": 1,
        "tweezer": {"wavelength_nm": 539.91, "power_mW": 0.046, "na": 0.5},
        "field": {"magnitude_G": 3.0, "phi_deg": 0.0},
        "fit": {"trace_csv": str(trace), "mode": "sinusoid"}}))
    code = textwrap.dedent("""
        import contextlib, io, sys
        from fsqubit import cli
        configs, fit_cfg, out = sys.argv[1:]
        runs = [["validate", "--config", configs + "/t2_shallow_magic_8G.json",
                 "--subcommand", "t2"],
                ["magic-find", "--config", configs + "/magic_find_phi0.json",
                 "--out", out + "/magic-find"],
                ["fit", "--config", fit_cfg, "--out", out + "/fit"]]
        for command, config in [("shiftmap", "shiftmap_magic_46uW"),
                                ("t2", "t2_shallow_magic_8G"),
                                ("ramsey", "ramsey_shallow_magic_8G"),
                                ("rabi", "rabi_deep_phi0_3G"),
                                ("magic-scan", "magic_scan_8G"),
                                ("phinoise", "phinoise_magic_8G")]:
            runs.append([command, "--config", f"{configs}/{config}.json",
                         "--out", f"{out}/{command}", "--trials", "40"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
        print(codes, sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
    done = run_python(code, str(ROOT / "configs"), str(fit_cfg),
                      str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{[0] * 9} []"


def scipy_imports(path: pathlib.Path):
    """(runs on import?, dotted name) for each scipy import in ``path``;
    imports inside a function body run only when it is called."""
    tree = ast.parse(path.read_text())
    deferred = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "scipy":
                yield id(node) not in deferred, name


def test_scipy_only_inside_functions_and_never_optimize():
    found = [(path.name, at_import, name) for path in sorted(SRC.glob("*.py"))
             for at_import, name in scipy_imports(path)]
    assert not [f for f in found if f[1]]
    assert not [f for f in found if f[2].startswith("scipy.optimize")]


def test_bessel_j2_by_recurrence_not_jv():
    """focalfield builds J2 from J0 and J1, which it takes from the
    in-package ``special``, and no module imports the general-order
    ``jv``."""
    tree = ast.parse((SRC / "focalfield.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "special"
             for alias in node.names}
    assert names == {"j0", "j1"}
    assert not [(path.name, name) for path in sorted(SRC.glob("*.py"))
                for _, name in scipy_imports(path)
                if name.split(".")[-1] == "jv"]


def test_src_imports_no_scipy_and_depends_on_numpy_only():
    """scipy is a test-only reference: no module imports it, function
    bodies included, and the runtime dependencies name numpy alone."""
    assert not [(path.name, name) for path in sorted(SRC.glob("*.py"))
                for _, name in scipy_imports(path)]
    deps = re.search(r"^dependencies = \[(.*?)\]",
                     (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps.group(1)) == ["numpy"]
