"""Module layering: which fsqubit modules each module imports.

Physics modules sit below the Monte-Carlo engine, and only the CLI joins
simulation to fits: ``dynamics`` returns traces and never fits them, and
``trapmodel`` characterizes the focal field it is given and never builds
one.
The constants are literals, and the root finder, J0, J1 and the normal
quantile are in-package, so numpy is the only runtime dependency and no
module imports scipy.

A fresh CLI process loads only the layers its command runs: ``cli``
imports ``atomstark`` at the top and the others inside the functions that
use them, and ``fsqubit.<module>`` resolves on first use. numpy is
imported the same way: ``cli``, ``atomstark`` and the modules below them
import it only inside the functions that build arrays, so importing
``fsqubit.cli``, ``validate`` and ``magic-find`` never load it.
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
    "dynamics": {"params", "special", "trapmodel"},
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


def write_fit_config(tmp_path) -> pathlib.Path:
    """A sinusoid-fit config over a synthetic 40-point trace."""
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
    return fit_cfg


def test_numpy_only_commands_load_no_scipy(tmp_path):
    """Every command runs without importing scipy: the shipped configs at
    40 trials, and a fit of a synthetic trace."""
    fit_cfg = write_fit_config(tmp_path)
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


# what the table-only commands leave unloaded: every layer past atomstark,
# and numpy.ma, which np.unique and np.union1d import
BEYOND_ATOMSTARK = {"fsqubit.analysis", "fsqubit.dynamics",
                    "fsqubit.focalfield", "fsqubit.trapmodel",
                    "fsqubit.special", "numpy.ma"}
# command -> (shipped config, modules it must leave unloaded); no command
# loads numpy.polynomial, whose leggauss the Newton nodes replaced
COMMANDS = {
    "validate": ("t2_shallow_magic_8G", BEYOND_ATOMSTARK),
    "magic-find": ("magic_find_phi0", BEYOND_ATOMSTARK),
    "shiftmap": ("shiftmap_magic_46uW", {"fsqubit.analysis",
                                         "fsqubit.dynamics",
                                         "fsqubit.trapmodel"}),
    "t2": ("t2_shallow_magic_8G", set()),
    "ramsey": ("ramsey_shallow_magic_8G", set()),
    "rabi": ("rabi_deep_phi0_3G", set()),
    "magic-scan": ("magic_scan_8G", set()),
    "phinoise": ("phinoise_magic_8G", set()),
    "fit": (None, {"gzip"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_layers(command, tmp_path):
    """Each command in a fresh process, on a shipped config (the fit on a
    synthetic trace), leaves the layers it does not run unloaded."""
    config, unloaded = COMMANDS[command]
    if config is None:
        argv = ["--config", str(write_fit_config(tmp_path))]
    else:
        argv = ["--config", str(ROOT / "configs" / f"{config}.json")]
    if command == "validate":
        argv += ["--subcommand", "t2"]
    else:
        argv += ["--out", str(tmp_path / "out")]
        if command in ("t2", "ramsey", "rabi", "magic-scan", "phinoise"):
            argv += ["--trials", "40"]
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from fsqubit import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(sys.argv[1:])
        print(json.dumps([code, sorted(sys.modules)]))
        """)
    done = run_python(code, command, *argv)
    assert done.returncode == 0, done.stderr
    exit_code, loaded = json.loads(done.stdout)
    assert exit_code == 0
    assert not (unloaded | {"numpy.polynomial"}) & set(loaded)


@pytest.mark.parametrize("command,config", [
    ("import", None), ("validate", "t2_shallow_magic_8G"),
    ("magic-find", "magic_find_phi0")])
def test_table_commands_load_no_numpy(command, config, tmp_path):
    """Importing ``fsqubit.cli``, and then running ``validate`` or
    ``magic-find`` on a shipped config, in a fresh process, leaves numpy
    unloaded: the table layer works in plain floats."""
    argv = [] if config is None else [
        command, "--config", str(ROOT / "configs" / f"{config}.json"),
        *(["--subcommand", "t2"] if command == "validate"
          else ["--out", str(tmp_path / "out")])]
    code = textwrap.dedent("""
        import contextlib, io, sys
        import fsqubit.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = fsqubit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
        print(code, "numpy" in sys.modules)
        """)
    done = run_python(code, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


def test_layers_resolve_on_first_use():
    """``import fsqubit`` loads no layer; ``fsqubit.<module>`` imports it
    (PEP 562), and any other name raises AttributeError."""
    code = textwrap.dedent("""
        import sys
        import fsqubit
        before = sorted(m for m in sys.modules if m.startswith("fsqubit."))
        resolved = [getattr(fsqubit, name) is sys.modules[f"fsqubit.{name}"]
                    for name in sys.argv[1:]]
        try:
            fsqubit.no_such_layer
        except AttributeError as exc:
            print(before, resolved, exc)
        """)
    modules = sorted(LAYERS.keys() - {"__init__"})
    done = run_python(code, *modules)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        f"{['fsqubit.params']} {[True] * len(modules)} module 'fsqubit' has "
        "no attribute 'no_such_layer'")


def test_focalfield_calls_no_lapack():
    """The Gauss-Legendre nodes are Newton roots, not eigenvalues:
    focalfield names no np.linalg, np.polynomial or leggauss."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "focalfield.py").read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert not names & {"linalg", "polynomial", "leggauss"}


def _names_and_complex_literals(fn: ast.AST):
    names, literals = set(), []
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, complex)):
            literals.append(node.value)
    return names, literals


def test_dynamics_engine_builds_no_complex_time_arrays():
    """The Monte-Carlo engine closes on real cosines: none of its helpers
    calls np.exp, the coefficient functions take no angle (each harmonic
    keeps its complex coefficient), the ones on the grid take no conj,
    angle or SU(2) element and write no imaginary literal, and the ones
    that hold a value per grid point (the run plan, the sequence and the
    replicate statistics) touch no complex number. Only the coefficient
    arrays and the power tables of ``_block_products`` and
    ``_fill_powers`` are complex, one entry per trial and harmonic, head or
    offset, never per point; the test below bounds the memory a long trace
    takes."""
    tree = ast.parse((SRC / "dynamics.py").read_text())
    fns = {node.name: node for node in tree.body
           if isinstance(node, ast.FunctionDef)}
    per_point = ("_run_sequence", "_run_plan", "_replicate_stats")
    on_grid = per_point + ("_block_products", "_fill_powers")
    for name in on_grid + ("_pulse_plan", "_pulse_coefficients",
                           "_drive_coefficients"):
        names, _ = _names_and_complex_literals(fns[name])
        assert "exp" not in names, name
    for name in ("_pulse_coefficients", "_drive_coefficients"):
        names, _ = _names_and_complex_literals(fns[name])
        assert "angle" not in names, name
    for name in on_grid:
        names, literals = _names_and_complex_literals(fns[name])
        assert not literals, name
        assert not names & {"conj", "angle", "_su2_elements",
                            "_segment_apply"}, name
    for name in per_point:
        names, _ = _names_and_complex_literals(fns[name])
        assert not names & {"complex", "complex128", "cdouble", "real",
                            "imag"}, name


def test_long_echo_forms_no_trial_time_array():
    # a 4000-trial fluctuating echo on a 3201-point grid: one (trial,
    # time) float array would take 102 MB, the engine's tables a few
    import tracemalloc

    import numpy as np
    from fsqubit import NoiseModel, dynamics, trapmodel

    om = 2 * math.pi * np.array([25e3, 26e3, 4.3e3])
    trap = trapmodel.TrapCharacterization(
        depth_p0_hz=4.6e5, depth_p2_hz=4.5e5, omega_p0_rad_s=om,
        omega_p2_rad_s=0.99 * om, du_center_hz=300.0)
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)
    t = np.linspace(0.0, 200e-6, 3201)

    def run(trials, seed):
        return dynamics.simulate_echo(trap, 3e-6, noise, 2 * math.pi * 84e3,
                                      1.3e6, t, trials, seed,
                                      fluctuating_detuning=True)

    run(4, 1)  # warm: the run plan is cached per grid
    tracemalloc.start()
    try:
        run(4000, 47)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


def import_time_modules(node: ast.AST):
    """Absolute names of the modules that importing ``node``'s module
    imports: function bodies run later, ``if TYPE_CHECKING:`` never."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.If) \
                and ast.unparse(child.test) == "TYPE_CHECKING":
            child = ast.Module(body=child.orelse, type_ignores=[])
        elif isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module
        yield from import_time_modules(child)


def test_numpy_only_inside_functions_below_the_cli():
    """The package, its parameter, error and constant modules, the table
    layer and the CLI import numpy only inside function bodies."""
    def numpy_at_import(module):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        return [name for name in import_time_modules(tree)
                if name.split(".")[0] == "numpy"]
    assert numpy_at_import("dynamics") == ["numpy"]  # the guard sees one
    for module in ("__init__", "params", "errors", "constants", "atomstark",
                   "cli"):
        assert not numpy_at_import(module), module


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
