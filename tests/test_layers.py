"""Module layering: which fsqubit modules each module imports.

Physics modules sit below the Monte-Carlo engine, and only the CLI joins
simulation to fits: ``dynamics`` returns traces and never fits them, and
``trapmodel`` characterizes the focal field it is given and never builds
one.
The constants are literals, so importing them loads no scipy.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src/fsqubit"

LAYERS = {
    "__init__": {"params"},
    "constants": set(),
    "errors": set(),
    "params": set(),
    "analysis": {"constants", "errors"},
    "atomstark": {"constants", "errors", "params"},
    "focalfield": {"atomstark", "constants", "errors", "params"},
    "trapmodel": {"atomstark", "constants", "errors", "params"},
    "dynamics": {"atomstark", "params", "trapmodel"},
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


def test_constants_load_no_scipy():
    code = ("import sys, fsqubit.constants; "
            "sys.exit('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          check=False)
    assert done.returncode == 0
