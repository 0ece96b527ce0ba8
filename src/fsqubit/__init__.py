"""Fine-structure qubit in an optical tweezer: shifts, dynamics, analysis."""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .params import (  # noqa: F401
    FieldEnvironment,
    MagneticField,
    NoiseModel,
    TweezerConfig,
)

_SUBMODULES = frozenset({"analysis", "atomstark", "cli", "constants",
                         "dynamics", "errors", "focalfield", "params",
                         "special", "trapmodel"})


def __getattr__(name):
    """``fsqubit.<module>`` imports that submodule on first use (PEP 562),
    so importing the package or the CLI loads no layer it does not run."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
