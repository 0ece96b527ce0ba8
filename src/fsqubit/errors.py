"""Exception types raised by the engine.

Every error the public API can raise is defined here so callers (and the
CLI's machine-readable error output) can switch on the class name.
"""

from __future__ import annotations


class FsqubitError(Exception):
    """Base class for all package errors."""


class UnknownState(FsqubitError):
    """Requested state label is not present in the polarizability table."""


class MalformedTable(FsqubitError):
    """Polarizability table file cannot be parsed; names the line."""


class WavelengthOutOfRange(FsqubitError):
    """Wavelength outside the tabulated span for the requested state."""


class NonUnitPolarization(FsqubitError):
    """Polarization vector norm differs from 1 beyond tolerance."""


class DegenerateLabeling(FsqubitError):
    """Adiabatic m_J labeling is ambiguous (max overlap <= 0.5)."""


class QuadratureNotConverged(FsqubitError):
    """Focal-field quadrature failed to converge under node doubling."""


class UnreachableWaist(FsqubitError):
    """No filling factor reproduces the target spot size at this NA."""


class GridTooCoarse(FsqubitError):
    """Sampling grid does not resolve the feature it must integrate."""


class NotTrapping(FsqubitError):
    """Potential curvature is non-positive along at least one axis."""


class ModelMismatch(FsqubitError):
    """Motional sample kind does not match the requested detuning model."""


class FitFailed(FsqubitError):
    """Fit is underdetermined or did not converge."""


class NoDecayObserved(FsqubitError):
    """Contrast does not decay over the scanned span.

    Carries ``t2_lower_bound_s``: the largest scanned time, a conservative
    lower bound on the coherence time.
    """

    def __init__(self, message: str, t2_lower_bound_s: float):
        super().__init__(message)
        self.t2_lower_bound_s = float(t2_lower_bound_s)


class WindowTooShort(FsqubitError):
    """Contrast window does not span at least one fringe period."""
