"""Exception types raised by the engine.

Every error the public API can raise is defined here so callers (and the
CLI's machine-readable error output) can switch on the class name. An
outcome that is a result rather than a failure, such as a T2 fit that sees
no decay, is not an error: it is a status of the result it belongs to.
"""

from __future__ import annotations

# Rank test bound on a variance inflation factor s_i^2 (G^-1)_ii of G = J^T J,
# s_i^2 being column i's natural squared norm: n for sin, cos and 1 (a sine
# sampled at its zeros is the near-empty column it is), else G_ii. On fixed-
# frequency spans of 0.01 to 1 period, 3 to 28 points, normal equations kept
# within 7 eps times the largest factor of a QR solve: 1e6 keeps 8 digits.
# It sits here, numpy-free, so that validate refuses what a fit would.
_MAX_VIF = 1e6


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


class WindowTooShort(FsqubitError):
    """Contrast window does not span at least one fringe period."""
