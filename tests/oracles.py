"""Scalar reference implementations that the tests check the engine against.

* :class:`QubitState`, :class:`PulseSegment` and :func:`evolve_segment`: the
  one-state, one-segment propagator. It applies the engine's own SU(2)
  elements (``dynamics._su2_elements``), so its unitarity over many
  segments checks those elements, and chained over a protocol's segments
  it checks the engine's expansion into harmonics.
* :func:`polarization_in_field_frame`: the full field-frame polarization,
  the reference for ``atomstark.axis_projection``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fsqubit.dynamics import _su2_elements


@dataclass(frozen=True)
class QubitState:
    """Two-level amplitudes (c_3P0, c_3P2)."""

    c_p0: complex
    c_p2: complex

    def __post_init__(self) -> None:
        norm = abs(self.c_p0) ** 2 + abs(self.c_p2) ** 2
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def p32(self) -> float:
        return abs(self.c_p2) ** 2


@dataclass(frozen=True)
class PulseSegment:
    """Constant-parameter drive segment; Omega = 0 is free evolution."""

    duration_s: float
    omega_rad_s: float
    delta_rad_s: float
    phi_l_rad: float

    def __post_init__(self) -> None:
        if not 0 <= self.duration_s < math.inf:
            raise ValueError("segment duration must be finite and >= 0")
        if not 0 <= self.omega_rad_s < math.inf:
            raise ValueError("Rabi frequency must be finite and >= 0")
        if not (math.isfinite(self.delta_rad_s)
                and math.isfinite(self.phi_l_rad)):
            raise ValueError("detuning and phase must be finite")


def evolve_segment(state: QubitState, seg: PulseSegment) -> QubitState:
    """Exact rotating-frame propagator for one constant segment."""
    u00, coupling, u11 = _su2_elements(seg.omega_rad_s, seg.delta_rad_s,
                                       seg.duration_s)
    phase = np.exp(-1j * seg.phi_l_rad)
    a, b = state.c_p0, state.c_p2
    return QubitState(complex(u00 * a + coupling * phase * b),
                      complex(coupling * np.conj(phase) * a + u11 * b))


def polarization_in_field_frame(epsilon: np.ndarray,
                                phi_deg: float) -> np.ndarray:
    """Map a tweezer-frame polarization onto the field-aligned frame.

    The field direction lies in the transverse plane at angle phi from the
    input-polarization axis. The returned components are along
    (z_hat x B_hat, z_hat, B_hat) — the third component is the one along
    the quantization axis.
    """
    phi = math.radians(phi_deg)
    ex, ey, ez = np.asarray(epsilon, dtype=complex)
    return np.array([
        -math.sin(phi) * ex + math.cos(phi) * ey,
        ez,
        math.cos(phi) * ex + math.sin(phi) * ey,
    ])
