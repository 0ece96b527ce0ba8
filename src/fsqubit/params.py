"""Shared parameter dataclasses.

These are deliberately dumb containers with validation; physics lives in the
modules that consume them. Frames and conventions:

* The tweezer propagates along +z; its input (linear) polarization defines
  the transverse x axis. The lab orientation of that axis is not modelled.
* ``MagneticField.phi_deg`` is the angle between the input-polarization axis
  and the field direction; the field lies in the transverse plane. Angles are
  wrapped to [0, 180) — the physics is invariant under phi -> phi + 180.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MagneticField:
    """Bias field: magnitude in gauss, orientation angle in degrees."""

    magnitude_G: float
    phi_deg: float

    def __post_init__(self) -> None:
        if not 0 <= self.magnitude_G < math.inf:
            raise ValueError("field magnitude must be finite and >= 0")
        if not math.isfinite(self.phi_deg):
            raise ValueError("field angle must be finite")
        object.__setattr__(self, "phi_deg", float(self.phi_deg) % 180.0)


@dataclass(frozen=True)
class TweezerConfig:
    """Static optical-tweezer parameters.

    ``filling_factor`` is the input-beam 1/e^2 radius over the pupil radius;
    None means "calibrate it so the focal 1/e^2 radius hits
    ``target_waist_nm``".
    """

    wavelength_nm: float
    power_W: float
    na: float
    target_waist_nm: float | None = None
    filling_factor: float | None = None

    def __post_init__(self) -> None:
        for name in ("wavelength_nm", "power_W", "na", "target_waist_nm",
                     "filling_factor"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength must be positive")
        if self.power_W < 0:
            raise ValueError("power must be >= 0")
        if not 0.0 < self.na < 1.0:
            raise ValueError("NA must lie in (0, 1)")
        if self.filling_factor is not None and self.filling_factor <= 0:
            raise ValueError("filling factor must be positive")


@dataclass(frozen=True)
class FieldEnvironment:
    """A tweezer plus the bias magnetic field it sits in."""

    tweezer: TweezerConfig
    field: MagneticField


@dataclass(frozen=True)
class NoiseModel:
    """Technical-noise knobs for protocol simulations.

    rabi_frac_std        shot-to-shot fractional Rabi-frequency jitter
    phi_jitter_std_deg   shot-to-shot field-angle jitter (degrees)
    detuning_offset_std  shot-to-shot detuning offset, rad/s
    prep_efficiency      probability the atom enters the sequence in 3P0
    readout_fidelity     probability an atom in 3P2 is scored as 3P2
    """

    rabi_frac_std: float = 0.0
    phi_jitter_std_deg: float = 0.0
    detuning_offset_std: float = 0.0
    prep_efficiency: float = 1.0
    readout_fidelity: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rabi_frac_std", "phi_jitter_std_deg",
                     "detuning_offset_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("prep_efficiency", "readout_fidelity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def spam_scale(self) -> float:
        """Multiplicative SPAM factor on ideal populations.

        Unprepared or mis-read atoms contribute zero signal, so the observed
        population is prep_efficiency * readout_fidelity * P_ideal.
        """
        return self.prep_efficiency * self.readout_fidelity
