"""Physical constants and unit conversions used across the package.

Internal unit conventions:

* energies are E/h in Hz
* angular frequencies in rad/s
* lengths in meters inside numerics; nm at API boundaries where noted
* magnetic field in gauss, angles in degrees at API boundaries
* polarizabilities in atomic units (a.u.)

The squared field amplitude ``e0sq`` carried by a polarization sample is the
reduced quantity I / (2 eps0 c) in (V/m)^2, chosen so that a state with
scalar polarizability alpha (SI) has potential energy U = -alpha * e0sq.
"""

from __future__ import annotations

# CODATA 2022 values, written out so that importing the package does not
# load scipy and a CODATA revision cannot move results silently. Each
# literal is the repr of the scipy.constants 1.17.1 value, bit for bit.
H_PLANCK = 6.62607015e-34            # J s (exact)
HBAR = 1.0545718176461565e-34        # J s, H_PLANCK / 2 pi
K_B = 1.380649e-23                   # J/K (exact)
EPS0 = 8.8541878188e-12              # F/m
C_LIGHT = 299792458.0                # m/s (exact)

# 1 atomic unit of polarizability, C^2 m^2 / J.
AU_POLARIZABILITY = 1.64877727212e-41

# Bohr magneton over h, in Hz per gauss (1 G = 1e-4 T).
MU_B_HZ_PER_G = 9.2740100657e-24 / H_PLANCK * 1e-4

# Atom mass: the 88 u bosonic strontium isotope; atomic mass constant in kg.
MASS_SR88 = 87.9056 * 1.66053906892e-27   # kg


def intensity_to_e0sq(intensity_w_m2: float) -> float:
    """Reduced squared field I/(2 eps0 c) for a plane-wave intensity."""
    return intensity_w_m2 / (2.0 * EPS0 * C_LIGHT)
