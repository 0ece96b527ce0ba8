"""The in-package Cephes functions are bit-identical to scipy's, which
computes them with the same Cephes code: no tolerance."""

import math

import numpy as np
import pytest
import scipy.special as sc

from fsqubit import special
from fsqubit.dynamics import _to_unit


def around(*points):
    """Each point and its two floating-point neighbours."""
    return np.array([v for p in points
                     for v in (np.nextafter(p, -np.inf), p,
                               np.nextafter(p, np.inf))])


@pytest.mark.parametrize("name", ["j0", "j1"])
@pytest.mark.parametrize("x", [
    np.linspace(0.0, 300.0, 1_000_001),
    np.geomspace(1e-12, 5.0, 100_001),
    around(5.0, 1e-5)], ids=["linspace", "geomspace", "branch-points"])
def test_bessel_bitwise(name, x):
    np.testing.assert_array_equal(getattr(special, name)(x),
                                  getattr(sc, name)(x))


@pytest.mark.parametrize("u", [
    # the extreme uniforms of the trial draws, 0.5 2^-52 and 1 - 0.5 2^-52
    _to_unit(np.array([0, 2 ** 64 - 1], dtype=np.uint64)),
    around(math.exp(-2), 1 - math.exp(-2), math.exp(-32),
           1 - math.exp(-32)),
    np.random.default_rng(7).random(1_000_000),
    np.concatenate([np.geomspace(1e-16, 0.5, 100_001),
                    1 - np.geomspace(1e-16, 0.5, 100_001)])],
    ids=["extremes", "branch-points", "dense", "tails"])
def test_ndtri_bitwise(u):
    np.testing.assert_array_equal(special.ndtri(u), sc.ndtri(u))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan])
def test_ndtri_rejects_uniforms_outside_open_interval(bad):
    with pytest.raises(ValueError):
        special.ndtri(np.array([0.5, bad]))
