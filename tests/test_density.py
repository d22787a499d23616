"""Radial density containers: exact moments, potentials, energies, L1."""

import math

import numpy as np
import pytest

from repelflow import (Dimension, RadialDensity, uniform_ball, annulus,
                       line_interval,
                       newtonian_radial_potential, radial_energy, l1_distance,
                       quadratic)
from repelflow.errors import ConfigError


def test_masses_of_flat_profiles_are_exact():
    assert uniform_ball(Dimension(2), 2.0, 1.0).mass == pytest.approx(2 * math.pi, rel=1e-14)
    assert uniform_ball(Dimension(3), 3.0, 1.0).mass == pytest.approx(4 * math.pi, rel=1e-14)
    # the inner edge ramps over a 1e-9 sliver, worth ~value*sigma_d*1e-9 mass
    assert annulus(Dimension(3), 1.5, 1.0, 2.0).mass == pytest.approx(
        1.5 * 4 * math.pi / 3 * 7.0, rel=1e-8)
    assert line_interval(Dimension(1), 0.5, -1.0, 3.0).mass == pytest.approx(2.0, rel=1e-14)


def test_curved_profile_mass():
    # rho(r) = 4 r^2 on the unit disk carries 2 pi (d = 2)
    r = np.linspace(0.0, 1.0, 2048)
    rho = RadialDensity(r, 4.0 * r * r, Dimension(2), support_radius=1.0)
    assert rho.mass == pytest.approx(2 * math.pi, rel=1e-6)


def test_enclosed_mass_exact_for_flat_profiles():
    rho = uniform_ball(Dimension(3), 3.0, 1.0)
    r = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    expect = np.minimum(4 * math.pi * np.minimum(r, 1.0) ** 3, 4 * math.pi)
    assert np.allclose(rho.enclosed_mass(r), expect, rtol=1e-13, atol=1e-13)
    # scalar in, scalar out
    assert np.isscalar(rho.enclosed_mass(0.5)) or np.ndim(rho.enclosed_mass(0.5)) == 0


def test_enclosed_mass_monotone_on_graded_grids():
    # a 1e-9 wide junction cell must not corrupt the cumulative integral
    rho = annulus(Dimension(3), 1.0, 1.0, 2.0)
    cum = rho.cumulative_mass()
    assert np.all(np.diff(cum) >= 0.0)
    assert cum[-1] == pytest.approx(4 * math.pi / 3 * 7.0, rel=1e-9)


def test_newtonian_potential_uniform_ball_d3():
    rho = uniform_ball(Dimension(3), 1.0, 1.0, n=2048)
    phi = newtonian_radial_potential(rho)
    # interior: phi(r) = R^2/2 - r^2/6 for unit density
    expect = 0.5 - rho.grid ** 2 / 6.0
    assert np.allclose(phi, expect, atol=1e-7)
    assert phi[0] == pytest.approx(0.5, abs=1e-8)
    assert phi[-1] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_newtonian_potential_uniform_ball_d2():
    rho = uniform_ball(Dimension(2), 1.0, 1.0, n=2048)
    phi = newtonian_radial_potential(rho)
    # interior: phi(r) = (1 - r^2)/4 for unit density on the unit disk
    assert np.allclose(phi, 0.25 * (1.0 - rho.grid ** 2), atol=1e-7)


def test_energy_box_on_line():
    # rho = chi_[-1/2,1/2], V = x^2/2:
    #   interaction: -(1/4) iint |x-y| = -1/12, confinement: 1/24
    rho = line_interval(Dimension(1), 1.0, -0.5, 0.5, n=2048)
    E = radial_energy(rho, quadratic())
    assert E == pytest.approx(-1.0 / 12.0 + 1.0 / 24.0, abs=1e-6)


def test_l1_distance_oracles():
    d2 = Dimension(2)
    a = uniform_ball(d2, 1.0, 1.0)
    b = uniform_ball(d2, 2.0, 1.0)
    assert l1_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert l1_distance(a, b) == pytest.approx(math.pi, rel=1e-6)
    # disjoint supports: distance is the sum of the masses
    left = line_interval(Dimension(1), 1.0, -2.0, -1.0)
    right = line_interval(Dimension(1), 1.0, 1.0, 2.0)
    assert l1_distance(left, right) == pytest.approx(2.0, rel=1e-6)


def test_l1_distance_resolves_support_edges():
    # sharp edges at both grid ends must not smear into the gap
    d1 = Dimension(1)
    a = line_interval(d1, 1.0, -1.2, -0.7)
    b = line_interval(d1, 1.0, 0.7, 1.2)
    assert l1_distance(a, b) == pytest.approx(1.0, rel=1e-6)


def test_renormalized():
    rho = uniform_ball(Dimension(2), 1.0, 1.5)
    scaled = rho.renormalized(2 * math.pi)
    assert scaled.mass == pytest.approx(2 * math.pi, rel=1e-14)
    assert scaled.support_radius == rho.support_radius


def test_renormalizing_a_subnormal_mass_is_refused():
    # the scale factor overflows, and 0 * inf filled the grid with NaN
    rho = uniform_ball(Dimension(3), 1e-320, 1.0)
    with pytest.raises(ConfigError, match="cannot renormalize"):
        rho.renormalized(1.0)


def test_validation_errors():
    d2 = Dimension(2)
    with pytest.raises(ConfigError):
        RadialDensity(np.array([0.0, 1.0, 0.5]), np.ones(3), d2, support_radius=1.0)
    with pytest.raises(ConfigError):
        RadialDensity(np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.1, 1.0]), d2,
                      support_radius=1.0)


def test_call_interpolates_and_vanishes_outside():
    rho = uniform_ball(Dimension(2), 2.0, 1.0)
    r = np.array([0.2, 0.9, 1.5, 4.0])
    vals = rho(r)
    assert vals[0] == pytest.approx(2.0, abs=1e-12)
    assert vals[2] == 0.0 and vals[3] == 0.0
