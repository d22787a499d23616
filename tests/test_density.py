"""Radial density containers: exact moments, potentials, energies, L1."""

import math

import numpy as np
import pytest

from repelflow import (Dimension, RadialDensity, uniform_ball, annulus,
                       line_interval,
                       newtonian_radial_potential, radial_energy, l1_distance,
                       quadratic)
from repelflow.density import _cell_coefficients
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


def _enclosed_mass_from_scratch(rho, r):
    """Enclosed mass with every cell coefficient computed per query point."""
    g, v = rho.grid, rho.values
    M = rho.cumulative_mass()
    j = np.clip(np.searchsorted(g, r, side="right") - 1, 0, len(g) - 2)
    b = (v[j + 1] - v[j]) / (g[j + 1] - g[j])
    a = v[j] - b * g[j]
    rc = np.clip(r, g[0], g[-1])
    p = rho.dim.d - 1
    partial = (a * (rc ** (p + 1) - g[j] ** (p + 1)) / (p + 1)
               + b * (rc ** (p + 2) - g[j] ** (p + 2)) / (p + 2))
    pref = 1.0 if rho.dim.d == 1 else rho.dim.sphere_area
    out = M[j] + pref * np.clip(partial, 0.0, None)
    return np.where(r <= g[0], 0.0, np.where(r >= g[-1], M[-1], out))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_enclosed_mass_reads_the_kept_cells_bit_for_bit(d):
    # array queries of the kept per-cell coefficients give the per-query
    # formula's bits.  A single point may differ by the rounding of one
    # power: a numpy scalar power need not round as the array loop does,
    # and the cell integral subtracts powers that can far exceed it
    dim = Dimension(d)
    rng = np.random.default_rng(7 + d)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        lo = rng.uniform(-2.0, -0.5) if d == 1 else 0.0
        grid = np.sort(np.concatenate([[lo], lo + np.cumsum(rng.exponential(0.1, n))]))
        values = rng.uniform(0.0, 3.0, grid.size)
        rho = RadialDensity(grid, values, dim, support_radius=grid[-1])
        r = np.concatenate([grid, rng.uniform(grid[0] - 0.5, grid[-1] + 0.5, 300),
                            [grid[0] - 1.0, grid[-1] + 1.0]])
        assert rho.enclosed_mass(r).tobytes() == _enclosed_mass_from_scratch(rho, r).tobytes()
        p, pref = d - 1, (1.0 if d == 1 else dim.sphere_area)
        a, b, _, _ = _cell_coefficients(rho.grid, rho.values, p)
        for x in r:
            one = rho.enclosed_mass(x)
            assert type(one) is float
            j = min(max(np.searchsorted(grid, x, side="right") - 1, 0), grid.size - 2)
            t = max(abs(x), abs(grid[j]))
            power_ulp = np.finfo(float).eps * pref * (abs(a[j]) * t ** (p + 1)
                                                      + abs(b[j]) * t ** (p + 2))
            ref = _enclosed_mass_from_scratch(rho, np.asarray(x))
            assert abs(one - ref) <= 2.0 * power_ulp


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
