"""Steady profiles: closed forms, the mass equation, energies, velocity."""

import hashlib
import math

import numpy as np
import pytest

from repelflow import (Dimension, quadratic, quartic, log_tail, double_well,
                       annulus, build_steady_state, solve_support_radius,
                       radial_velocity, verify_steady, sample_radial,
                       steady_quantile_state, table_potential, check_smallness)
from repelflow.attraction import _radius_from_laplacian, _smallness_sides
from repelflow.density import RadialDensity
from repelflow.steady import bisect
from repelflow.errors import PotentialError, TailTooWeakError


def test_quadratic_disk():
    st = build_steady_state(quadratic(), Dimension(2), 2 * math.pi)
    assert st.R_inf == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(st.density.values, 2.0, atol=1e-6)
    assert verify_steady(st, quadratic(), tol=1e-8).passed


def test_quadratic_ball():
    st = build_steady_state(quadratic(), Dimension(3), 4 * math.pi)
    assert st.R_inf == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(st.density.values, 3.0, atol=1e-6)
    assert verify_steady(st, quadratic(), tol=1e-8).passed


def test_quartic_disk_profile():
    st = build_steady_state(quartic(), Dimension(2), 2 * math.pi)
    assert st.R_inf == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(st.density.values, 4.0 * st.density.grid ** 2, atol=1e-6)
    assert verify_steady(st, quartic(), tol=1e-8).passed


def test_mass_equation_scaling():
    # quadratic d = 2: 2 pi R^2 = m0, so R = sqrt(m0 / (2 pi))
    for m0 in (0.5, 2 * math.pi, 40.0):
        R = solve_support_radius(quadratic(), Dimension(2), m0)
        assert R == pytest.approx(math.sqrt(m0 / (2 * math.pi)), rel=1e-9)


def test_log_tail_radius_and_weak_tail():
    # sigma_2 R V'(R) = 2 pi R/(1+R) = m0 gives R = m0/(2 pi - m0)
    R = solve_support_radius(log_tail(1.0), Dimension(2), math.pi)
    assert R == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(TailTooWeakError):
        solve_support_radius(log_tail(1.0), Dimension(2), 10.0)


@pytest.mark.parametrize("d", [2, 3])
def test_a_tabulated_log_tail_is_refused_for_its_slope_at_the_origin(d):
    # the table's V'(0) = 1 reaches the V'(0) refusal, as the closure's does;
    # read as 0 it was refused for a negative Lap V (d = 3) or a weak tail (d = 2)
    r = np.linspace(0.0, 30.0, 3001)
    V = log_tail(1.0)
    T = table_potential(r, V.value(r), V.slope(r), V.second(r))
    for potential in (V, T):
        with pytest.raises(PotentialError) as err:
            build_steady_state(potential, Dimension(d), 4.0 * math.pi)
        assert str(err.value).startswith("V'(0) = 1 is not 0")
        assert err.value.reason == "invalid potential"


def test_nonconvex_confinement_rejected():
    # Lap V < 0 near the origin cannot carry a nonnegative steady profile
    with pytest.raises(PotentialError):
        build_steady_state(double_well(1.0), Dimension(2), 1.0)


def test_steady_energy_ball():
    st = build_steady_state(quadratic(), Dimension(3), 4 * math.pi)
    assert st.E_inf == pytest.approx(18 * math.pi / 5, rel=1e-6)


def test_interaction_energy_against_monte_carlo():
    # second route to the 18 pi/5 figure: pair sampling of the kernel
    # integral over the unit ball, rho = 3, interaction part = 12 pi/5
    rng = np.random.default_rng(42)
    n = 400_000
    x = rng.normal(size=(n, 3))
    x *= (rng.uniform(size=(n, 1)) ** (1 / 3)) / np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.normal(size=(n, 3))
    y *= (rng.uniform(size=(n, 1)) ** (1 / 3)) / np.linalg.norm(y, axis=1, keepdims=True)
    vol = 4 * math.pi / 3
    kernel_mean = np.mean(1.0 / np.linalg.norm(x - y, axis=1))
    interaction = 0.5 * 9.0 * vol ** 2 * kernel_mean / (4 * math.pi)
    assert interaction == pytest.approx(12 * math.pi / 5, rel=1e-2)
    confinement = 3.0 * 0.5 * (4 * math.pi / 5)
    assert interaction + confinement == pytest.approx(18 * math.pi / 5, rel=1e-2)


def test_velocity_profile_quartic():
    st = build_steady_state(quartic(), Dimension(2), 2 * math.pi)
    # inside the support the velocity vanishes
    u_in = radial_velocity(st.density, quartic(), Dimension(2), np.array([0.5]))
    assert abs(u_in[0]) < 1e-7
    # outside: u(2) = m0/(sigma_2 2) - V'(2) = 1/2 - 8
    u_out = radial_velocity(st.density, quartic(), Dimension(2), np.array([2.0]))
    assert u_out[0] == pytest.approx(-7.5, rel=1e-9)


def test_line_interval_steady():
    # d = 1 quadratic: rho = V'' = 1 on [-m0/2, m0/2]
    st = build_steady_state(quadratic(), Dimension(1), 1.0)
    assert st.R_inf == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(st.density.values, 1.0, atol=1e-8)
    assert verify_steady(st, quadratic(), tol=1e-8).passed


def test_bisect_ends_on_adjacent_floats_split_by_the_predicate():
    targets = np.array([1e-3, 0.5, 2.0, 7.9])

    def below(x):
        return x ** 3 < targets

    lo, hi = bisect(below, 0.0, 2.0)
    assert np.all(np.nextafter(lo, np.inf) == hi)
    assert np.all(below(lo)) and not np.any(below(hi))


def test_bisect_stops_on_a_nan_bracket():
    lo, hi = bisect(lambda x: x < 1.0, np.array([0.0, np.nan]), 2.0)
    assert lo[0] < 1.0 <= hi[0] and np.nextafter(lo[0], np.inf) == hi[0]
    assert np.isnan(lo[1]) or np.isnan(hi[1])


def _bisect_0d(below, lo, hi):
    """The reference bisection: every step on 0-d arrays, one midpoint each."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return lo, hi
        inside = below(mid)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_scalar_bisect_is_the_0d_loop_for_eps_star(d):
    # check_smallness bisects a predicate of Python floats; the float steps
    # take the midpoints of the 0-d loop, bit for bit
    dim = Dimension(d)
    c = dim.ball_volume ** (-1.0 / d)

    def both_hold(eps):
        l1, r1, l2, r2, _, _ = _smallness_sides(float(eps), dim, c)
        return l1 < r1 and l2 < r2

    lo, hi = bisect(both_hold, 0.0, 0.49)
    ref = _bisect_0d(both_hold, 0.0, 0.49)
    assert type(lo) is float and type(hi) is float
    assert (lo, hi) == (float(ref[0]), float(ref[1]))
    assert check_smallness(0.01, dim).eps_star == lo


@pytest.mark.parametrize("d", [2, 3])
def test_scalar_bisect_is_the_0d_loop_for_radius_solves(d):
    # the fixed point's radius solve on random Laplacian profiles
    dim = Dimension(d)
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        grid = np.linspace(0.0, rng.uniform(0.5, 3.0), int(rng.integers(17, 300)))
        lap = rng.uniform(0.5, 2.0) * (1.0 + 0.3 * np.sin(rng.uniform(1.0, 9.0) * grid))
        profile = RadialDensity(grid, lap, dim, support_radius=grid[-1])
        m0 = rng.uniform(0.2, 0.9) * profile.mass
        lo, hi = _bisect_0d(lambda r: profile.enclosed_mass(r) < m0, 0.0, grid[-1])
        assert _radius_from_laplacian(grid, lap, dim, m0) == float(0.5 * (lo + hi))
        assert bisect(lambda r: profile.enclosed_mass(r) < m0, 0.0, grid[-1]) == \
            (float(lo), float(hi))


def test_support_radius_is_the_exact_root():
    # sigma_d R^(d-1) R = m0 at R = 1 when m0 = sigma_d
    assert solve_support_radius(quadratic(), Dimension(2), 2 * math.pi) == 1.0
    assert solve_support_radius(quadratic(), Dimension(3), 4 * math.pi) == 1.0
    # on the line 2 V'(R) = m0
    assert solve_support_radius(quadratic(), Dimension(1), 1.0) == 0.5
    # 4 pi R^2 / (1 + R) = 4 pi: R^2 = R + 1, the golden ratio
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    R = solve_support_radius(log_tail(1.0), Dimension(3), 4 * math.pi)
    assert abs(R - golden) <= math.ulp(golden)


@pytest.mark.parametrize("d, digest", [
    (1, "efab1a3999b2af3174e5ec28927287ba535253952d9d642dd54c6ba5dbd96490"),
    (2, "d262d05479871b06b07114a1a1ce056702fb84d460b77b4b57663851f8180906"),
    (3, "b40b7cb1b4449aae8748cd1649d7ff31ddf727fbe88d42c2ddc6a29208331e7a"),
])
def test_steady_quantile_radii_pinned(d, digest):
    # regression pins of the quantile inversion, taken before it moved to bisect
    st = steady_quantile_state(quadratic(), Dimension(d), 1.0, 512)
    assert hashlib.sha256(st.radii.tobytes()).hexdigest() == digest


def test_sample_radial_cloud_pinned():
    cloud = sample_radial(annulus(Dimension(3), 1.0, 1.0, 2.0), 1000, 7, rho_ref=1.0)
    digest = hashlib.sha256(cloud.positions.tobytes()).hexdigest()
    assert digest == "88c85deaac19ef64c9fa95e14c19afce67991ffa781c9f40766bc0e2863896df"
