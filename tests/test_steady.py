"""Steady profiles: closed forms, the mass equation, energies, velocity."""

import hashlib
import math

import numpy as np
import pytest

from repelflow import (Dimension, quadratic, quartic, log_tail, double_well,
                       annulus, build_steady_state, solve_support_radius,
                       radial_velocity, verify_steady, sample_radial,
                       steady_quantile_state)
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
