"""Self-consistent attraction fields: convolution, smallness, fixed point."""

import math
import warnings

import numpy as np
import pytest

from repelflow import (Dimension, uniform_ball, AttractionPotential,
                       spherical_mean_convolve, shell_mean, check_smallness,
                       solve_attraction_steady, effective_attraction_potential,
                       attraction_energy, init_lagrangian, verify_steady)
from repelflow.errors import ConfigError, ResolutionError, ResolutionWarning


def test_convolution_of_constant_is_total_mass():
    for d, R, val in ((2, 0.9, 1.7), (3, 1.3, 2.0)):
        dim = Dimension(d)
        rho = uniform_ball(dim, val, R, n=801)
        r = np.array([0.0, 0.3, R, 2.0 * R])
        out = spherical_mean_convolve(lambda z: np.ones_like(z), rho, dim, r)
        assert np.allclose(out, rho.mass, rtol=1e-12)


def test_convolution_of_square_kernel():
    # (|.|^2 * rho)(r) = m0 r^2 + I2 with I2 = d/(d+2) m0 R^2 for a ball
    for d in (2, 3):
        dim = Dimension(d)
        R, val = 1.1, 1.4
        rho = uniform_ball(dim, val, R, n=1601)
        m0 = val * dim.ball_volume * R ** d
        I2 = m0 * d / (d + 2.0) * R * R
        r = np.array([0.0, 0.5, 1.0, 1.8])
        out = spherical_mean_convolve(lambda z: z * z, rho, dim, r)
        assert np.allclose(out, m0 * r * r + I2, rtol=1e-7)


def test_shell_mean_normalization_and_reduction():
    # f = 1 averages to 1; a ball assembled from shells matches the integral
    dim = Dimension(3)
    ones = shell_mean(lambda z: np.ones_like(z), np.array([0.7, 2.0]),
                      np.array([1.0, 0.4]), dim)
    assert np.allclose(ones, 1.0, rtol=1e-13)
    rho = uniform_ball(dim, 2.0, 1.0, n=4001)
    r = np.array([0.4, 1.5])
    direct = spherical_mean_convolve(np.cos, rho, dim, r)
    shells = np.linspace(0.0, 1.0, 4001)
    # trapezoid weights: half mass at the end shells
    w = np.full(shells.size, shells[1] - shells[0])
    w[0] = w[-1] = 0.5 * w[0]
    w *= dim.sphere_area * shells ** 2 * 2.0
    assembled = shell_mean(np.cos, r[:, None], shells[None, :], dim) @ w
    assert np.allclose(direct, assembled, rtol=1e-4)


def test_convolution_needs_d_at_least_two():
    with pytest.raises(ConfigError):
        spherical_mean_convolve(np.cos, uniform_ball(Dimension(2), 1.0, 1.0),
                                Dimension(1), np.array([0.5]))


def test_shell_mean_d3_closed_forms():
    # mean of t^2 is r^2 + s^2; of exp(-t^2) it is
    # -exp(-(r-s)^2) expm1(-4rs) / (4rs), tending to exp(-(r-s)^2) as rs -> 0
    dim = Dimension(3)
    probe = np.concatenate([[0.0, 1e-9, 1e-6, 1e-3],
                            np.random.default_rng(5).uniform(0.0, 2.0, 60)])
    r, s = probe[:, None], probe[None, :]
    square = shell_mean(lambda t: t * t, r, s, dim)
    assert np.max(np.abs(square - (r * r + s * s))) <= 1e-11 * np.max((r + s) ** 2)
    rs = r * s
    gauss = np.where(rs > 0.0, -np.exp(-(r - s) ** 2) * np.expm1(-4.0 * rs)
                     / (4.0 * np.where(rs > 0.0, rs, 1.0)), np.exp(-(r - s) ** 2))
    assert np.max(np.abs(shell_mean(lambda t: np.exp(-t * t), r, s, dim) - gauss)) <= 1e-11


def test_resolution_gate_trips_on_needle():
    needle = lambda z: np.exp(-(z / 0.02) ** 2)
    for d in (2, 3):
        dim = Dimension(d)
        rho = uniform_ball(dim, 1.0, 1.0, n=101)
        with pytest.raises(ResolutionError):
            spherical_mean_convolve(needle, rho, dim, np.array([0.5]), n_s=17)


def test_smallness_report_formula():
    # hand evaluation at eps = 0.01, d = 2, default closing estimates
    rep = check_smallness(0.01, Dimension(2))
    eps = 0.01
    S = 1.0 / (1.0 - eps)
    bracket = (1 + 4 * eps * S) / (1 - 2 * eps * S) + 2.0
    lhs1 = 2 * eps * (1 + eps) / (1 - eps) / 2.0 * bracket
    assert rep.lhs1 == pytest.approx(lhs1, rel=1e-12)
    R = math.pi ** (-0.5) / (1 - eps) ** 0.5
    assert rep.rhs1 == pytest.approx((1 / (4 * math.pi)) / (2 * R) ** 2, rel=1e-12)
    assert rep.lhs2 == pytest.approx(lhs1 / (1 - eps), rel=1e-12)
    assert rep.rhs2 == pytest.approx((1 / (4 * math.pi)) * 3.0 / 4.0, rel=1e-12)
    assert rep.passed


def test_smallness_monotone_with_critical_point():
    d2, d3 = Dimension(2), Dimension(3)
    assert check_smallness(0.0, d2).lhs1 == 0.0
    assert check_smallness(0.0, d2).passed
    r2 = check_smallness(0.01, d2)
    r3 = check_smallness(0.01, d3)
    assert r2.passed and not r3.passed
    # regression pins for the critical size (bisection of the same formulas)
    assert r2.eps_star == pytest.approx(0.01814, abs=2e-4)
    assert r3.eps_star == pytest.approx(0.00508, abs=2e-4)
    below = check_smallness(r2.eps_star * 0.99, d2)
    above = check_smallness(r2.eps_star * 1.01, d2)
    assert below.passed and not above.passed
    # beyond 2 eps |supp| = 1 the bracket blows up
    assert not np.isfinite(check_smallness(0.45, d2).lhs1)


def test_unperturbed_fixed_point_is_exact():
    d3 = Dimension(3)
    m0 = 4 * math.pi
    st, field = solve_attraction_steady(AttractionPotential(d3), d3, m0)
    assert field.iteration == 1
    assert field.residual == 0.0
    R = d3.ball_volume ** (-1.0 / 3.0)
    assert st.R_inf == pytest.approx(R, abs=1e-12)
    assert np.allclose(st.density.values, m0, rtol=1e-12)
    # closed-form energy: 3 m0^2/(20 pi R) + m0^2 R^2 / 10
    expect = 3 * m0 ** 2 / (20 * math.pi * R) + m0 ** 2 * R * R / 10.0
    assert st.E_inf == pytest.approx(expect, rel=1e-6)
    assert field.laplacian_bounds == (m0, m0)
    check = verify_steady(st, field.V_tilde, tol=1e-6 * m0 * R)
    assert check.passed


def test_smallness_gate_requires_override():
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.01)
    with pytest.raises(ConfigError) as err:
        solve_attraction_steady(W, d3, 4 * math.pi)
    assert err.value.reason == "smallness violated"


def test_perturbed_fixed_point_d2():
    # eps = 0.01 sits inside the provable d = 2 range: no override needed
    d2 = Dimension(2)
    m0 = 2 * math.pi
    W = AttractionPotential.gaussian_bump(d2, 0.01)
    st, field = solve_attraction_steady(W, d2, m0, n_grid=257)
    res = field.residual_history
    assert res[-1] <= 1e-9 * m0
    ratios = res[1:] / res[:-1]
    assert np.all(ratios[1:] < 0.5)
    lo, hi = field.laplacian_bounds
    assert np.all(st.density.values >= lo - 1e-9 * m0)
    assert np.all(st.density.values <= hi + 1e-9 * m0)
    assert st.density.mass == pytest.approx(m0, rel=1e-12)
    assert st.R_inf == pytest.approx(d2.ball_volume ** (-0.5), rel=5e-3)


def test_perturbation_sign_moves_radius():
    d2 = Dimension(2)
    m0 = 2 * math.pi
    plus, _ = solve_attraction_steady(
        AttractionPotential.gaussian_bump(d2, 0.01, sign=1), d2, m0, n_grid=257)
    minus, _ = solve_attraction_steady(
        AttractionPotential.gaussian_bump(d2, 0.01, sign=-1), d2, m0, n_grid=257)
    assert plus.R_inf < minus.R_inf
    assert plus.density.mass == pytest.approx(minus.density.mass, rel=1e-12)


def test_override_warns_and_converges():
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.01)
    with pytest.warns(ResolutionWarning):
        st, field = solve_attraction_steady(W, d3, 4 * math.pi, n_grid=257,
                                            allow_unproven=True)
    res = field.residual_history
    assert np.all(res[2:] / res[1:-1] < 0.5)
    assert st.R_inf == pytest.approx(d3.ball_volume ** (-1 / 3), rel=5e-3)


def test_bump_fixed_point_d3_pinned():
    # regression pin of the d = 3 bump at n_grid = 129; the 64-node angular
    # rule gave the same iterates to 1e-16
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.01)
    with pytest.warns(ResolutionWarning):
        st, field = solve_attraction_steady(W, d3, 1.0, n_grid=129,
                                            allow_unproven=True)
    assert field.iteration == 4
    assert st.R_inf == pytest.approx(0.6199975254908041, abs=1e-12)
    expect = [4.186587836487954e-3, 6.802208931677711e-6,
              1.144696137878043e-8, 1.9270363083023767e-11]
    assert np.allclose(field.residual_history, expect, rtol=0.0, atol=1e-10)


def test_effective_field_matches_converged_field():
    d2 = Dimension(2)
    m0 = 2 * math.pi
    W = AttractionPotential.gaussian_bump(d2, 0.01)
    st, field = solve_attraction_steady(W, d2, m0, n_grid=257)
    quant = init_lagrangian(st.density, 512, d2)
    V_eff = effective_attraction_potential(quant, W, n_grid=64)
    probe = np.linspace(0.05, st.R_inf, 24)
    assert np.allclose(V_eff.slope(probe), field.V_tilde.slope(probe),
                       rtol=5e-3, atol=5e-4)
    lap = V_eff.laplacian(probe, d2)
    assert np.all(lap > m0 * 0.98) and np.all(lap < m0 * 1.02)


def test_attraction_energy_grows_with_spread():
    d2 = Dimension(2)
    W = AttractionPotential(d2)
    tight = uniform_ball(d2, 4.0, 0.5)
    wide = uniform_ball(d2, 0.25, 2.0)
    assert tight.mass == pytest.approx(wide.mass, rel=1e-12)
    # far apart mass pays quadratic attraction cost
    assert attraction_energy(wide, W) > attraction_energy(tight, W)
