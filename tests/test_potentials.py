"""Confinement potentials, attraction kernels, and tail validators."""

import math
import warnings

import numpy as np
import pytest

from repelflow import (Dimension, RadialPotential, quadratic, quartic,
                       log_tail, double_well, zero_potential, table_potential,
                       AttractionPotential, check_pareto_tail,
                       check_compact_support_tail)
from repelflow.errors import ConfigError


def test_quadratic_closures():
    V = quadratic()
    r = np.array([0.0, 0.5, 2.0])
    assert np.allclose(V.value(r), 0.5 * r * r)
    assert np.allclose(V.slope(r), r)
    assert V.laplacian(1.3, Dimension(2)) == pytest.approx(2.0, abs=1e-14)
    assert V.laplacian(0.0, Dimension(3)) == pytest.approx(3.0, abs=1e-14)
    assert V.laplacian(0.7, Dimension(1)) == pytest.approx(1.0, abs=1e-14)


def test_quartic_laplacian_is_steady_profile():
    V = quartic()
    r = np.array([0.25, 0.5, 1.0])
    # d = 2: V'' + V'/r = 3r^2 + r^2 = 4r^2
    assert np.allclose(V.laplacian(r, Dimension(2)), 4.0 * r * r, atol=1e-14)
    assert V.laplacian(0.0, Dimension(2)) == pytest.approx(0.0, abs=1e-14)


def test_double_well_geometry():
    V = double_well(a=1.0)
    assert V.value(np.asarray(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert V.slope(np.asarray(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert V.slope(np.asarray(-1.0)) == pytest.approx(0.0, abs=1e-15)
    assert V.second(np.asarray(1.0)) == pytest.approx(2.0, abs=1e-14)
    assert V.second(np.asarray(0.0)) == pytest.approx(-1.0, abs=1e-14)
    assert V.value(np.asarray(0.0)) == pytest.approx(0.25, abs=1e-15)


def test_finite_difference_fallback():
    # value-only potential: slope and curvature from the even extension
    V = RadialPotential(lambda r: 0.25 * r ** 4, r_scale=1.0)
    r = np.array([0.3, 1.0, 2.5])
    assert np.allclose(V.slope(r), r ** 3, rtol=1e-8, atol=1e-8)
    assert np.allclose(V.second(r), 3 * r * r, rtol=1e-5, atol=1e-5)
    # the quotient slope/r stays finite through the origin window
    lap = V.laplacian(np.array([0.0, 1e-7, 0.5]), Dimension(3))
    assert np.all(np.isfinite(lap))


def _laplacian_cases():
    r = np.linspace(0.0, 3.0, 32)
    return [quadratic(), quartic(), double_well(a=1.5),
            RadialPotential(lambda r: 0.5 * r * r + 0.1 * r ** 4),
            table_potential(r, 0.5 * r * r, r, np.ones_like(r))]


@pytest.mark.parametrize("V", _laplacian_cases(), ids=lambda V: V.name)
@pytest.mark.parametrize("d", [2, 3])
def test_laplacian_reads_the_same_with_and_without_origin_points(V, d):
    # a grid clear of the origin window takes the unmasked path; adding two
    # points inside the window must not change a bit of the others
    dim = Dimension(d)
    grid = np.geomspace(2.0 * V._r_origin, 3.0, 257)
    clear = V.laplacian(grid, dim)
    mixed = V.laplacian(np.concatenate([[0.0, 0.5 * V._r_origin], grid]), dim)
    assert clear.shape == grid.shape
    assert mixed[2:].tobytes() == clear.tobytes()
    assert mixed[0] == mixed[1] == d * float(V.second(np.asarray(0.0)))
    for r in (0.0, 0.7):
        lap = V.laplacian(r, dim)
        assert type(lap) is float
        assert lap == V.laplacian(np.array([r]), dim)[0]


def test_table_potential_roundtrip():
    r = np.linspace(0.0, 3.0, 400)
    src = quartic()
    T = table_potential(r, src.value(r), src.slope(r), src.second(r))
    probe = np.linspace(0.05, 2.9, 57)
    assert np.allclose(T.value(probe), src.value(probe), atol=1e-8)
    assert np.allclose(T.slope(probe), src.slope(probe), atol=1e-6)
    # even in r: negative arguments fold back
    assert T.value(np.asarray(-1.0)) == pytest.approx(src.value(np.asarray(1.0)), abs=1e-10)


def test_attraction_quadratic_normalization():
    d = Dimension(3)
    W = AttractionPotential(d)
    r = np.array([0.5, 1.0, 2.0])
    assert np.allclose(W.base.value(r), r * r / 6.0, atol=1e-15)
    assert W.epsilon == 0.0
    assert W.perturbation.name == "zero"


def test_gaussian_bump_epsilon_and_slope_bound():
    d = Dimension(3)
    W = AttractionPotential.gaussian_bump(d, 0.01)
    # sup |Lap w| sits at the origin: 2 d beta = eps
    assert W.epsilon == pytest.approx(0.01, rel=1e-12)
    assert abs(W.perturbation.laplacian(0.0, d)) == pytest.approx(0.01, rel=1e-12)
    radii = np.geomspace(1e-3, 10.0, 200)
    ok, lhs, rhs = W.slope_bound_report(radii)
    assert ok
    assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-15)
    # sign flip keeps the magnitude
    Wm = AttractionPotential.gaussian_bump(d, 0.01, sign=-1)
    assert Wm.epsilon == pytest.approx(0.01, rel=1e-12)
    assert Wm.perturbation.laplacian(0.0, d) == pytest.approx(-0.01, rel=1e-12)


@pytest.mark.parametrize("kwargs", [{"sign": 2}, {"sign": 0}, {"width": 0.0},
                                    {"width": -1.0}, {"width": 1e-200}])
def test_gaussian_bump_refuses_sign_and_width(kwargs):
    # sign = 2 doubled sup |Lap w| past the recorded eps, sign = 0 gave w = 0
    # labelled eps, and width = 0 (or a width whose square is 0) failed later
    # in interpolation
    with pytest.raises(ConfigError) as err:
        AttractionPotential.gaussian_bump(Dimension(3), 0.01, **kwargs)
    assert err.value.reason == "invalid solver config"


def test_narrow_gaussian_bump_evaluates_without_overflow():
    # width^2 = 1e-320 is nonzero, so the width passes; r^3 / width^2 and
    # u^2 overflowed in the closures, and exp(-u) = 0 turned them into NaN
    d = Dimension(3)
    W = AttractionPotential.gaussian_bump(d, 0.01, width=1e-160)
    r = np.linspace(0.0, 5.0, 101)
    w = W.perturbation
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [w.value(r), w.slope(r), w.second(r), w.laplacian(r, d),
                  W.base.laplacian(r, d)]
    assert all(np.all(np.isfinite(v)) for v in values)
    assert np.all(values[0] == 0.0) and np.all(values[1] == 0.0)
    assert values[3][0] == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("a", [0.0, 1e-200])
def test_double_well_refuses_wells_at_the_origin(a):
    # a^2 = 0 divided by zero in every closure
    with pytest.raises(ConfigError) as err:
        double_well(a)
    assert err.value.reason == "invalid potential"


def test_zero_potential():
    z = zero_potential()
    r = np.linspace(0, 5, 11)
    assert np.all(z.value(r) == 0.0)
    assert np.all(z.slope(r) == 0.0)
    assert z.name == "zero"


def test_pareto_tail_trend():
    assert check_pareto_tail(quadratic(), Dimension(2)).passed
    assert check_pareto_tail(quartic(), Dimension(3)).passed
    rep = check_pareto_tail(log_tail(), Dimension(2))
    # sigma_2 r V'(r) = 2 pi s r/(1+r) saturates at 2 pi s
    assert not rep.passed
    assert "saturates" in rep.note


def test_compact_support_tail_validator():
    d = Dimension(3)
    rep = check_compact_support_tail(quadratic(), d, c_V=1.0, R0=1.0)
    assert rep.passed
    # V' = 1/r decays faster than r^(-(d-1)/(d+1)) = r^(-1/2): must fail
    V = RadialPotential(lambda r: np.log(np.maximum(r, 1e-300)),
                        slope=lambda r: 1.0 / r,
                        second=lambda r: -1.0 / r ** 2,
                        name="log")
    rep2 = check_compact_support_tail(V, d, c_V=0.1, R0=1.0)
    assert not rep2.passed
    assert not rep2.slope_ok


@pytest.mark.parametrize("R0", [0.0, -1.0, np.nan, np.inf])
def test_compact_support_tail_refuses_bad_radius(R0):
    with pytest.raises(ConfigError) as err:
        check_compact_support_tail(quadratic(), Dimension(3), c_V=1.0, R0=R0)
    assert err.value.reason == "invalid radius"
