"""Self-consistent attraction fields: convolution, smallness, fixed point."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from repelflow import (Dimension, EvolutionConfig, RadialDensity, annulus, evolve,
                       uniform_ball, AttractionPotential,
                       spherical_mean_convolve, check_smallness,
                       solve_attraction_steady, effective_attraction_potential,
                       init_lagrangian, table_potential, verify_steady)
from repelflow import attraction
from repelflow.attraction import (_barycentric, _convolution, _field_and_energy,
                                  _field_tables, _lobatto, _lowrank_kernel, _sphere_mean)
from repelflow.errors import (ConfigError, NumericsError, ResolutionError,
                              ResolutionWarning)


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
    ones = _sphere_mean((lambda z: np.ones_like(z),), dim, 3.0)(
        np.array([0.7, 2.0]), np.array([1.0, 0.4]))[0]
    assert np.allclose(ones, 1.0, rtol=1e-13)
    rho = uniform_ball(dim, 2.0, 1.0, n=4001)
    r = np.array([0.4, 1.5])
    direct = spherical_mean_convolve(np.cos, rho, dim, r)
    shells = np.linspace(0.0, 1.0, 4001)
    # trapezoid weights: half mass at the end shells
    w = np.full(shells.size, shells[1] - shells[0])
    w[0] = w[-1] = 0.5 * w[0]
    w *= dim.sphere_area * shells ** 2 * 2.0
    assembled = _sphere_mean((np.cos,), dim, 2.5)(r[:, None], shells[None, :])[0] @ w
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
    t_max = 2.0 * float(np.max(probe))
    square = _sphere_mean((lambda t: t * t,), dim, t_max)(r, s)[0]
    assert np.max(np.abs(square - (r * r + s * s))) <= 1e-11 * np.max((r + s) ** 2)
    rs = r * s
    gauss = np.where(rs > 0.0, -np.exp(-(r - s) ** 2) * np.expm1(-4.0 * rs)
                     / (4.0 * np.where(rs > 0.0, rs, 1.0)), np.exp(-(r - s) ** 2))
    gauss_mean = _sphere_mean((lambda t: np.exp(-t * t),), dim, t_max)(r, s)[0]
    assert np.max(np.abs(gauss_mean - gauss)) <= 1e-11


def test_resolution_gate_trips_on_needle():
    # the needle is about two spacings of the 1025-point s-grid wide, so
    # doubling the grid moves the result by more than 1e-6 relative
    needle = lambda z: np.exp(-(z / 0.002) ** 2)
    for d in (2, 3):
        dim = Dimension(d)
        rho = uniform_ball(dim, 1.0, 1.0, n=101)
        with pytest.raises(ResolutionError):
            spherical_mean_convolve(needle, rho, dim, np.array([0.5]))


def test_refinement_check_trips_on_a_density_the_s_grid_cannot_resolve():
    # a spike 1e-4 wide in the unit ball: the 1025-point s-grid (spacing
    # 1/1024) steps over it and the 2049-point one lands in it, so even a
    # smooth kernel's convolution moves by far more than 1e-6 of its size
    d3 = Dimension(3)
    bump = AttractionPotential.gaussian_bump(d3, 0.01).perturbation
    s0, w = 0.43217, 1e-4
    rho = RadialDensity(np.array([0.0, s0 - w, s0, s0 + w, 1.0]),
                        np.array([1.0, 1.0, 2000.0, 1.0, 1.0]), d3, support_radius=1.0)
    lap_w = lambda z: bump.laplacian(z, d3)
    r = np.linspace(0.0, 2.0, 9)
    with pytest.raises(ResolutionError):
        spherical_mean_convolve(lap_w, rho, d3, r)
    # without the check the spike's share is simply missed
    missed = _convolution(lap_w, rho, d3, 2.0, refine_check=False)(r)
    smooth = _convolution(lap_w, uniform_ball(d3, 1.0, 1.0, n=101), d3, 2.0,
                          refine_check=False)(r)
    assert np.allclose(missed, smooth, rtol=1e-12, atol=0.0)


def test_barycentric_matrix_interpolates_polynomials():
    # a polynomial of degree p - 1 is its own interpolant on p Lobatto nodes,
    # and a point on a node reads that node alone
    rng = np.random.default_rng(3)
    nodes = _lobatto(17, 2.0)
    poly = np.polynomial.Chebyshev(rng.normal(size=17), domain=[0.0, 2.0])
    t = np.concatenate([nodes[[0, 5, -1]], rng.uniform(0.0, 2.0, 50)])
    B = _barycentric(nodes, t)
    assert np.array_equal(B[:3], np.eye(17)[[0, 5, -1]])
    assert np.max(np.abs(B @ poly(nodes) - poly(t))) <= 1e-13 * np.max(np.abs(poly(t)))
    # every other node of 2p - 1 is a node of p, bit for bit
    assert np.array_equal(_lobatto(33, 2.0)[::2], nodes)


def _pointwise_convolve(f, rho, dim, r, n_s=1025):
    """The Simpson s-integral of the pointwise kernel at every (r, s) pair."""
    s_hi = min(rho.grid[-1], rho.support_radius)
    s = np.linspace(0.0, s_hi, n_s)
    mean = _sphere_mean((f,), dim, float(np.max(r)) + s_hi)(r[:, None], s)[0]
    return dim.sphere_area * simpson(rho(s) * s ** (dim.d - 1) * mean, x=s, axis=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lowrank_convolution_matches_pointwise_kernel(d):
    # the bump's fields on the w = 0 ball, over the fixed point's search grid
    dim = Dimension(d)
    bump = AttractionPotential.gaussian_bump(dim, 0.01).perturbation
    R = dim.ball_volume ** (-1.0 / d)
    rho = uniform_ball(dim, 1.0, R, n=129)
    r = np.concatenate([np.linspace(0.0, 2.0 * R, 97),
                        np.random.default_rng(d).uniform(0.0, 2.0 * R, 20)])
    for f in (lambda z: bump.laplacian(z, dim), bump.value):
        assert _lowrank_kernel(f, dim, 2.0 * R, R) is not None
        expect = _pointwise_convolve(f, rho, dim, r)
        tol = 1e-12 * np.max(np.abs(expect))
        out = _convolution(f, rho, dim, float(np.max(r)), refine_check=False)(r)
        assert np.max(np.abs(out - expect)) <= tol
        # a lone r = 0 spans no interval of r
        origin = _convolution(f, rho, dim, 0.0, refine_check=False)(np.zeros(1))
        assert abs(origin[0] - expect[0]) <= tol


@pytest.mark.parametrize("d", [2, 3])
def test_nested_kernel_grid_is_the_grid_built_from_scratch(monkeypatch, d):
    # the bump's Lap w and w certify at p = 65 after 17 and 33 fail; the grid
    # that copies 33 onto its even nodes is the one built at 65 alone, bit for bit
    dim = Dimension(d)
    bump = AttractionPotential.gaussian_bump(dim, 0.01).perturbation
    R_bar = check_smallness(0.01, dim).R_inf
    for f in (lambda z: bump.laplacian(z, dim), bump.value):
        x, y, C = _lowrank_kernel(f, dim, 2.0 * R_bar, R_bar)
        assert C.shape == (65, 65)
        with monkeypatch.context() as m:
            m.setattr(attraction, "_LOBATTO_SIZES", (65,))
            x0, y0, C0 = _lowrank_kernel(f, dim, 2.0 * R_bar, R_bar)
        assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes()
        assert C.tobytes() == C0.tobytes()


def test_needle_takes_the_pointwise_path():
    # no grid up to 257 nodes certifies a needle, so every (r, s) pair runs
    # the pointwise kernel, with the values that path has always given
    needle = lambda z: np.exp(-(z / 0.02) ** 2)
    r = np.array([0.0, 0.3, 0.99, 1.0, 1.02])
    expect = {2: [0.0012566370912201995, 0.0012566370614358125,
                  0.0009525803491835918, 0.0006247761107114475,
                  9.754952234683359e-05],
              3: [4.454662397465366e-05, 4.454662383699673e-05,
                  3.366885708371837e-05, 2.2021984654631825e-05,
                  3.412929014133415e-06]}
    for d in (2, 3):
        dim = Dimension(d)
        rho = uniform_ball(dim, 1.0, 1.0, n=101)
        assert _lowrank_kernel(needle, dim, 1.02, 1.0) is None
        out = spherical_mean_convolve(needle, rho, dim, r)
        assert np.allclose(out, expect[d], rtol=1e-14, atol=0.0)


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


@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_smallness_report_for_eps_of_one_or_more(eps):
    # the closing estimates are unbounded: the report fails instead of
    # dividing by zero (eps = 1) or taking a complex root (eps = 2)
    rep = check_smallness(eps, Dimension(3))
    assert not rep.passed
    assert rep.supp_measure == rep.R_inf == np.inf
    assert rep.eps_star == check_smallness(0.0, Dimension(3)).eps_star


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


def _count_grids(monkeypatch):
    """Record the (f, dim, r_hi, s_hi) of every kernel grid certified."""
    built = []
    lowrank = attraction._lowrank_kernel
    monkeypatch.setattr(attraction, "_lowrank_kernel",
                        lambda *args: built.append(args) or lowrank(*args))
    return built


def test_one_kernel_grid_per_operator(monkeypatch):
    # one Lap w grid for every iteration and the converged field, on the
    # a-priori box, then one w grid for the field's values, whose knots
    # E_inf reuses
    built = _count_grids(monkeypatch)
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.01)
    with pytest.warns(ResolutionWarning):
        st, field = solve_attraction_steady(W, d3, 1.0, n_grid=129,
                                            allow_unproven=True)
    assert field.iteration == 4
    assert len(built) == 2
    R_bar = check_smallness(0.01, d3).R_inf
    assert built[0][2:] == (2.0 * R_bar, R_bar)
    energy = _field_and_energy(st.density, W, st.density.grid)[1]
    assert st.E_inf == pytest.approx(energy, rel=1e-14)


@pytest.mark.parametrize("eps, sign, R_inf, iterations", [
    (0.3, 1, 0.6091810053198761, 8),
    (0.3, -1, 0.6303270766309159, 8),
    (0.9, 1, 0.5833809571982835, 11),
    (0.9, -1, 0.6469328336518367, 13),
])
def test_one_grid_box_keeps_the_per_iterate_results(monkeypatch, eps, sign,
                                                    R_inf, iterations):
    # R_inf and the iteration count of grids certified per iterate, on
    # [0, 2 R_k] x [0, R_k]: the box [0, 2 R_bar] x [0, R_bar] gives the
    # same bits, but for 2 ulps at eps = 0.9 with sign 1
    built = _count_grids(monkeypatch)
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, eps, sign=sign)
    with pytest.warns(ResolutionWarning):
        st, field = solve_attraction_steady(W, d3, 1.0, n_grid=129,
                                            allow_unproven=True)
    assert field.iteration == iterations
    assert abs(st.R_inf - R_inf) <= 2.0 * np.spacing(R_inf)
    assert len(built) == 2
    assert max(field.radius_history) < check_smallness(eps, d3).R_inf


@pytest.mark.parametrize("d, m0", [(2, 1.0), (3, 1.0), (3, 4 * math.pi)])
def test_unperturbed_solve_certifies_one_lap_w_grid(monkeypatch, d, m0):
    # R_bar is the exact radius at w = 0; the bisected R_inf lands an ulp
    # above it at m0 = 1 and reads the same grid
    built = _count_grids(monkeypatch)
    dim = Dimension(d)
    st, _ = solve_attraction_steady(AttractionPotential(dim), dim, m0, n_grid=129)
    R_bar = check_smallness(0.0, dim).R_inf
    assert abs(st.R_inf - R_bar) <= np.spacing(R_bar)
    assert len(built) == 2
    assert built[0][2:] == (2.0 * R_bar, R_bar)


def _lap_w_sides(built):
    """The s side of every Lap w grid: all grids but the last, the w grid."""
    return [args[3] for args in built[:-1]]


@pytest.mark.parametrize("sign", [1, -1])
def test_eps_past_one_certifies_only_when_a_density_leaves_the_box(monkeypatch, sign):
    # R_bar is infinite: the first density's own box is kept, and a later
    # density certifies a grid only when it reaches past the box kept so far
    built = _count_grids(monkeypatch)
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 1.5, sign=sign)
    with pytest.warns(ResolutionWarning):
        st, field = solve_attraction_steady(W, d3, 1.0, n_grid=129,
                                            allow_unproven=True)
    assert field.residual <= 1e-9
    radii = list(field.radius_history)
    sides = [radii[0]]
    for R in radii[1:]:
        if R > sides[-1]:
            sides.append(R)
    assert _lap_w_sides(built) == sides
    assert [args[2] for args in built[:-1]] == [2.0 * side for side in sides]
    # the attracting bump only shrinks the support; the repelling one
    # overshoots once, at the first iterate
    assert sides == ([radii[0]] if sign == 1 else radii[:2])


def test_an_understated_eps_certifies_a_grid_for_a_density_past_its_box(monkeypatch):
    d3 = Dimension(3)
    bump = AttractionPotential.gaussian_bump(d3, 0.9, sign=-1).perturbation
    # declared 0.5 for a sup |Lap w| of 0.9: every iterate still fits the box
    built = _count_grids(monkeypatch)
    with pytest.warns(ResolutionWarning):
        st, field = solve_attraction_steady(AttractionPotential(d3, bump, epsilon=0.5),
                                            d3, 1.0, n_grid=129, allow_unproven=True)
    assert len(built) == 2
    assert _lap_w_sides(built) == [check_smallness(0.5, d3).R_inf]
    # declared 0.01 for a sup of 0.3: the first iterate (radius 0.6309) is
    # past R_bar = 0.6224 and certifies its own box, which the iterates after
    # it fit; the converged profile then leaves the m0 (1 +- eps) band
    built.clear()
    bump = AttractionPotential.gaussian_bump(d3, 0.3, sign=-1).perturbation
    with pytest.warns(ResolutionWarning), pytest.raises(NumericsError):
        solve_attraction_steady(AttractionPotential(d3, bump, epsilon=0.01),
                                d3, 1.0, n_grid=129, allow_unproven=True)
    R_bar = check_smallness(0.01, d3).R_inf
    sides = [args[3] for args in built]
    assert len(sides) == 2 and sides[0] == R_bar
    assert sides[1] == pytest.approx(0.6308704905593265, abs=1e-12)
    assert built[1][2] == 2.0 * sides[1]


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"max_iter": 0}])
def test_solver_refuses_tol_and_max_iter(kwargs):
    # tol = -1 used to run max_iter iterations, and max_iter = 0 none, before
    # failing to converge
    d3 = Dimension(3)
    with pytest.raises(ConfigError) as err:
        solve_attraction_steady(AttractionPotential(d3), d3, 1.0, n_grid=17, **kwargs)
    assert err.value.reason == "invalid solver config"


def test_effective_field_matches_converged_field():
    d2 = Dimension(2)
    m0 = 2 * math.pi
    W = AttractionPotential.gaussian_bump(d2, 0.01)
    st, field = solve_attraction_steady(W, d2, m0, n_grid=257)
    quant = init_lagrangian(st.density, 512, d2)
    V_eff = effective_attraction_potential(quant, W)
    probe = np.linspace(0.05, st.R_inf, 24)
    assert np.allclose(V_eff.slope(probe), field.V_tilde.slope(probe),
                       rtol=5e-3, atol=5e-4)
    lap = V_eff.laplacian(probe, d2)
    assert np.all(lap > m0 * 0.98) and np.all(lap < m0 * 1.02)


def _pointwise_field(state, W):
    """The shell flow's field with the sphere mean summed at every
    (knot, shell) pair, as it was before the kept kernel grids."""
    dim, m, R, m0 = state.dim, state.cell_masses, state.radii, state.m0
    r_hi = 2.0 * float(R[-1]) + 1e-9
    grid = np.linspace(0.0, r_hi, 48)
    pert = W.perturbation
    mean = _sphere_mean((lambda z: pert.laplacian(z, dim), pert.value), dim,
                        r_hi + float(R[-1]))
    lap_shells, val_shells = mean(grid[:, None], R[None, :])
    value = ((m0 * grid ** 2 + float(np.sum(m * R * R))) / (2.0 * dim.d)
             + val_shells @ m)
    slope, second = _field_tables(grid, m0 + lap_shells @ m, dim)
    return table_potential(grid, value, slope, second, name="attraction field")


@pytest.mark.parametrize("d, start", [(2, "annulus"), (3, "annulus"), (2, "ball"), (3, "ball")])
def test_shell_flow_on_kept_grids_matches_the_pointwise_sums(d, start):
    # a contracting annulus and an expanding ball, each to near its steady state
    dim = Dimension(d)
    W = AttractionPotential.gaussian_bump(dim, 0.01)
    rho0 = (annulus(dim, 1.0, 1.0, 2.0) if start == "annulus"
            else uniform_ball(dim, 1.0, 0.4)).renormalized(1.0)
    shells = init_lagrangian(rho0, 64, dim, dt_init=0.01)
    cfg = EvolutionConfig(dt_init=0.01, t_end=2.0, snapshot_stride=1)
    _, kept = evolve(shells, lambda s: effective_attraction_potential(s, W), cfg)
    _, pointwise = evolve(shells, lambda s: _pointwise_field(s, W), cfg)
    assert [s.time for s in kept] == [s.time for s in pointwise]
    assert max(np.max(np.abs(a.radii - b.radii)) for a, b in zip(kept, pointwise)) <= 1e-13


def test_a_shell_field_kernel_without_a_grid_sums_pointwise(monkeypatch):
    # a bump 0.004 wide certifies no grid on the box of a unit ball, so both
    # shell sums take the pointwise sphere mean, bit for bit as before
    built = _count_grids(monkeypatch)
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.01, width=0.004)
    state = init_lagrangian(uniform_ball(d3, 1.0, 1.0).renormalized(1.0), 32, d3)
    kept, pointwise = effective_attraction_potential(state, W), _pointwise_field(state, W)
    assert len(built) == 2
    r = np.linspace(0.0, 2.0, 33)
    assert np.array_equal(kept.value(r), pointwise.value(r))
    assert np.array_equal(kept.slope(r), pointwise.slope(r))


def test_shell_field_certifies_once_per_kernel_until_a_state_leaves_its_box(monkeypatch):
    built = _count_grids(monkeypatch)
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.01)
    R_bar = check_smallness(0.01, d3).R_inf
    start = init_lagrangian(annulus(d3, 1.0, 1.0, 2.0).renormalized(1.0), 64, d3)
    _, snaps = evolve(start, lambda s: effective_attraction_potential(s, W),
                      EvolutionConfig(dt_init=0.01, t_end=1.0, snapshot_stride=1))
    # the first state reaches past R_bar: its own box [0, 2 R_N] x [0, R_N]
    # (with the field grid's 1e-9 margin) holds every contracting state after it
    side = 0.5 * (2.0 * float(start.radii[-1]) + 1e-9)
    assert len(snaps) > 10 and snaps[-1].radii[-1] < start.radii[-1]
    assert [args[2:] for args in built] == [(2.0 * side, side)] * 2
    # a state past that box certifies both kernels once more, on its own box
    wide = init_lagrangian(annulus(d3, 1.0, 1.0, 2.5).renormalized(1.0), 64, d3)
    effective_attraction_potential(wide, W)
    effective_attraction_potential(start, W)
    assert len(built) == 4 and built[2][3] == built[3][3] > side
    # a state inside R_bar certifies on [0, 2 R_bar] x [0, R_bar], which an
    # expanding flow towards the steady radius does not leave
    built.clear()
    W = AttractionPotential.gaussian_bump(d3, 0.01)
    ball = init_lagrangian(uniform_ball(d3, 1.0, 0.4).renormalized(1.0), 64, d3)
    _, snaps = evolve(ball, lambda s: effective_attraction_potential(s, W),
                      EvolutionConfig(dt_init=0.01, t_end=3.0, snapshot_stride=1))
    assert snaps[-1].radii[-1] > 1.4 * ball.radii[-1]
    assert [args[2:] for args in built] == [(2.0 * R_bar, R_bar)] * 2


def test_effective_potential_of_a_perturbation_named_zero():
    # the kernel's values decide whether the shell sums run, not its name
    d3 = Dimension(3)
    W = AttractionPotential.gaussian_bump(d3, 0.5)
    named = AttractionPotential.gaussian_bump(d3, 0.5)
    named.perturbation.name = "zero"
    quant = init_lagrangian(uniform_ball(d3, 1.0, 0.6), 64, d3)
    probe = np.linspace(0.0, 1.0, 9)
    fields = [effective_attraction_potential(quant, w) for w in (W, named)]
    assert np.array_equal(fields[0].value(probe), fields[1].value(probe))
    assert np.array_equal(fields[0].slope(probe), fields[1].slope(probe))
    bare = effective_attraction_potential(quant, AttractionPotential(d3))
    assert not np.array_equal(bare.value(probe), fields[0].value(probe))


def test_attraction_energy_grows_with_spread():
    d2 = Dimension(2)
    W = AttractionPotential(d2)
    tight = uniform_ball(d2, 4.0, 0.5)
    wide = uniform_ball(d2, 0.25, 2.0)
    assert tight.mass == pytest.approx(wide.mass, rel=1e-12)
    # far apart mass pays quadratic attraction cost
    energies = [_field_and_energy(rho, W, rho.grid)[1] for rho in (wide, tight)]
    assert energies[0] > energies[1]
