"""Acceptance gates for the assembled library.

One test per advertised guarantee, in a fixed order: closed-form steady
anchors, vanishing steady velocities, relaxation and decay rates, density
bounds, energy bookkeeping, kernel inequalities, solver cross-checks,
attraction fixed points, non-uniqueness on the line, and the support
validators.  Expected values are exact closed forms where available and
frozen oracle measurements otherwise; every gate and tolerance is stated
inline next to its assertion.

Run with ``pytest -v`` to get one pass/fail line per gate.
"""

import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repelflow import (AttractionPotential, Dimension, EvolutionConfig,
                       RadialPotential, ResolutionWarning, annulus,
                       build_steady_state, check_compact_support_tail,
                       cloud_support_radius, collect_series, density_bounds_onset,
                       discrete_energy, double_well, edge_repulsion_bound,
                       evolve, fit_rate, init_lagrangian, l1_distance,
                       l1_to_steady, line_interval, newton_grad, quadratic,
                       quartic, reconstruct_density, run_particles,
                       sample_radial, shell_energy, solve_attraction_steady,
                       support_radius, uniform_ball, verify_steady)

D1, D2, D3 = Dimension(1), Dimension(2), Dimension(3)

RELAX = [(2, "ball"), (2, "annulus"), (3, "ball"), (3, "annulus")]


@pytest.fixture(scope="module")
def relax_runs():
    """Quadratic-confinement relaxations: d in {2,3}, ball and annulus starts."""
    out = {}
    for d, kind in RELAX:
        dim = Dimension(d)
        m0 = dim.sphere_area
        V = quadratic()
        steady = build_steady_state(V, dim, m0)
        rho0 = (uniform_ball(dim, 1.5, 1.5) if kind == "ball"
                else annulus(dim, 1.0, 1.0, 2.0)).renormalized(m0)
        st = init_lagrangian(rho0, 512, dim, dt_init=0.01)
        t0 = time.perf_counter()
        final, snaps = evolve(st, V, EvolutionConfig(dt_init=0.01, t_end=20.0,
                                                     snapshot_stride=1))
        wall = time.perf_counter() - t0
        series = collect_series(snaps, V, steady=steady)
        out[d, kind] = SimpleNamespace(dim=dim, m0=m0, V=V, steady=steady,
                                       final=final, snaps=snaps, series=series,
                                       wall=wall)
    return out


@pytest.fixture(scope="module")
def attraction_states():
    """Fixed points of the near-quadratic attraction kernel, d = 3, m0 = 1."""
    dim = D3
    base = solve_attraction_steady(AttractionPotential(dim), dim, 1.0)
    W = AttractionPotential.gaussian_bump(dim, 0.01)
    # eps = 0.01 sits beyond the certified contraction range in d = 3, so the
    # solver is asked to proceed and report the empirical contraction instead
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        pert = solve_attraction_steady(W, dim, 1.0, allow_unproven=True)
    return SimpleNamespace(base=base, pert=pert, warnings=rec)


@pytest.fixture(scope="module")
def line_runs():
    """d = 1 runs from two single-well starts, double-well and convex V."""
    m0 = 0.5
    intervals = ((-1.3, -0.7), (0.7, 1.3))

    def relax(V, steady):
        outs = []
        for lo, hi in intervals:
            r0 = line_interval(D1, 1.0, lo, hi).renormalized(m0)
            st = init_lagrangian(r0, 64, D1, dt_init=0.01)
            final, snaps = evolve(st, V, EvolutionConfig(
                dt_init=0.01, t_end=25.0, snapshot_stride=1))
            series = (collect_series(snaps, V, steady=steady)
                      if steady is not None else None)
            outs.append(SimpleNamespace(final=final, series=series))
        return outs

    wells = relax(double_well(), None)
    convex_steady = build_steady_state(quadratic(), D1, m0)
    convex = relax(quadratic(), convex_steady)
    return SimpleNamespace(m0=m0, wells=wells, convex=convex)


@pytest.fixture(scope="module")
def cross_solver():
    """Shell solver vs N = 2000 particle cloud from the same d = 3 annulus."""
    dim = D3
    m0 = dim.sphere_area
    V = quadratic()
    rho0 = annulus(dim, 1.0, 1.0, 2.0).renormalized(m0)
    state = init_lagrangian(rho0, 512, dim, dt_init=0.01)
    # blob radius referenced to the terminal plateau Lap V = 3
    cloud = sample_radial(rho0, 2000, np.random.default_rng(0), rho_ref=3.0)
    rows = []
    t0 = time.perf_counter()
    for te in (1.0, 3.0, 5.0):
        state, _ = evolve(state, V, EvolutionConfig(dt_init=0.01, t_end=te,
                                                    snapshot_stride=100000))
        cloud, _ = run_particles(cloud, te, V=V, dt_max=0.05, safety=0.1,
                                 rk_order=2, snapshot_stride=100000)
        rows.append(SimpleNamespace(t=te,
                                    radial_support=support_radius(state),
                                    cloud_support=cloud_support_radius(cloud),
                                    radial_energy=shell_energy(state, V),
                                    cloud_energy=discrete_energy(cloud, V=V)))
    wall = time.perf_counter() - t0
    return SimpleNamespace(rows=rows, wall=wall)


def test_a01_closed_form_steady_states():
    # gates: |R - 1| <= 1e-8, profile sup-error <= 1e-6, under 1 s each
    cases = [
        (D2, quadratic(), 2.0 * math.pi, lambda r: np.full_like(r, 2.0)),
        (D3, quadratic(), 4.0 * math.pi, lambda r: np.full_like(r, 3.0)),
        (D2, quartic(), 2.0 * math.pi, lambda r: 4.0 * r * r),
    ]
    for dim, V, m0, profile in cases:
        t0 = time.perf_counter()
        st = build_steady_state(V, dim, m0)
        wall = time.perf_counter() - t0
        assert wall < 1.0
        assert st.R_inf == pytest.approx(1.0, abs=1e-8)
        r = st.density.grid
        assert float(np.max(np.abs(st.density.values - profile(r)))) < 1e-6


def test_a02_steady_velocity_vanishes(attraction_states):
    # gate: sup sampled support speed <= 1e-6 * scale for every constructed
    # steady profile; scale = max(1, |V'(R)|) for confinement, m0 * R for
    # the attraction fixed points
    confinement = [
        (quadratic(), D2, 2.0 * math.pi),
        (quadratic(), D3, 4.0 * math.pi),
        (quartic(), D2, 2.0 * math.pi),
        (quadratic(), D1, 0.5),
    ]
    for V, dim, m0 in confinement:
        st = build_steady_state(V, dim, m0)
        tol = 1e-6 * max(1.0, abs(float(V.slope(st.R_inf))))
        rep = verify_steady(st, V, tol=tol)
        assert rep.passed, (dim.d, rep.max_speed, tol)
    for st, fld in (attraction_states.base, attraction_states.pert):
        rep = verify_steady(st, fld.V_tilde, tol=1e-6 * st.m0 * st.R_inf)
        assert rep.passed, (st.R_inf, rep.max_speed)


def test_a03_relaxation_to_unique_steady(relax_runs):
    # gates: terminal L1 gap to the constructed profile < 1e-2 per run,
    # ball and annulus terminals within 2e-2 of each other, wall < 10 s each
    for key, run in relax_runs.items():
        assert run.wall < 10.0, (key, run.wall)
        gap = l1_to_steady(run.final, run.steady)
        assert gap < 1e-2, (key, gap)
    for d in (2, 3):
        a = reconstruct_density(relax_runs[d, "ball"].final)
        b = reconstruct_density(relax_runs[d, "annulus"].final)
        between = l1_distance(a, b)
        assert between < 2e-2, (d, between)


def test_a04_energy_gap_rate_bound(relax_runs):
    # gates: E(t) - E_inf <= C (1+t)^(-1.25) on t in [1, 20] with C set by
    # the first sample past t = 1, and fitted exponent >= 1.25 on [1, 5];
    # the bound is one-sided so faster-than-algebraic decay passes
    series = relax_runs[3, "ball"].series
    gap = series.energy - series.params["E_inf"]
    t = series.times
    m = (t >= 1.0) & (t <= 20.0)
    assert int(np.sum(m)) >= 20
    c_cal = gap[m][0] * (1.0 + t[m][0]) ** 1.25
    excess = gap[m] - c_cal * (1.0 + t[m]) ** -1.25
    assert float(np.max(excess)) <= 1e-9 * c_cal
    fit = fit_rate(series, "energy_gap", (1.0, 5.0), dim=D3)
    assert fit.gamma_theory == pytest.approx(1.25)
    assert fit.gamma_hat >= 1.25 or fit.super_algebraic
    assert fit.verdict == "pass"


def test_a05_l1_rate_relation(relax_runs):
    # gate: fitted L1 exponent >= (fitted energy exponent)/2 - 0.1 on [1, 5]
    series = relax_runs[3, "ball"].series
    fit_e = fit_rate(series, "energy_gap", (1.0, 5.0), dim=D3)
    fit_l = fit_rate(series, "l1", (1.0, 5.0), dim=D3)
    assert fit_l.gamma_hat >= fit_e.gamma_hat / 2.0 - 0.1, (fit_l.gamma_hat,
                                                            fit_e.gamma_hat)


def test_a06_density_bounds_onset(relax_runs):
    # gates: every carried density enters [a/2, 2A] with a = A = Lap V = d
    # and stays there; the onset time obeys
    # t0 <= 4 max(|log(rho_min(0) / (2a))|, 1/A)
    for key, run in relax_runs.items():
        a = A = float(run.dim.d)
        rho_min0 = float(np.min(run.snaps[0].densities))
        bound = 4.0 * max(abs(math.log(rho_min0 / (2.0 * a))), 1.0 / A)
        onset = density_bounds_onset(run.snaps, a / 2.0, 2.0 * A)
        assert onset is not None, key
        assert onset <= bound, (key, onset, bound)


def test_a07_energy_monotone_dissipation_identity(relax_runs):
    # gates: E never rises by more than 1e-8 relative per accepted step;
    # trapezoid integral of the dissipation matches the energy drop on the
    # smooth stretch t in [0, 2] within 5%
    for key, run in relax_runs.items():
        E = run.series.energy
        t = run.series.times
        rises = np.diff(E) - 1e-8 * np.abs(E[:-1])
        assert float(np.max(rises)) <= 0.0, key
        m = t <= 2.0
        drop = E[m][0] - E[m][-1]
        integral = float(np.trapezoid(run.series.dissipation[m], t[m]))
        assert abs(integral - drop) <= 0.05 * drop, (key, integral, drop)


def test_a08_kernel_edge_inequality():
    # gate: for 1e4 random triples (x, y, R) per d in {2, 3, 4} with
    # |x| = R and y inside the ball, the radial kernel pull obeys
    # x . grad N(x - y) <= -edge_repulsion_bound(d, R) + 1e-12, in < 1 s
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        dim = Dimension(d)
        rng = np.random.default_rng(80 + d)
        n = 10_000
        R = rng.uniform(0.2, 3.0, n)
        xdir = rng.normal(size=(n, d))
        xdir /= np.linalg.norm(xdir, axis=1, keepdims=True)
        ydir = rng.normal(size=(n, d))
        ydir /= np.linalg.norm(ydir, axis=1, keepdims=True)
        x = R[:, None] * xdir
        y = (R * rng.uniform(size=n) ** (1.0 / d))[:, None] * ydir
        pull = np.einsum("ij,ij->i", x, newton_grad(dim, x, y))
        bound = np.array([edge_repulsion_bound(dim, float(Ri)) for Ri in R])
        assert bool(np.all(pull <= -bound + 1e-12)), d
    assert time.perf_counter() - t0 < 1.0


def test_a09_cross_solver_agreement(cross_solver):
    # gates: N = 2000 cloud vs 512-shell run from the same annulus agree to
    # 1% in energy and 2% in support radius at t in {1, 3, 5}, within 60 s.
    # Known physics caveat: once the flow settles (t >= 3 here), the discrete
    # droplet holds its outermost particle layer about 0.22 interparticle
    # spacings inside the continuum edge (an O(N^(-1/3)) equilibrium offset,
    # invariant under dt, integrator order, and blob radius), so the support
    # gate sits near 2.8-3.1% at N = 2000 while energy stays within 1%.
    energy_rel = {row.t: abs(row.cloud_energy - row.radial_energy)
                  / abs(row.radial_energy) for row in cross_solver.rows}
    support_rel = {row.t: abs(row.cloud_support - row.radial_support)
                   / row.radial_support for row in cross_solver.rows}
    assert cross_solver.wall < 60.0
    assert max(energy_rel.values()) <= 0.01, energy_rel
    assert max(support_rel.values()) <= 0.02, support_rel


def test_a10_attraction_fixed_point(attraction_states):
    # gates: the unperturbed kernel lands exactly in one iteration on the
    # flat profile rho = m0 over the unit-volume ball; the eps = 0.01
    # perturbation contracts with residual ratios < 1/2 from iteration 3
    # and its fixed point passes the velocity check
    st0, fld0 = attraction_states.base
    assert fld0.iteration == 1
    assert fld0.residual_history == [0.0]
    assert st0.R_inf == pytest.approx(D3.ball_volume ** (-1.0 / 3.0),
                                      rel=1e-12)
    assert float(np.max(np.abs(st0.density.values - st0.m0))) < 1e-10

    st, fld = attraction_states.pert
    res = np.asarray(fld.residual_history)
    assert res.size >= 3
    ratios = res[2:] / res[1:-1]
    assert bool(np.all(ratios < 0.5)), ratios
    rep = verify_steady(st, fld.V_tilde, tol=1e-6 * st.m0 * st.R_inf)
    assert rep.passed, rep.max_speed
    assert any(isinstance(w.message, ResolutionWarning)
               for w in attraction_states.warnings)


def test_a11_line_non_uniqueness_and_convex_collapse(line_runs):
    # gates: double-well V keeps the two single-well starts apart by more
    # than 0.5 m0 in L1; convex V sends both to one profile (within 2e-2)
    # with an exponential L1 decay (log-linear fit on t in [2, 8])
    m0 = line_runs.m0
    far = l1_distance(reconstruct_density(line_runs.wells[0].final),
                      reconstruct_density(line_runs.wells[1].final))
    assert far > 0.5 * m0, far
    near = l1_distance(reconstruct_density(line_runs.convex[0].final),
                       reconstruct_density(line_runs.convex[1].final))
    assert near < 2e-2, near
    series = line_runs.convex[0].series
    t, l1 = series.times, series.l1_dist
    m = (t >= 2.0) & (t <= 8.0)
    assert bool(np.all(l1[m] > 0.0))
    slope, intercept = np.polyfit(t[m], np.log(l1[m]), 1)
    fitted = slope * t[m] + intercept
    resid = np.log(l1[m]) - fitted
    r_sq = 1.0 - np.sum(resid ** 2) / np.sum(
        (np.log(l1[m]) - np.mean(np.log(l1[m]))) ** 2)
    assert -slope > 0.5, slope     # V'' = 1 here; rate tracks that scale
    assert r_sq >= 0.98, r_sq


def test_a12_compact_support_validator(relax_runs):
    # gates: V'(r) = 1/r in d = 3 fails the tail slope condition, the
    # quadratic passes it, and no relaxation run ever pushes its support
    # beyond 2 max(R(0), R_inf)
    log_pot = RadialPotential(lambda r: np.log(np.maximum(r, 1e-300)),
                              slope=lambda r: 1.0 / np.asarray(r, float),
                              second=lambda r: -np.asarray(r, float) ** -2.0,
                              name="log")
    bad = check_compact_support_tail(log_pot, D3, 1.0, 1.0)
    assert not bad.slope_ok
    assert not bad.passed
    good = check_compact_support_tail(quadratic(), D3, 1.0, 1.0)
    assert good.passed
    for key, run in relax_runs.items():
        top = max(support_radius(s) for s in run.snaps)
        cap = 2.0 * max(support_radius(run.snaps[0]), run.steady.R_inf)
        assert top <= cap, (key, top, cap)
