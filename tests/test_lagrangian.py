"""Quantile dynamics: placement, stepping, invariants, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repelflow import (Dimension, uniform_ball, annulus, line_interval,
                       quadratic, quartic, double_well, init_lagrangian,
                       evolve, EvolutionConfig, reconstruct_density,
                       steady_quantile_state, support_radius,
                       build_steady_state, l1_distance, shell_energy,
                       dissipation)
from repelflow._cubic import pchip
from repelflow.density import RadialDensity
from repelflow.lagrangian import (CROSSING_POLICIES, LagrangianState, rhs, step,
                                  _mass_matched_edges)
from repelflow.errors import ConfigError, StiffnessError


def test_quantile_placement_closed_form():
    # rho0 = 2 on the unit disk: M(r) = 2 pi r^2, so R_i = sqrt(q_i/(2 pi))
    rho0 = uniform_ball(Dimension(2), 2.0, 1.0)
    st = init_lagrangian(rho0, 16, Dimension(2))
    q = (np.arange(1, 17) - 0.5) * (2 * math.pi / 16)
    assert np.allclose(st.radii, np.sqrt(q / (2 * math.pi)), atol=1e-5)
    assert np.allclose(st.densities, 2.0, atol=1e-9)
    assert np.sum(st.cell_masses) == pytest.approx(2 * math.pi, rel=1e-14)
    assert np.allclose(st.quantiles, q, rtol=1e-14)


def test_minimum_quantile_count():
    rho0 = uniform_ball(Dimension(2), 2.0, 1.0)
    with pytest.raises(ConfigError):
        init_lagrangian(rho0, 8, Dimension(2))


def test_snapshot_stride_below_one_is_refused():
    # a zero stride used to divide by zero in evolve
    with pytest.raises(ConfigError) as err:
        EvolutionConfig(snapshot_stride=0)
    assert err.value.reason == "invalid solver config"


def test_steady_quantiles_are_fixed_points():
    d2 = Dimension(2)
    st = steady_quantile_state(quadratic(), d2, 2 * math.pi, 64)
    q = st.quantiles
    assert np.allclose(st.radii, np.sqrt(q / (2 * math.pi)), atol=1e-10)
    dR, _ = rhs(st, quadratic())
    assert np.max(np.abs(dR)) < 1e-12
    # a short run must not move the configuration
    cfg = EvolutionConfig(t_end=0.5)
    final, _ = evolve(st, quadratic(), cfg)
    assert np.allclose(final.radii, st.radii, atol=1e-12)


def test_single_step_matches_exact_flow():
    # quadratic d = 2: each radius follows dR/dt = q/(2 pi R) - R with the
    # exact solution R(t)^2 = q/(2 pi) + (R0^2 - q/(2 pi)) e^(-2t)
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)   # mass 2 pi, radius 1.5
    st = init_lagrangian(rho0, 16, d2, dt_init=0.05)
    cfg = EvolutionConfig(dt_init=0.05, dt_max=0.05, t_end=0.05, snapshot_stride=1)
    out = step(st, quadratic(), cfg)
    q = st.quantiles
    exact = np.sqrt(q / (2 * math.pi) + (st.radii ** 2 - q / (2 * math.pi))
                    * math.exp(-2 * out.time))
    assert out.time == pytest.approx(0.05, abs=1e-15)
    assert np.allclose(out.radii, exact, atol=1e-8)


def test_relaxation_to_steady_profile():
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)
    st = init_lagrangian(rho0, 128, d2)
    cfg = EvolutionConfig(t_end=8.0)
    final, snaps = evolve(st, quadratic(), cfg)
    target = steady_quantile_state(quadratic(), d2, 2 * math.pi, 128)
    assert np.max(np.abs(final.radii - target.radii)) < 1e-4
    steady = build_steady_state(quadratic(), d2, 2 * math.pi)
    assert l1_distance(reconstruct_density(final), steady.density) < 1e-2
    assert support_radius(final) == pytest.approx(1.0, abs=2e-2)
    # snapshots carry both endpoints
    assert snaps[0].time == 0.0
    assert snaps[-1].time == pytest.approx(8.0, abs=1e-12)


def test_invariants_along_annulus_run():
    d3 = Dimension(3)
    rho0 = annulus(d3, 3.0 / 7.0, 1.0, 2.0)   # mass 4 pi
    st = init_lagrangian(rho0, 64, d3)
    cfg = EvolutionConfig(t_end=3.0, snapshot_stride=5)
    final, snaps = evolve(st, quadratic(), cfg)
    m0 = np.sum(snaps[0].cell_masses)
    assert m0 == pytest.approx(4 * math.pi, rel=1e-8)
    for s in snaps:
        assert np.all(np.diff(s.radii) > 0.0)
        assert np.all(s.densities > 0.0)
        # the cell masses never change along the flow
        assert np.sum(s.cell_masses) == pytest.approx(m0, rel=1e-14)
    # energy is non-increasing through every snapshot
    E = [shell_energy(s, quadratic()) for s in snaps]
    assert np.all(np.diff(E) <= 1e-10 * np.maximum(np.abs(E[:-1]), 1.0))


def test_energy_dissipation_identity():
    # dE/dt = -D holds discretely: check with a tight trapezoid budget
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)
    st = init_lagrangian(rho0, 64, d2)
    cfg = EvolutionConfig(t_end=2.0, dt_max=0.02, snapshot_stride=1)
    _, snaps = evolve(st, quadratic(), cfg)
    t = np.array([s.time for s in snaps])
    E = np.array([shell_energy(s, quadratic()) for s in snaps])
    D = np.array([dissipation(s, quadratic()) for s in snaps])
    drop = E[0] - E[-1]
    integral = np.trapezoid(D, t)
    assert drop > 0.0
    assert integral == pytest.approx(drop, rel=5e-2)


def test_density_transport_matches_profile():
    # carried densities along a ball collapse equal Lap V at the steady end
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)
    st = init_lagrangian(rho0, 64, d2)
    final, _ = evolve(st, quadratic(), EvolutionConfig(t_end=12.0))
    assert np.allclose(final.densities, 2.0, atol=1e-4)


def test_line_dynamics_double_well():
    d1 = Dimension(1)
    rho0 = line_interval(d1, 1.0, 0.7, 1.2)   # mass 0.5 in the right well
    st = init_lagrangian(rho0, 32, d1)
    final, _ = evolve(st, double_well(1.0), EvolutionConfig(t_end=25.0))
    # support edges solve V'(x) = +-m0/2: x^3 - x = +-0.25
    lo = np.min(final.radii)
    hi = np.max(final.radii)
    assert 0.80 < lo < 0.90
    assert 1.05 < hi < 1.15
    assert np.all(final.radii > 0.0)


def test_stiff_potential_raises_when_floor_is_high():
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)
    st = init_lagrangian(rho0, 32, d2, dt_init=0.05)
    cfg = EvolutionConfig(dt_init=0.05, dt_min=0.04, dt_max=0.05, t_end=1.0)
    with pytest.raises(StiffnessError):
        evolve(st, quadratic(1000.0), cfg)


def _colliding_field():
    # clipped-linear well at r = 1.05: shells in the core amplify their
    # offsets (K dt = 4 is far past the RK4 stability limit) while clipped
    # shells translate, so one step interleaves the ladder
    from repelflow import RadialPotential
    K, C, W = 100.0, 1.05, 0.02
    return RadialPotential(
        lambda r: 0.5 * K * np.clip(np.asarray(r, dtype=float) - C, -W, W) ** 2,
        slope=lambda r: K * np.clip(np.asarray(r, dtype=float) - C, -W, W),
        second=lambda r: np.where(np.abs(np.asarray(r, dtype=float) - C) < W,
                                  K, 0.0),
        name="trap")


def _ladder_state(n=16):
    radii = np.linspace(1.0, 1.1, n)
    return LagrangianState(cell_masses=np.full(n, 1.0 / n), radii=radii,
                           densities=np.full(n, 1e-3), time=0.0,
                           dim=Dimension(2), m0=1.0, dt=0.04)


def test_merge_policy_recovers_from_crossings():
    cfg = EvolutionConfig(dt_init=0.04, dt_min=0.03, dt_max=0.05, t_end=0.04,
                          crossing_policy="merge", density_cap=1e9)
    out = step(_ladder_state(), _colliding_field(), cfg)
    assert 1 <= out.n < 16
    assert np.sum(out.cell_masses) == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(out.radii) > 0.0)
    assert out.time == pytest.approx(0.04)


def test_reject_policy_escalates_to_stiffness():
    # same trap, but dt_min just below dt_init: the first ordering
    # violation halves 0.04 -> 0.02 < 0.03 and must escalate
    cfg = EvolutionConfig(dt_init=0.04, dt_min=0.03, dt_max=0.05, t_end=0.04,
                          crossing_policy="reject_step", density_cap=1e9)
    with pytest.raises(StiffnessError, match="ordering"):
        step(_ladder_state(), _colliding_field(), cfg)


def test_reconstruction_roundtrip():
    d3 = Dimension(3)
    st = steady_quantile_state(quadratic(), d3, 4 * math.pi, 256)
    rec = reconstruct_density(st)
    assert rec.mass == pytest.approx(4 * math.pi, rel=1e-12)
    probe = np.linspace(0.1, 0.95, 40)
    assert np.allclose(rec(probe), 3.0, atol=5e-2)
    assert rec.estimator_deviation < 0.05


def _sorted_reconstruction(state, refine=2):
    # reference: the refine grid sorted after the fact, and the interpolant
    # read separately on the grid and on estimator B's midpoints
    d, R, p = state.dim.d, state.radii, state.densities
    lo, hi = _mass_matched_edges(state)
    nodes = np.concatenate([[lo], R, [hi]])
    vals = np.concatenate([[p[0]], p, [p[-1]]])
    if nodes[0] >= nodes[1]:
        nodes, vals = nodes[1:], vals[1:]
    prof = pchip(nodes, vals)
    fine = np.sort(np.concatenate([nodes] + [
        nodes[:-1] + k / (refine + 1.0) * np.diff(nodes) for k in range(1, refine + 1)]))
    fine_vals = np.clip(prof(fine), 0.0, None)
    if d >= 2 and fine[0] > 0.0:
        fine = np.concatenate([[0.0, fine[0] * (1 - 1e-9)], fine])
        fine_vals = np.concatenate([[0.0, 0.0], fine_vals])
    elif d >= 2:
        fine[0] = 0.0
    support = hi if d >= 2 else max(abs(lo), abs(hi))
    mass = RadialDensity(fine, fine_vals, state.dim, support_radius=support).mass
    mid = 0.5 * (R[1:] + R[:-1])
    dm = 0.5 * (state.cell_masses[1:] + state.cell_masses[:-1])
    weight = 1.0 if d == 1 else state.dim.sphere_area * mid ** (d - 1)
    est_b = dm / (weight * np.diff(R))
    deviation = float(np.max(np.abs(prof(mid) - est_b) / np.maximum(est_b, 1e-300)))
    return fine, fine_vals * (state.m0 / mass), deviation


@pytest.mark.parametrize("case", ["annulus", "ball", "line"])
def test_reconstruction_matches_the_sorted_grid_bit_for_bit(case):
    # annulus: the inner edge opens a vacuum head; ball: the inner edge
    # sits on the origin; line: signed d = 1 coordinates
    rho0, V = {"annulus": (annulus(Dimension(3), 1.0, 1.0, 2.0), quadratic()),
               "ball": (uniform_ball(Dimension(2), 2.0, 1.0), quadratic()),
               "line": (line_interval(Dimension(1), 1.0, -1.3, -0.7),
                        double_well())}[case]
    state = init_lagrangian(rho0, 64, rho0.dim)
    final, _ = evolve(state, V, EvolutionConfig(t_end=0.3))
    for st in (state, final):
        rec = reconstruct_density(st)
        grid, values, deviation = _sorted_reconstruction(st)
        assert rec.grid.tobytes() == grid.tobytes()
        assert rec.values.tobytes() == values.tobytes()
        assert rec.estimator_deviation == deviation


def test_refinement_preserves_represented_mass():
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0, 1.0)
    for N in (32, 64, 128):
        st = init_lagrangian(rho0, N, d2)
        assert np.sum(st.cell_masses) == pytest.approx(2 * math.pi, rel=1e-14)
        assert reconstruct_density(st).mass == pytest.approx(2 * math.pi, rel=1e-12)


def test_callable_field_is_refreshed():
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)
    st = init_lagrangian(rho0, 32, d2)
    calls = []

    def field(state):
        calls.append(state.time)
        return quadratic()

    cfg = EvolutionConfig(t_end=0.5)
    final, _ = evolve(st, field, cfg)
    fixed, _ = evolve(st, quadratic(), cfg)
    assert len(calls) >= 2
    assert np.allclose(final.radii, fixed.radii, atol=1e-14)


@st.composite
def _radial_runs(draw):
    """A small radial start, confinement and solver config."""
    d = draw(st.sampled_from((1, 2, 3)))
    dim = Dimension(d)
    if d == 1:
        a = draw(st.floats(-2.0, 1.0))
        rho0 = line_interval(dim, 1.0, a, a + draw(st.floats(0.2, 2.0)))
    elif draw(st.booleans()):
        rho0 = uniform_ball(dim, 1.0, draw(st.floats(0.2, 2.0)))
    else:
        r_in = draw(st.floats(0.1, 1.5))
        rho0 = annulus(dim, 1.0, r_in, r_in + draw(st.floats(0.2, 1.5)))
    rho0 = rho0.renormalized(draw(st.floats(0.5, 5.0)))
    V = draw(st.sampled_from((quadratic, quartic)))(draw(st.floats(0.5, 2.0)))
    # steps up to 0.5 let RK stages cross, which the solver must reject or merge
    dt = draw(st.floats(0.01, 0.5))
    cfg = EvolutionConfig(dt_init=dt, dt_max=2.0 * dt, t_end=draw(st.floats(0.02, 0.5)),
                          rk_order=draw(st.sampled_from((2, 4))),
                          crossing_policy=draw(st.sampled_from(CROSSING_POLICIES)),
                          snapshot_stride=draw(st.integers(1, 5)))
    return init_lagrangian(rho0, draw(st.integers(16, 64)), dim), V, cfg


@settings(max_examples=100)
@given(run=_radial_runs())
def test_evolve_keeps_mass_order_and_positive_densities(run):
    state, V, cfg = run
    m0 = state.m0
    _, snaps = evolve(state, V, cfg)
    for s in snaps:
        assert abs(float(np.sum(s.cell_masses)) - m0) <= 1e-12 * m0
        assert np.all(np.diff(s.radii) > 0.0)
        assert np.all(s.densities > 0.0)
