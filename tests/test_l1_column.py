"""The batched l1 column of collect_series against per-profile oracles.

The oracles are copies of the per-snapshot code the batched path replaced:
``reconstruct_density`` on one state (a pchip through the carried values,
estimator B's deviation, the mass pinned to m0) and ``l1_distance`` as the
trapezoid rule on both profiles' merged knots and their midpoints, each
evaluated pointwise.
"""

import math
import warnings

import numpy as np
import pytest

from repelflow import (Dimension, EvolutionConfig, RadialDensity, annulus,
                       build_steady_state, collect_series, evolve, init_lagrangian,
                       line_interval, quadratic, reconstruct_density, uniform_ball)
from repelflow._cubic import pchip
from repelflow.density import _EDGE_EPS, _cumulative_mass, _distinct, l1_distance
from repelflow.diagnostics import l1_to_steady
from repelflow.errors import ResolutionWarning
from repelflow.lagrangian import LagrangianState, _mass_matched_edges, _profiles


def _oracle_profile(state):
    """(grid, values, support, deviation) of one state, reconstructed alone."""
    d = state.dim.d
    R, p = state.radii, state.densities
    lo, hi = _mass_matched_edges(state)
    nodes = np.concatenate([[lo], R, [hi]])
    vals = np.concatenate([[p[0]], p, [p[-1]]])
    if nodes[0] >= nodes[1]:
        nodes, vals = nodes[1:], vals[1:]
    fine = np.empty(3 * (len(nodes) - 1) + 1)
    fine[::3] = nodes
    gaps = np.diff(nodes)
    for k in (1, 2):
        fine[k::3] = nodes[:-1] + k / 3 * gaps
    mid = 0.5 * (R[1:] + R[:-1])
    both = pchip(nodes, vals)(np.concatenate([fine, mid]))
    fine_vals = np.clip(both[:len(fine)], 0.0, None)
    est_a = both[len(fine):]
    if d >= 2 and fine[0] > 0.0:
        fine = np.concatenate([[0.0, fine[0] * (1 - 1e-9)], fine])
        fine_vals = np.concatenate([[0.0, 0.0], fine_vals])
    elif d >= 2:
        fine[0] = 0.0
    support = hi if d >= 2 else max(abs(lo), abs(hi))
    mass = float(_cumulative_mass(fine, fine_vals, state.dim)[-1])
    dm = 0.5 * (state.cell_masses[1:] + state.cell_masses[:-1])
    dR = np.diff(R)
    est_b = dm / dR if d == 1 else dm / (state.dim.sphere_area * mid ** (d - 1) * dR)
    deviation = float(np.max(np.abs(est_a - est_b) / np.maximum(est_b, 1e-300)))
    return fine, fine_vals * (state.m0 / mass), support, deviation


def _oracle_knots(rho):
    knots = [rho.grid]
    for edge in (rho.grid[0], rho.grid[-1], rho.support_radius):
        scale = max(abs(edge), 1.0)
        knots.append(np.array([edge - _EDGE_EPS * scale, edge, edge + _EDGE_EPS * scale]))
    return _distinct(np.concatenate(knots))


def _oracle_l1(a, b):
    """int |a - b| by the trapezoid rule on the merged knots and midpoints."""
    d = a.dim.d
    merged = _distinct(np.concatenate([_oracle_knots(a), _oracle_knots(b)]))
    if d >= 2:
        merged = merged[merged >= 0.0]
    fine = np.empty(2 * len(merged) - 1)
    fine[0::2] = merged
    fine[1::2] = 0.5 * (merged[1:] + merged[:-1])
    rising = np.diff(fine) > 0.0
    fine = fine[np.concatenate(([True], rising))]
    diff = np.abs(a(fine) - b(fine))
    if d == 1:
        return float(np.trapezoid(diff, fine))
    return float(a.dim.sphere_area * np.trapezoid(diff * fine ** (d - 1), fine))


def _start(dim, kind):
    """A ball-like or an annulus-like start of mass 1 on either side of the steady support."""
    if dim.d == 1:
        rho = (line_interval(dim, 1.0, -1.4, 1.4) if kind == "ball"
               else line_interval(dim, 1.0, 0.3, 1.9))
    else:
        rho = uniform_ball(dim, 1.0, 1.5) if kind == "ball" else annulus(dim, 1.0, 0.8, 1.6)
    return rho.renormalized(1.0)


@pytest.mark.parametrize("kind", ["ball", "annulus"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_l1_column_matches_the_per_profile_trapezoid(d, kind):
    dim = Dimension(d)
    V = quadratic()
    start = init_lagrangian(_start(dim, kind), 64, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        _, snaps = evolve(start, V, EvolutionConfig(t_end=1.0, snapshot_stride=1))
        steady = build_steady_state(V, dim, 1.0, n=1024)
        series = collect_series(snaps, V, steady=steady)
        expect = [_oracle_l1(RadialDensity(*_oracle_profile(s)[:2], dim,
                                           support_radius=_oracle_profile(s)[2]),
                             steady.density) for s in snaps]
    assert len(snaps) > 5
    assert np.max(np.abs(series.l1_dist - expect)) <= 1e-14 * 1.0
    # the reference is the same profile as a general density
    assert series.l1_dist[-1] == pytest.approx(
        l1_distance(reconstruct_density(snaps[-1]), steady.density), abs=1e-15)


def _state(dim, radii, densities, masses):
    return LagrangianState(cell_masses=np.asarray(masses, float), radii=np.asarray(radii, float),
                           densities=np.asarray(densities, float), time=0.0, dim=dim,
                           m0=float(np.sum(masses)))


def test_each_row_of_a_block_takes_its_branch():
    # one block, three shapes: an inner edge collapsed onto R_1 (its
    # half-cell holds too little mass to move it), a mass-matched inner
    # edge at the origin (ball data), and one inside (a head at 0 is added)
    d3 = Dimension(3)
    n = 24
    R = np.linspace(1.0, 2.0, n)
    collapsed = _state(d3, R, np.full(n, 1.0), np.r_[1e-20, np.full(n - 1, 0.1)])
    ball = init_lagrangian(uniform_ball(d3, 1.0, 1.0).renormalized(1.0), n, d3)
    inside = _state(d3, R, np.linspace(2.0, 1.0, n), np.full(n, 0.1))
    lo = [_mass_matched_edges(s)[0] for s in (collapsed, ball, inside)]
    assert lo[0] == R[0] and lo[1] == 0.0 and 0.0 < lo[2] < R[0]
    block = [collapsed, ball, inside, ball, collapsed]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        rows = _profiles(block)
        for state, (grid, values, support, deviation) in zip(block, rows):
            og, ov, osupp, odev = _oracle_profile(state)
            assert grid.tobytes() == og.tobytes() and values.tobytes() == ov.tobytes()
            assert support == osupp and deviation == odev
            one = reconstruct_density(state)
            assert one.grid.tobytes() == og.tobytes() and one.values.tobytes() == ov.tobytes()
            assert one.estimator_deviation == odev
    # the collapsed row starts at the origin, without the head the inner edge adds
    assert rows[0][0][0] == 0.0 and rows[0][0][1] > R[0] / 3
    assert rows[2][0][1] == rows[2][0][2] * (1 - 1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reconstruction_and_deviation_are_the_per_state_ones(d):
    dim = Dimension(d)
    V = quadratic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        _, snaps = evolve(init_lagrangian(_start(dim, "annulus"), 48, dim), V,
                          EvolutionConfig(t_end=0.5, snapshot_stride=2))
        for s, (grid, values, support, deviation) in zip(snaps, _profiles(snaps)):
            og, ov, osupp, odev = _oracle_profile(s)
            assert grid.tobytes() == og.tobytes() and values.tobytes() == ov.tobytes()
            assert support == osupp and deviation == odev


def test_estimator_warning_fires_per_row():
    # a spike in the carried values: the two estimators disagree past 20%
    d3 = Dimension(3)
    n = 32
    R = np.linspace(0.5, 1.5, n)
    p = np.full(n, 1.0)
    p[n // 2] = 3.0
    masses = d3.sphere_area * R ** 2 * np.gradient(R)
    spiky = _state(d3, R, p, masses)
    smooth = _state(d3, R, masses / (d3.sphere_area * R ** 2 * np.gradient(R)), masses)
    with pytest.warns(ResolutionWarning, match="density estimators disagree") as rec:
        rows = _profiles([smooth, spiky, smooth, spiky])
    assert len(rec) == 2
    assert [row[3] > 0.2 for row in rows] == [False, True, False, True]


def test_l1_to_steady_of_a_state_is_a_row_of_the_column():
    d2 = Dimension(2)
    V = quadratic()
    _, snaps = evolve(init_lagrangian(_start(d2, "ball"), 32, d2), V,
                      EvolutionConfig(t_end=0.3, snapshot_stride=1))
    steady = build_steady_state(V, d2, 1.0, n=512)
    series = collect_series(snaps, V, steady=steady)
    assert [l1_to_steady(s, steady) for s in snaps] == list(series.l1_dist)
    assert math.isfinite(series.l1_dist[0]) and series.l1_dist[0] > 0.0
