"""Weighted particle method: forces, energies, sampling, persistence."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repelflow import (Dimension, uniform_ball, build_steady_state, quadratic,
                       annulus, init_lagrangian, evolve, EvolutionConfig, shell_energy,
                       zero_potential, AttractionPotential, ParticleCloud,
                       sample_radial, velocity_field, run_particles,
                       discrete_energy, save_cloud, load_cloud,
                       cloud_support_radius, default_regularization,
                       newton_grad)
from repelflow import particles
from repelflow.particles import advance
from repelflow.errors import ConfigError, DivergenceError, ResolutionWarning, StiffnessError


def _pair_cloud(sep=1.0, w=0.5, dim=3):
    d = Dimension(dim)
    pos = np.zeros((2, dim))
    pos[1, 0] = sep
    return ParticleCloud(positions=pos, weights=np.array([w, w]),
                         delta_reg=1e-6, dim=d)


def test_pair_velocities_antisymmetric():
    # zero confinement isolates the pair interaction
    cloud = _pair_cloud()
    u = velocity_field(cloud, V=zero_potential())
    assert np.allclose(u[0], -u[1], atol=1e-15)
    # magnitude w/(sigma_3 r^2) = 0.5/(4 pi)
    assert np.linalg.norm(u[0]) == pytest.approx(0.5 / (4 * math.pi), rel=1e-12)
    # matches the kernel gradient evaluated directly
    expect = -0.5 * newton_grad(Dimension(3), cloud.positions[0], cloud.positions[1])
    assert np.allclose(u[0], expect, atol=1e-15)


def test_pair_interaction_energy():
    cloud = _pair_cloud()
    # w^2 N(1) summed over the ordered pair: 0.25/(4 pi)
    E = discrete_energy(cloud, V=zero_potential())
    assert E == pytest.approx(0.25 / (4 * math.pi), rel=1e-12)


def test_lone_particle_is_still():
    d = Dimension(3)
    cloud = ParticleCloud(positions=np.array([[0.3, -0.1, 0.2]]),
                          weights=np.array([1.0]), delta_reg=1e-3, dim=d)
    u = velocity_field(cloud, V=quadratic(0.0))
    assert np.allclose(u, 0.0, atol=1e-15)


def _brute_force(cloud, V=None, W=None):
    """Velocities and energy from a plain double loop over i != j, skipping
    coincident pairs (r < 1e-14)."""
    pos, w, delta = cloud.positions, cloud.weights, cloud.delta_reg
    dim = cloud.dim
    n, d = pos.shape
    u = np.zeros_like(pos)
    E = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            z = pos[i] - pos[j]
            r = math.sqrt(z @ z)
            if r < 1e-14:
                continue
            rr = max(r, delta)
            # repulsion -grad N, clipped at delta; N = -log/(2 pi) or c_d r^(2-d)
            u[i] += w[j] * z / (dim.sphere_area * rr ** (d - 1) * r)
            E += 0.5 * w[i] * w[j] * (-math.log(rr) / (2 * math.pi) if d == 2
                                      else dim.newton_coeff * rr ** (2 - d))
            if W is not None:
                # W = r^2 / (2d) + w
                pert = W.perturbation
                u[i] -= w[j] * (r / d + float(pert.slope(r))) * z / r
                E += 0.5 * w[i] * w[j] * (r * r / (2 * d) + float(pert.value(r)))
        if V is not None:
            r = math.sqrt(pos[i] @ pos[i])
            u[i] -= float(V.slope(r)) * pos[i] / r
            E += w[i] * float(V.value(r))
    return u, E


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mode", ["confinement", "attraction"])
def test_pair_sums_match_brute_force(dim, mode):
    rng = np.random.default_rng(dim)
    d = Dimension(dim)
    # delta inside the pair-distance range so both kernel branches are hit
    cloud = ParticleCloud(positions=rng.normal(size=(60, dim)),
                          weights=rng.uniform(0.1, 1.0, size=60),
                          delta_reg=0.3, dim=d)
    fields = ({"V": quadratic(1.5)} if mode == "confinement"
              else {"W": AttractionPotential.gaussian_bump(d, 0.01)})
    u_ref, E_ref = _brute_force(cloud, **fields)
    u = velocity_field(cloud, **fields)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    assert discrete_energy(cloud, **fields) == pytest.approx(E_ref, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mode", ["confinement", "attraction"])
def test_pair_sums_match_brute_force_across_blocks(monkeypatch, dim, mode):
    # blocks of 16 rows split N = 60 into four strips, so the transposed
    # products of the off-diagonal parts carry most of the pairs
    monkeypatch.setattr(particles, "_chunk_size", lambda n: 16)
    test_pair_sums_match_brute_force(dim, mode)


def test_newton_momentum_free():
    rng = np.random.default_rng(11)
    d = Dimension(3)
    pos = rng.normal(size=(200, 3))
    w = rng.uniform(0.2, 1.0, size=200)
    cloud = ParticleCloud(positions=pos, weights=w, delta_reg=1e-9, dim=d)
    u = velocity_field(cloud, V=zero_potential())
    # pure pair interactions: total momentum sum w_i u_i vanishes
    assert np.allclose(w @ u, 0.0, atol=1e-12)


def test_quadratic_attraction_closed_form():
    rng = np.random.default_rng(5)
    d = Dimension(3)
    pos = rng.normal(size=(50, 3))
    w = rng.uniform(0.1, 1.0, size=50)
    cloud = ParticleCloud(positions=pos, weights=w, delta_reg=1e-2, dim=d)
    W = AttractionPotential(d)
    u = velocity_field(cloud, W=W)
    # brute force: u_i = newton part - sum_j w_j (x_i - x_j)/d
    u_newton = velocity_field(cloud, V=zero_potential())
    brute = np.zeros_like(pos)
    for i in range(50):
        diff = pos[i] - pos
        brute[i] = -np.sum(w[:, None] * diff, axis=0) / 3.0
    assert np.allclose(u - u_newton, brute, atol=1e-12)
    # energy closed form against the double loop
    E = discrete_energy(cloud, W=W)
    E_pairs = 0.0
    for i in range(50):
        for j in range(50):
            if i != j:
                E_pairs += 0.5 * w[i] * w[j] * np.sum((pos[i] - pos[j]) ** 2) / 6.0
    E_newton = discrete_energy(cloud, V=zero_potential())
    assert E - E_newton == pytest.approx(E_pairs, rel=1e-10)


def test_two_body_attraction_equilibrium():
    # equal weights under W = r^2/(2d): rest separation is omega_d^(-1/d)
    d = Dimension(3)
    W = AttractionPotential(d)
    s_star = d.ball_volume ** (-1.0 / 3.0)
    pos = np.array([[-0.5 * s_star, 0, 0], [0.5 * s_star, 0, 0]])
    cloud = ParticleCloud(positions=pos, weights=np.array([0.5, 0.5]),
                          delta_reg=1e-9, dim=d)
    u = velocity_field(cloud, W=W)
    assert np.max(np.abs(u)) < 1e-14
    # perturbed pair relaxes back (delta_reg also feeds the step size cap)
    cloud2 = ParticleCloud(positions=1.4 * pos, weights=np.array([0.5, 0.5]),
                           delta_reg=5e-2, dim=d)
    final, _ = run_particles(cloud2, 40.0, V=None, W=W, dt_max=0.2)
    sep = np.linalg.norm(final.positions[0] - final.positions[1])
    assert sep == pytest.approx(s_star, rel=1e-4)


def test_sample_radial_quantile_radii():
    d2 = Dimension(2)
    steady = build_steady_state(quadratic(), d2, 2 * math.pi)
    rng = np.random.default_rng(0)
    cloud = sample_radial(steady.density, 500, rng, rho_ref=2.0)
    radii = np.sort(np.linalg.norm(cloud.positions, axis=1))
    # deterministic stratified radii: M(r_i) = (i - 1/2) m0 / N, M = 2 pi r^2
    expect = np.sqrt((np.arange(1, 501) - 0.5) / 500.0)
    assert np.allclose(radii, expect, atol=1e-6)
    # weights carry the discretized profile mass, not the nominal m0
    m = steady.density.mass
    assert m == pytest.approx(2 * math.pi, rel=1e-8)
    assert np.sum(cloud.weights) == pytest.approx(m, rel=1e-14)
    assert cloud.delta_reg == pytest.approx(
        default_regularization(m, 500, d2, 2.0), rel=1e-12)


def _only_resolution_warnings(record):
    # pytest.warns records every warning, so a RuntimeWarning inside it
    # would get round pyproject's error filter
    assert [w.category for w in record] == [ResolutionWarning]


def test_coincident_pair_warns():
    d = Dimension(2)
    pos = np.zeros((2, 2))
    cloud = ParticleCloud(positions=pos, weights=np.array([1.0, 1.0]),
                          delta_reg=1e-3, dim=d)
    with pytest.warns(ResolutionWarning) as record:
        velocity_field(cloud, V=zero_potential())
    _only_resolution_warnings(record)


def _coincident_cloud(dim):
    # duplicates inside one block of 16 (3, 5), across blocks (2, 30) and a
    # triple spanning two blocks (20, 21, 37): 1 + 1 + 3 unordered pairs
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(40, dim))
    pos[5] = pos[3]
    pos[30] = pos[2]
    pos[21] = pos[37] = pos[20]
    return ParticleCloud(positions=pos, weights=rng.uniform(0.5, 1.0, size=40),
                         delta_reg=1e-2, dim=Dimension(dim))


def test_coincident_pairs_counted_once(monkeypatch):
    cloud = _coincident_cloud(3)
    with pytest.warns(ResolutionWarning, match=r"^5 coincident particle pairs") as record:
        u_one_block = velocity_field(cloud, V=zero_potential())
    _only_resolution_warnings(record)
    monkeypatch.setattr(particles, "_chunk_size", lambda n: 16)
    with pytest.warns(ResolutionWarning, match=r"^5 coincident particle pairs") as record:
        u = velocity_field(cloud, V=zero_potential())
    _only_resolution_warnings(record)
    # coincident pairs drop out of the sum, so the field stays finite
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u - u_one_block)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("rows", [None, 16])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mode", ["confinement", "attraction"])
def test_coincident_pairs_drop_out_of_both_sums(monkeypatch, rows, dim, mode):
    # velocities and energies, in one block and across blocks, equal the
    # brute force over the pairs that are not coincident; the energy (the
    # log kernel in d = 2) warns of nothing
    if rows is not None:
        monkeypatch.setattr(particles, "_chunk_size", lambda n: rows)
    cloud = _coincident_cloud(dim)
    fields = ({"V": quadratic(1.5)} if mode == "confinement"
              else {"W": AttractionPotential.gaussian_bump(Dimension(dim), 0.01)})
    u_ref, E_ref = _brute_force(cloud, **fields)
    with pytest.warns(ResolutionWarning, match=r"^5 coincident particle pairs") as record:
        u = velocity_field(cloud, **fields)
    _only_resolution_warnings(record)
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        E = discrete_energy(cloud, **fields)
    assert record == []
    assert math.isfinite(E)
    assert E == pytest.approx(E_ref, rel=1e-12)


def test_sample_radial_needs_a_particle():
    steady = build_steady_state(quadratic(), Dimension(2), 2 * math.pi)
    with pytest.raises(ConfigError):
        sample_radial(steady.density, 0, np.random.default_rng(0), rho_ref=2.0)


def test_divergence_guard():
    d = Dimension(2)
    cloud = ParticleCloud(positions=np.array([[1e7, 0.0], [0.0, 1.0]]),
                          weights=np.array([1.0, 1.0]), delta_reg=1e-3, dim=d)
    with pytest.raises(DivergenceError):
        advance(cloud, 0.01, V=quadratic())


def test_a_nan_velocity_is_a_divergence():
    # NaN positions pass a |x| > 1e6 test; they must neither run on to t_end
    # nor be counted as coincident pairs on the way
    d = Dimension(3)
    cloud = ParticleCloud(positions=np.random.default_rng(2).normal(size=(20, 3)),
                          weights=np.full(20, 0.05), delta_reg=1e-2, dim=d)
    k1 = np.full((20, 3), np.nan)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as err:
            advance(cloud, 0.01, V=quadratic(), k1=k1)
    assert err.value.reason == "trajectory divergence"
    assert record == []


def test_a_nan_distance_is_not_coincident():
    # one NaN particle beside the five coincident pairs: the count stays 5,
    # and the coincident block still runs quietly
    cloud = _coincident_cloud(3)
    pos = cloud.positions.copy()
    pos[0] = np.nan
    with pytest.warns(ResolutionWarning, match=r"^5 coincident particle pairs") as record:
        velocity_field(replace(cloud, positions=pos), V=quadratic())
    _only_resolution_warnings(record)


def test_cloud_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    d = Dimension(3)
    cloud = ParticleCloud(positions=rng.normal(size=(20, 3)),
                          weights=rng.uniform(0.5, 1.0, size=20),
                          delta_reg=0.0123, dim=d, time=2.5)
    path = tmp_path / "cloud.csv"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert np.allclose(back.positions, cloud.positions, atol=1e-15)
    assert np.allclose(back.weights, cloud.weights, atol=1e-15)
    assert back.delta_reg == pytest.approx(cloud.delta_reg, rel=1e-15)
    assert back.time == pytest.approx(2.5, abs=1e-15)
    assert back.dim.d == 3


def test_support_radius_estimate():
    d2 = Dimension(2)
    steady = build_steady_state(quadratic(), d2, 2 * math.pi)
    cloud = sample_radial(steady.density, 2000, np.random.default_rng(1), rho_ref=2.0)
    assert cloud_support_radius(cloud) == pytest.approx(1.0, abs=2e-2)


def test_a_step_cap_below_the_floor_is_refused():
    # a 1e-12 blob scale caps dt near 1e-13, so t_end = 1 took 1e13 steps
    cloud = ParticleCloud(positions=np.array([[0.5, 0.0], [-0.5, 0.0]]),
                          weights=np.full(2, 0.5), delta_reg=1e-12, dim=Dimension(2))
    with pytest.raises(StiffnessError) as err:
        run_particles(cloud, 1.0, V=quadratic())
    assert err.value.reason == "dt underflow"


def test_validation():
    d = Dimension(2)
    with pytest.raises(ConfigError):
        ParticleCloud(positions=np.zeros((3, 3)), weights=np.ones(3),
                      delta_reg=1e-3, dim=d).validate()
    with pytest.raises(ConfigError):
        ParticleCloud(positions=np.zeros((2, 2)), weights=np.array([1.0, -1.0]),
                      delta_reg=1e-3, dim=d).validate()
    # the solver's energies hold in d = 2, 3 only, so a loaded d = 1 or
    # d = 4 cloud is refused as sampling refuses those dimensions
    for k in (1, 4):
        with pytest.raises(ConfigError, match="d = 2, 3 only"):
            ParticleCloud(positions=np.zeros((2, k)), weights=np.ones(2),
                          delta_reg=1e-3, dim=Dimension(k)).validate()


@pytest.mark.parametrize("weight, delta", [(np.nan, 1e-3), (np.inf, 1e-3),
                                           (1.0, np.nan), (1.0, np.inf)])
def test_non_finite_weights_and_regularization_are_refused(weight, delta):
    cloud = ParticleCloud(positions=np.zeros((2, 2)), weights=np.array([1.0, weight]),
                          delta_reg=delta, dim=Dimension(2))
    with pytest.raises(ConfigError) as err:
        cloud.validate()
    assert err.value.reason == "invalid cloud"


@pytest.mark.parametrize("kwargs", [{"safety": 0.0}, {"dt_max": 0.0},
                                    {"dt_max": -0.1}, {"snapshot_stride": 0}])
def test_step_rules_are_refused(kwargs):
    # safety = 0 used to loop forever on dt = 0, a negative dt_max ran time
    # backwards and snapshot_stride = 0 divided by zero
    cloud = ParticleCloud(positions=np.array([[0.5, 0.0], [-0.5, 0.0]]),
                          weights=np.array([1.0, 1.0]), delta_reg=1e-3, dim=Dimension(2))
    with pytest.raises(ConfigError) as err:
        run_particles(cloud, 1.0, V=quadratic(), **kwargs)
    assert err.value.reason == "invalid solver config"


def test_a_perturbation_named_zero_still_acts():
    # the kernel's values decide whether it acts, not its name
    d = Dimension(3)
    W = AttractionPotential.gaussian_bump(d, 0.5)
    named = AttractionPotential.gaussian_bump(d, 0.5)
    named.perturbation.name = "zero"
    rng = np.random.default_rng(2)
    cloud = ParticleCloud(positions=rng.normal(size=(40, 3)), weights=np.full(40, 0.025),
                          delta_reg=1e-2, dim=d)
    assert np.array_equal(velocity_field(cloud, W=named), velocity_field(cloud, W=W))
    assert discrete_energy(cloud, W=named) == discrete_energy(cloud, W=W)
    assert not np.array_equal(velocity_field(cloud, W=W),
                              velocity_field(cloud, W=AttractionPotential(d)))


def test_the_cloud_benchmark_checks_hold():
    # the output checks of the benchmark's cloud_relax workload at its
    # sizes: an N = 1000 confinement cloud keeps its energy within 1% of a
    # 512-shell evolve of the same annulus at t = 0.1, 0.2 and 0.3, and an
    # N = 500 bump-attraction cloud's energy does not increase
    dim = Dimension(3)
    rng = np.random.default_rng(0)
    one_snapshot = 10 ** 9
    V = quadratic()
    rho0 = annulus(dim, 1.0, 1.0, 2.0).renormalized(dim.sphere_area)
    cloud = sample_radial(rho0, 1000, rng, rho_ref=3.0)
    shells = init_lagrangian(rho0, 512, dim, dt_init=0.01)
    for t in (0.1, 0.2, 0.3):
        shells, _ = evolve(shells, V, EvolutionConfig(dt_init=0.01, t_end=t,
                                                      snapshot_stride=one_snapshot))
        cloud, _ = run_particles(cloud, t, V=V, dt_max=0.05, safety=0.1,
                                 rk_order=2, snapshot_stride=one_snapshot)
        e_shell = shell_energy(shells, V)
        assert abs(discrete_energy(cloud, V=V) - e_shell) <= 0.01 * abs(e_shell), t
    W = AttractionPotential.gaussian_bump(dim, 0.01)
    ball = uniform_ball(dim, 1.0, dim.ball_volume ** (-1.0 / 3.0))
    cloud = sample_radial(ball.renormalized(1.0), 500, rng, rho_ref=1.0)
    energies = [discrete_energy(cloud, W=W)]
    for t in (0.5, 1.0):
        cloud, _ = run_particles(cloud, t, W=W, dt_max=0.05, safety=0.1,
                                 rk_order=2, snapshot_stride=one_snapshot)
        energies.append(discrete_energy(cloud, W=W))
    assert all(b <= a for a, b in zip(energies, energies[1:])), energies
