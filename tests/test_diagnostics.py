"""Energy bookkeeping, Lyapunov assembly, and rate extraction."""

import math

import numpy as np
import pytest

from repelflow import (Dimension, quadratic, uniform_ball, init_lagrangian,
                       evolve, EvolutionConfig, build_steady_state,
                       shell_energy, dissipation, discrepancy,
                       lyapunov, collect_series, DiagnosticSeries, fit_rate,
                       gamma_theory, density_bounds_onset, radial_energy,
                       l1_to_steady, reconstruct_density)
from repelflow.density import RadialDensity, _distinct
from repelflow.lagrangian import LagrangianState
from repelflow.errors import ConfigError, NumericsError


def _shells(masses, radii, dim, densities=None):
    masses = np.asarray(masses, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if densities is None:
        densities = np.ones_like(radii)
    return LagrangianState(cell_masses=masses, radii=radii,
                           densities=np.asarray(densities, dtype=float),
                           time=0.0, dim=dim, m0=float(np.sum(masses)))


def test_shell_energy_two_shells_d3():
    st = _shells([1.0, 1.0], [1.0, 2.0], Dimension(3))
    # N(r) = 1/(4 pi r); shells interact at the larger radius
    expect_int = 0.5 * (1 / (4 * math.pi) + 1 / (8 * math.pi) + 2 / (8 * math.pi))
    expect = expect_int + 0.5 * 1.0 + 0.5 * 4.0
    assert shell_energy(st, quadratic()) == pytest.approx(expect, rel=1e-13)


def test_shell_energy_line():
    st = _shells([1.0, 1.0], [-1.0, 1.0], Dimension(1))
    # N(x) = -|x|/2: interaction -1, confinement 0.5 + 0.5
    assert shell_energy(st, quadratic()) == pytest.approx(0.0, abs=1e-14)


def test_shell_energy_matches_integral_limit():
    # N -> infinity shell energy converges to the continuum energy
    d2 = Dimension(2)
    steady = build_steady_state(quadratic(), d2, 2 * math.pi)
    E_cont = radial_energy(steady.density, quadratic())
    from repelflow import steady_quantile_state
    E_coarse = shell_energy(steady_quantile_state(quadratic(), d2, 2 * math.pi, 128), quadratic())
    E_fine = shell_energy(steady_quantile_state(quadratic(), d2, 2 * math.pi, 1024), quadratic())
    assert abs(E_fine - E_cont) < abs(E_coarse - E_cont)
    assert E_fine == pytest.approx(E_cont, rel=2e-3)


def test_lyapunov_assembly():
    d2 = Dimension(2)
    val = lyapunov(0.5, 0.2, 0.3, d2, eps1=0.1, eps2=0.01, m=3)
    assert val == pytest.approx(0.5 + 0.1 * 0.2 + 0.01 * 0.3 ** 3, rel=1e-14)
    # negative support gap contributes nothing
    assert lyapunov(0.5, 0.2, -0.3, d2) == pytest.approx(0.5 + 0.1 * 0.2, rel=1e-14)
    with pytest.raises(ConfigError):
        lyapunov(0.5, 0.2, 0.3, d2, m=2)
    with pytest.raises(ConfigError):
        lyapunov(0.5, 0.2, 0.3, d2, eps1=-1.0)


def test_discrepancy_vanishes_at_steady():
    from repelflow import steady_quantile_state
    d2 = Dimension(2)
    st = steady_quantile_state(quadratic(), d2, 2 * math.pi, 64)
    assert discrepancy(st, quadratic()) < 1e-20
    assert dissipation(st, quadratic()) < 1e-20


def test_collect_series_and_roundtrip(tmp_path):
    d2 = Dimension(2)
    rho0 = uniform_ball(d2, 2.0 / 2.25, 1.5)
    st = init_lagrangian(rho0, 64, d2)
    steady = build_steady_state(quadratic(), d2, 2 * math.pi)
    _, snaps = evolve(st, quadratic(), EvolutionConfig(t_end=4.0, snapshot_stride=5))
    series = collect_series(snaps, quadratic(), steady=steady)
    series.validate()
    assert series.params["d"] == 2
    assert series.params["m0"] == pytest.approx(2 * math.pi, rel=1e-12)
    assert series.energy[-1] - series.params["E_inf"] < series.energy[0] - series.params["E_inf"]
    assert np.all(series.l1_dist >= 0.0)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    back = DiagnosticSeries.from_csv(path)
    assert np.allclose(back.times, series.times, atol=0.0)
    assert np.allclose(back.energy, series.energy, atol=0.0)
    assert back.params["E_inf"] == pytest.approx(series.params["E_inf"], abs=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_series_l1_matches_one_distance_per_snapshot(d):
    # collect_series sorts the steady knots once; each distance computed on
    # its own, against a profile whose knots are not yet kept, must agree
    dim = Dimension(d)
    m0 = dim.sphere_area
    V = quadratic()
    st = init_lagrangian(uniform_ball(dim, 1.5, 1.5).renormalized(m0), 128, dim)
    _, snaps = evolve(st, V, EvolutionConfig(t_end=0.5, snapshot_stride=1))
    steady = build_steady_state(V, dim, m0, n=1024)
    series = collect_series(snaps, V, steady=steady)
    rho = steady.density

    def fresh():
        return RadialDensity(rho.grid, rho.values, dim, support_radius=rho.support_radius)

    alone = [l1_to_steady(s, fresh()) for s in snaps]
    assert np.array_equal(series.l1_dist, alone)
    assert np.array_equal(series.l1_dist, [l1_to_steady(s, steady) for s in snaps])
    # the kept knots are the distinct values np.unique finds
    profile = reconstruct_density(snaps[-1])
    both = np.concatenate([profile._l1_knots(), rho._l1_knots()])
    assert np.unique(both).tobytes() == _distinct(both).tobytes()


def test_series_header_is_read_as_literals(tmp_path):
    series = _synthetic([0.0, 1.0], [1.0, 0.5])
    series.params.update(m0=2 * math.pi, m=None, label="quadratic")
    path = tmp_path / "series.csv"
    series.to_csv(path)
    back = DiagnosticSeries.from_csv(path)
    assert back.params == series.params
    assert type(back.params["d"]) is int and type(back.params["m0"]) is float
    # a header value is data: an expression that is not a literal stays text
    text = path.read_text().replace("# d = 3", "# d = __import__('os')")
    path.write_text(text)
    assert DiagnosticSeries.from_csv(path).params["d"] == "__import__('os')"
    # so is a value too deep for the parser
    for raw in ("-" * 100000 + "1", "1+" * 100000 + "1"):
        path.write_text(text.replace("# d = __import__('os')", f"# d = {raw}"))
        assert DiagnosticSeries.from_csv(path).params["d"] == raw


def _synthetic(times, gaps):
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    return DiagnosticSeries(times=times, energy=10.0 + gaps,
                            dissipation=np.zeros_like(times),
                            discrepancy=np.zeros_like(times),
                            support=np.ones_like(times),
                            lyapunov=gaps.copy(),
                            l1_dist=np.sqrt(np.abs(gaps)),
                            params={"E_inf": 10.0, "R_inf": 1.0, "d": 3})


def test_fit_rate_power_law():
    t = np.geomspace(1.0, 20.0, 60)
    series = _synthetic(t, (1.0 + t) ** (-2.0))
    fit = fit_rate(series, "energy_gap", (1.0, 20.0))
    assert fit.gamma_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.super_algebraic
    assert fit.gamma_theory == pytest.approx(1.25, rel=1e-12)
    assert fit.verdict == "pass"
    assert fit.q_exponent == pytest.approx(6.0 / 5.0, rel=1e-12)
    # the l1 column decays at half the exponent
    fit_l1 = fit_rate(series, "l1", (1.0, 20.0))
    assert fit_l1.gamma_hat == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_flags_exponential():
    t = np.linspace(10.0, 30.0, 80)
    series = _synthetic(t, np.exp(-t))
    fit = fit_rate(series, "energy_gap", (10.0, 30.0))
    assert fit.super_algebraic
    assert fit.gamma_tail > fit.gamma_head > 0.0
    assert fit.verdict == "pass"


def test_fit_rate_window_errors():
    t = np.geomspace(1.0, 20.0, 60)
    series = _synthetic(t, (1.0 + t) ** (-2.0))
    with pytest.raises(ConfigError) as err:
        fit_rate(series, "energy_gap", (1.0, 1.2))
    assert err.value.reason == "window error"
    with pytest.raises(ConfigError) as err:
        fit_rate(series, "energy_gap", (0.1, 20.0))
    assert err.value.reason == "window error"
    bad = _synthetic(t, (1.0 + t) ** (-2.0) - 0.02)
    with pytest.raises(NumericsError):
        fit_rate(bad, "energy_gap", (1.0, 20.0))
    with pytest.raises(ConfigError):
        fit_rate(series, "entropy", (1.0, 20.0))
    # a line takes two samples whatever min_samples allows (one sample used
    # to reach the least-squares solve and fail there)
    with pytest.raises(ConfigError, match="need 2") as err:
        fit_rate(series, "energy_gap", (1.0, 1.01), min_samples=1)
    assert err.value.reason == "window error"


def test_fit_rate_text_record():
    t = np.geomspace(1.0, 20.0, 60)
    fit = fit_rate(_synthetic(t, (1.0 + t) ** (-2.0)), "energy_gap", (1.0, 20.0))
    text = fit.to_text()
    assert "gamma_hat" in text and "verdict = pass" in text


def test_gamma_theory_values():
    assert gamma_theory(Dimension(3)) == pytest.approx(1.25, rel=1e-14)
    assert gamma_theory(Dimension(4)) == pytest.approx(0.6, rel=1e-14)
    assert gamma_theory(Dimension(2)) is None
    assert gamma_theory(Dimension(2), gamma_target=0.8) == pytest.approx(0.8)


def test_density_bounds_onset():
    d2 = Dimension(2)

    def snap(t, dens):
        return LagrangianState(cell_masses=np.ones(3), radii=np.array([1.0, 2.0, 3.0]),
                               densities=np.asarray(dens, dtype=float), time=t,
                               dim=d2, m0=3.0)

    snaps = [snap(0.0, [0.1, 1.0, 1.0]), snap(1.0, [0.6, 1.0, 1.0]),
             snap(2.0, [0.8, 1.2, 1.0])]
    assert density_bounds_onset(snaps, 0.5, 2.0) == 1.0
    assert density_bounds_onset(snaps, 0.9, 2.0) is None
    assert density_bounds_onset(snaps, 0.05, 2.0) == 0.0


def test_series_validation_catches_energy_rise():
    t = np.array([0.0, 1.0, 2.0])
    series = DiagnosticSeries(times=t, energy=np.array([1.0, 0.5, 0.8]),
                              dissipation=np.zeros(3), discrepancy=np.zeros(3),
                              support=np.ones(3), lyapunov=np.zeros(3),
                              l1_dist=np.zeros(3))
    with pytest.raises(NumericsError):
        series.validate()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_shell_energy_matches_double_sum(d):
    # the prefix-sum form against 1/2 sum_ij m_i m_j N(R_i - R_j) term by term
    rng = np.random.default_rng(d)
    n = 150
    lo = -2.0 if d == 1 else 0.05
    radii = np.sort(rng.uniform(lo, 3.0, n))
    masses = rng.uniform(0.1, 1.0, n)
    dim = Dimension(d)
    V = quadratic()
    terms = []
    for i in range(n):
        for j in range(n):
            if d == 1:
                kernel = -0.5 * abs(radii[i] - radii[j])
            elif d == 2:
                kernel = -math.log(max(radii[i], radii[j])) / (2.0 * math.pi)
            else:
                kernel = dim.newton_coeff * max(radii[i], radii[j]) ** (2 - d)
            terms.append(0.5 * masses[i] * masses[j] * kernel)
    terms += list(masses * V.value(radii))
    expect = math.fsum(terms)
    assert shell_energy(_shells(masses, radii, dim), V) == pytest.approx(expect, rel=1e-13)
