"""Experiment harness: config round trip, exit codes, artifacts, determinism."""

import json
import math

import numpy as np
import pytest

from repelflow.cli import (ExperimentConfig, config_from_ini, config_to_ini,
                           recipe, RECIPES, MODES, main)
from repelflow.diagnostics import DiagnosticSeries


def _write_ini(path, text):
    path.write_text(text)
    return str(path)


def test_ini_round_trip(tmp_path):
    cfg = ExperimentConfig(mode="simulate_radial", out="runs/x", seed=42,
                           dimension=2, m0=2 * math.pi,
                           potential_kind="quartic", potential_param=0.25,
                           epsilon=0.02, bump_width=0.7, bump_sign=-1,
                           allow_unproven=True, attraction_n_grid=513,
                           rho0={"kind": "ball", "value": 1.5, "radius": 1.5},
                           rho0_alt={"kind": "annulus", "value": 1.0,
                                     "r_in": 1.0, "r_out": 2.0},
                           n_quantiles=128, dt_init=0.02, t_end=7.5,
                           rate_quantities=("energy_gap", "l1"),
                           window_lo=1.0, window_hi=7.5, gamma_target=1.5)
    path = tmp_path / "cfg.ini"
    config_to_ini(cfg, path)
    back = config_from_ini(path)
    assert back == cfg


def test_recipes_resolve_and_validate():
    assert set(RECIPES) == {"uniqueness_two_starts", "rates_d2", "rates_d3",
                            "attraction_perturbed", "line_double_well",
                            "compact_support_check"}
    for name in RECIPES:
        cfg = recipe(name)
        assert cfg.mode in MODES
        assert cfg.out == f"runs/{name}"
        cfg.validate()


def test_closed_form_steady_record(tmp_path):
    ini = _write_ini(tmp_path / "steady.ini", """
[run]
mode = steady

[problem]
dimension = 3
m0 = 12.566370614359172

[potential]
kind = quadratic
param = 1.0
""")
    out = tmp_path / "out"
    assert main(["steady", "--config", ini, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["R_inf"] == pytest.approx(1.0, abs=1e-8)
    r, rho, phi = np.loadtxt(out / "steady.csv", delimiter=",", unpack=True)
    core = rho[r <= 0.9]
    assert np.max(np.abs(core - 3.0)) < 1e-6
    # the plateau is N*rho + V on the support
    inside = np.abs(phi[r <= 0.9] - summary["potential_plateau"])
    assert np.max(inside) < 1e-6


def test_validate_flat_potential_exits_2(tmp_path, capsys):
    ini = _write_ini(tmp_path / "flat.ini", """
[run]
mode = validate

[problem]
dimension = 3

[potential]
kind = zero

[validate]
check = pareto
""")
    rc = main(["validate", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "reason: pareto tail failed" in err
    report = (tmp_path / "o" / "validation.txt").read_text()
    assert "passed = False" in report


def test_validate_quadratic_passes_both_checks(tmp_path):
    for check in ("pareto", "compact"):
        ini = _write_ini(tmp_path / f"{check}.ini", f"""
[run]
mode = validate

[problem]
dimension = 3

[potential]
kind = quadratic
param = 1.0

[validate]
check = {check}
""")
        out = tmp_path / f"o_{check}"
        assert main(["validate", "--config", ini, "--out", str(out)]) == 0
        assert "passed = True" in (out / "validation.txt").read_text()


def test_subcommand_must_match_mode(tmp_path, capsys):
    ini = _write_ini(tmp_path / "v.ini", """
[run]
mode = validate
""")
    rc = main(["steady", "--config", ini])
    assert rc == 2
    assert "reason: invalid solver config" in capsys.readouterr().err


def test_config_or_recipe_required(capsys):
    assert main(["steady"]) == 2
    assert "reason: invalid solver config" in capsys.readouterr().err


def test_config_and_recipe_conflict(tmp_path, capsys):
    ini = _write_ini(tmp_path / "v.ini", "[run]\nmode = steady\n")
    rc = main(["steady", "--config", ini, "--recipe", "rates_d3"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("section, line", [
    ("problem", "dimension = abc"),
    ("solver", "n_quantiles = 1.5"),
    ("problem", "m0 = nan"),
    ("solver", "t_end = inf"),
    ("rho0", "radius = -inf"),
])
def test_bad_numbers_exit_2(tmp_path, capsys, section, line):
    # non-numeric and non-finite values are config errors, not tracebacks
    # or misleading downstream failures (m0 = nan used to pass m0 <= 0)
    ini = _write_ini(tmp_path / "bad.ini",
                     f"[run]\nmode = steady\n\n[{section}]\n{line}\n")
    rc = main(["steady", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    key = line.split()[0]
    assert f"error: [{section}] {key} = " in err
    assert "reason: invalid solver config" in err


def test_unknown_recipe_rejected():
    # argparse enforces the recipe enum itself
    with pytest.raises(SystemExit):
        main(["steady", "--recipe", "nope"])


def _algebraic_series(tmp_path, values=None):
    t = np.linspace(0.0, 12.0, 121)
    l1 = values if values is not None else (1.0 + t) ** -2
    e = 1.0 + (1.0 + t) ** -2
    series = DiagnosticSeries(times=t, energy=e, dissipation=np.zeros_like(t),
                              discrepancy=np.zeros_like(t),
                              support=np.ones_like(t),
                              lyapunov=e.copy(), l1_dist=np.asarray(l1, float),
                              params={"E_inf": 1.0, "R_inf": 1.0, "d": 3})
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    series.to_csv(run_dir / "series.csv")
    return run_dir


def test_rates_on_run_directory(tmp_path):
    run_dir = _algebraic_series(tmp_path)
    ini = _write_ini(tmp_path / "r.ini", f"""
[run]
mode = rates

[problem]
dimension = 3

[rates]
quantity = l1
series = {run_dir}
window_lo = 1.0
window_hi = 10.0
""")
    out = tmp_path / "fit"
    assert main(["rates", "--config", ini, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    fit = summary["rate_l1"]
    # exact power law: the log-log fit recovers the exponent
    assert fit["gamma_hat"] == pytest.approx(2.0, abs=1e-9)
    assert fit["super_algebraic"] is False
    assert fit["verdict"] == "pass"
    text = (out / "rate_l1.txt").read_text()
    assert "gamma_hat = 2" in text
    assert "verdict = pass" in text


def test_rates_window_outside_series_exits_2(tmp_path, capsys):
    run_dir = _algebraic_series(tmp_path)
    ini = _write_ini(tmp_path / "r.ini", f"""
[run]
mode = rates

[rates]
quantity = l1
series = {run_dir}
window_lo = 1.0
window_hi = 50.0
""")
    rc = main(["rates", "--config", ini, "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "reason: window error" in capsys.readouterr().err


def test_rates_nonpositive_values_exit_3(tmp_path, capsys):
    t = np.linspace(0.0, 12.0, 121)
    l1 = (1.0 + t) ** -2
    l1[60:] = 0.0
    run_dir = _algebraic_series(tmp_path, values=l1)
    ini = _write_ini(tmp_path / "r.ini", f"""
[run]
mode = rates

[rates]
quantity = l1
series = {run_dir}
window_lo = 1.0
window_hi = 10.0
""")
    rc = main(["rates", "--config", ini, "--out", str(tmp_path / "f")])
    assert rc == 3
    assert "reason: window error" in capsys.readouterr().err


def test_rates_missing_series_exits_2(tmp_path, capsys):
    ini = _write_ini(tmp_path / "r.ini", """
[run]
mode = rates

[rates]
series = /nonexistent/series.csv
""")
    rc = main(["rates", "--config", ini, "--out", str(tmp_path / "f")])
    assert rc == 2
    capsys.readouterr()


RADIAL_INI = """
[run]
mode = simulate_radial
seed = 0

[problem]
dimension = 2
m0 = 6.283185307179586

[potential]
kind = quadratic
param = 1.0

[rho0]
kind = ball
value = 1.5
radius = 1.5

[solver]
n_quantiles = 64
dt_init = 0.01
t_end = 1.0
snapshot_stride = 10
"""


def test_radial_run_is_deterministic(tmp_path):
    ini = _write_ini(tmp_path / "r.ini", RADIAL_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate_radial", "--config", ini, "--out", str(out1)]) == 0
    assert main(["simulate_radial", "--config", ini, "--out", str(out2)]) == 0
    for name in ("series.csv", "snapshots.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_radial_artifacts_and_manifest(tmp_path):
    ini = _write_ini(tmp_path / "r.ini", RADIAL_INI)
    out = tmp_path / "out"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "simulate_radial"
    sha = manifest["config_sha256"]
    assert len(sha) == 64 and all(c in "0123456789abcdef" for c in sha)
    for pkg in ("repelflow", "numpy", "scipy", "python"):
        assert pkg in manifest["versions"]
    assert manifest["wall_time_s"] > 0.0
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert "series.csv" in manifest["artifacts"]
    assert "summary.json" in manifest["artifacts"]
    # series columns parse and start at t = 0
    series = DiagnosticSeries.from_csv(out / "series.csv")
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_particle_run_deterministic_given_seed(tmp_path):
    ini = _write_ini(tmp_path / "p.ini", """
[run]
mode = simulate_particles
seed = 3

[problem]
dimension = 3
m0 = 12.566370614359172

[potential]
kind = quadratic
param = 1.0

[rho0]
kind = ball
value = 3.0
radius = 1.0

[particles]
n = 50
t_end = 0.2
mode = confinement
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate_particles", "--config", ini, "--out", str(out1)]) == 0
    assert main(["simulate_particles", "--config", ini, "--out", str(out2)]) == 0
    assert (out1 / "cloud_final.csv").read_bytes() == (out2 / "cloud_final.csv").read_bytes()
    # the seed flag overrides the config and changes the draw
    out3 = tmp_path / "c"
    assert main(["simulate_particles", "--config", ini, "--out", str(out3),
                 "--seed", "4"]) == 0
    assert (out1 / "cloud_final.csv").read_bytes() != (out3 / "cloud_final.csv").read_bytes()


def test_attraction_baseline_through_cli(tmp_path):
    ini = _write_ini(tmp_path / "a.ini", """
[run]
mode = attract_steady

[problem]
dimension = 3
m0 = 1.0

[attraction]
n_grid = 257
""")
    out = tmp_path / "out"
    assert main(["attract_steady", "--config", ini, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # w = 0 solves in one step on the ball of unit volume
    assert summary["iterations"] == 1
    assert summary["residual"] == 0.0
    assert summary["R_inf"] == pytest.approx((3 / (4 * math.pi)) ** (1 / 3), rel=1e-12)
    assert summary["smallness"]["passed"] is True
    k, res, radii = np.loadtxt(out / "iterations.csv", delimiter=",",
                               unpack=True, ndmin=2).reshape(3, -1)
    assert k[0] == 1.0 and res[0] == 0.0
    assert radii[0] == pytest.approx(summary["R_inf"], rel=1e-12)
