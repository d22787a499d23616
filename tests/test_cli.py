"""Experiment harness: config round trip, exit codes, artifacts, determinism."""

import configparser
import contextlib
import gc
import importlib.metadata
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from repelflow.cli import (ExperimentConfig, config_from_ini, config_to_ini,
                           recipe, RECIPES, MODES, CHOICES, INI_LAYOUT,
                           RHO0_KINDS, RHO0_KEYS, main, _build_parser,
                           _ini_entries, _ini_value)
from repelflow._table import _CSV_BLOCK_ROWS, read_table, write_table
from repelflow import (AttractionPotential, Dimension, ParticleCloud,
                       build_steady_state, load_cloud, newtonian_radial_potential,
                       quartic, save_cloud, solve_attraction_steady, verify_steady)
from repelflow.diagnostics import RATE_QUANTITIES, DiagnosticSeries
from repelflow.errors import ConfigError, ResolutionWarning


def _write_ini(path, text):
    path.write_text(text)
    return str(path)


def _tables_read_back(out):
    """Every CSV the manifest lists reads back with its column line's width."""
    names = [name for name in json.loads((out / "manifest.json").read_text())["artifacts"]
             if name.endswith(".csv")]
    assert names
    for name in names:
        comments = [line for line in (out / name).read_text().splitlines()
                    if line.startswith("# ")]
        header = [line for line in comments if " = " not in line]
        _, rows = read_table(out / name, name, "invalid table")
        assert len(header) == 1 and comments[-1] == header[0]
        assert rows.shape[1] == len(header[0][2:].split(","))


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

    # d = 1: rho = V'' = 1 on [-1, 1] and N*rho + V = -R^2/2 on it
    ini = _write_ini(tmp_path / "line.ini", """
[run]
mode = steady

[problem]
dimension = 1
m0 = 2.0
""")
    out = tmp_path / "line"
    assert main(["steady", "--config", ini, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["R_inf"] == pytest.approx(1.0, abs=1e-8)
    assert summary["potential_plateau"] == pytest.approx(-0.5, abs=1e-8)
    x, rho, phi = np.loadtxt(out / "steady.csv", delimiter=",", unpack=True)
    assert x[0] == pytest.approx(-1.0, abs=1e-8)
    assert np.max(np.abs(rho - 1.0)) < 1e-6
    _tables_read_back(out)
    assert np.max(np.abs(phi - summary["potential_plateau"])) < 1e-6


@pytest.mark.parametrize("m0", [0.5, 1.0, 2.0, 5.0])
def test_line_quartic_steady_meets_the_mass_gate(tmp_path, m0):
    # d = 1 puts 2n cells on [-R, R], the spacing of n cells on [0, R] in
    # d >= 2; with n cells the curved profile missed the 1e-8 mass gate
    ini = _write_ini(tmp_path / "quartic.ini", f"""
[run]
mode = steady

[problem]
dimension = 1
m0 = {m0!r}

[potential]
kind = quartic
""")
    assert main(["steady", "--config", ini, "--out", str(tmp_path / "o")]) == 0
    st = build_steady_state(quartic(), Dimension(1), m0)
    # V'(R) = m0/2 at the edge
    assert verify_steady(st, quartic(), tol=1e-8 * max(1.0, m0 / 2)).passed


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_csv_rows_match_the_per_value_format(tmp_path, n_rows):
    # block formatting writes the bytes "%.17g" gives value by value, both
    # where a column's repeats are formatted once and where every value is
    awkward = np.array([-0.0, 5e-324, 1e308, 0.1, 3.0, np.nan, -np.inf,
                        -1e-310, 2.0 ** 53, 1.0 / 3.0, 12345.0])
    # values that compare equal or unordered but print apart
    signed = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324])
    columns = [np.resize(np.roll(awkward, k), n_rows) for k in range(3)]
    columns += [np.resize(signed, n_rows),
                np.random.default_rng(0).standard_normal(n_rows)]
    path = tmp_path / "rows.csv"
    write_table(path, ("a", "b", "c", "d", "e"), columns)
    rows = np.column_stack(columns)
    expect = "# a,b,c,d,e\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                   for row in rows)
    assert path.read_text() == expect


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


@pytest.mark.parametrize("text", [
    "[run]\nmode = steady\n\n[run]\nseed = 1\n",
    "mode = steady\n",
    "[run]\nmode = attract_steady\n\n[attraction]\nallow_unproven = maybe\n",
    "[run]\nmode = steady\nout = 50%\n",
], ids=["repeated-section", "no-section-header", "bad-boolean", "bad-interpolation"])
def test_ini_syntax_errors_exit_2(tmp_path, capsys, text):
    # a repeated section, a missing section header, a bad boolean and a
    # stray '%' are config errors, not configparser tracebacks
    ini = _write_ini(tmp_path / "bad.ini", text)
    rc = main(["steady", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: " in err
    assert "reason: invalid solver config" in err


@pytest.mark.parametrize("mode, text", [
    ("steady", "[run]\nmode = steady\ncolour = blue\n"),
    ("steady", "[run]\nmode = steady\n\n[bogus]\nx = 1\n"),
    ("steady", "[run]\nmode = steady\n\n[bogus]\n"),
    ("steady", "[DEFAULT]\nseed = 1\n\n[run]\nmode = steady\n"),
    ("simulate_particles",
     "[run]\nmode = simulate_particles\n\n[particles]\nmode = attracton\n"),
    ("validate", "[run]\nmode = validate\n\n[validate]\ncheck = both\n"),
    ("steady", "[run]\nmode = steady\n\n[solver]\ncrossing_policy = merj\n"),
    ("simulate_radial",
     "[run]\nmode = simulate_radial\n\n[solver]\ncrossing_policy = merj\n"),
], ids=["unknown-key", "unknown-section", "empty-unknown-section",
        "default-section", "particle-mode", "check", "crossing-policy-steady",
        "crossing-policy-radial"])
def test_unknown_names_exit_2(tmp_path, capsys, mode, text):
    # rejected while reading the config, before any artifact is written
    ini = _write_ini(tmp_path / "bad.ini", text)
    out = tmp_path / "o"
    assert main([mode, "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: unknown " in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


# the config that once lost 60 of its 64 quantiles to the merge policy: its
# dt_init of 0.5 makes RK stages cross, and each crossing halves dt
_CROSSING_RUN = """
[run]
mode = simulate_radial

[problem]
dimension = 2
m0 = 2.0

[potential]
kind = quartic
param = 4.0

[rho0]
kind = annulus
r_in = 0.3
r_out = 1.5

[rho0_alt]
kind = ball
radius = 1.0

[solver]
n_quantiles = 64
dt_init = 0.5
dt_max = 1.0
t_end = 3.0
"""


def test_the_retired_crossing_policy_key_replays_or_refuses(tmp_path, capsys):
    # every config_used.ini written while the merge policy existed holds
    # crossing_policy = reject_step in [solver]; it replays to the same bytes
    first = tmp_path / "first"
    ini = _write_ini(tmp_path / "in.ini", _CROSSING_RUN)
    assert main(["simulate_radial", "--config", ini, "--out", str(first)]) == 0
    summary = json.loads((first / "summary.json").read_text())
    assert summary["run"]["n_final"] == summary["run_alt"]["n_final"] == 64
    written = (first / "config_used.ini").read_text()
    assert "crossing_policy" not in written
    old = written.replace("\nsnapshot_stride = ",
                          "\ncrossing_policy = reject_step\nsnapshot_stride = ")
    assert "[solver]\nn_quantiles = 64\ndt_init = 0.5\ndt_min = 1e-09\ndt_max = 1.0\n" \
           "t_end = 3.0\nrk_order = 4\ncrossing_policy = reject_step\n" \
           "snapshot_stride = 10\n" in old
    second = tmp_path / "second"
    assert main(["simulate_radial", "--config", _write_ini(tmp_path / "old.ini", old),
                 "--out", str(second)]) == 0
    for name in ("series.csv", "series_alt.csv", "snapshots.csv", "snapshots_alt.csv",
                 "summary.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
    # the key is read, never written back
    assert (second / "config_used.ini").read_text() == written.replace(str(first),
                                                                      str(second))
    out = tmp_path / "merge"
    merge = _write_ini(tmp_path / "merge.ini", old.replace("= reject_step", "= merge"))
    assert main(["simulate_radial", "--config", merge, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: unknown crossing_policy 'merge': the merge policy was removed" in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["steady", "simulate_radial"])
def test_a_coarse_steady_grid_is_a_resolution_failure(tmp_path, capsys, mode):
    # on 10 cells the quartic steady profile misses its 1e-8 mass check; a
    # radial run used to drop its steady reference and exit 0 with
    # E_inf = R_inf = 0 in series.csv
    ini = _write_ini(tmp_path / "c.ini", f"[run]\nmode = {mode}\n\n"
                     "[potential]\nkind = quartic\n\n[solver]\nn_grid = 10\n")
    out = tmp_path / "o"
    assert main([mode, "--config", ini, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "relative on n = 10 cells" in err
    assert "reason: insufficient resolution" in err
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == \
        ["config_used.ini"]


@pytest.mark.parametrize("text, code, listed", [
    ("", 0, ["config_used.ini", "manifest.json", "steady.csv", "summary.json"]),
    ("[potential]\nkind = quartic\n\n[solver]\nn_grid = 10\n", 3, ["config_used.ini"]),
], ids=["success", "failure"])
def test_a_run_writes_its_manifest_once(tmp_path, monkeypatch, text, code, listed):
    from repelflow import cli
    written = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json",
                        lambda path, payload: written.append(path.name) or write_json(path, payload))
    ini = _write_ini(tmp_path / "s.ini", f"[run]\nmode = steady\n\n{text}")
    out = tmp_path / "o"
    assert main(["steady", "--config", ini, "--out", str(out)]) == code
    assert written.count("manifest.json") == 1
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == listed


def test_a_double_well_runs_without_a_steady_reference(tmp_path):
    # Lap V < 0 near the origin refuses the steady profile as a potential
    # fault, and the radial run goes on without its reference
    ini = _write_ini(tmp_path / "w.ini", """
[run]
mode = simulate_radial

[problem]
dimension = 1
m0 = 0.5

[potential]
kind = double-well

[rho0]
kind = interval
a = -1.3
b = -0.7

[solver]
n_quantiles = 32
t_end = 0.5
""")
    out = tmp_path / "o"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 0
    run = json.loads((out / "summary.json").read_text())["run"]
    assert "l1_to_steady" not in run and "support_bound" not in run
    series = DiagnosticSeries.from_csv(out / "series.csv")
    assert not np.any(series.l1_dist)


@pytest.mark.parametrize("potential, d, refusal", [
    ("double-well", 1, "Lap V must be positive away from the origin"),
    ("log-tail", 2, "V'(0) = 1 is not 0"),
    ("log-tail", 3, "V'(0) = 1 is not 0"),
])
@pytest.mark.parametrize("quantities", ["energy_gap", "support_gap", "l1",
                                        "energy_gap, l1"])
def test_a_rate_quantity_without_a_steady_reference_exits_2(tmp_path, capsys, potential,
                                                             d, refusal, quantities):
    # every rate quantity is measured against the steady reference; without
    # one, energy_gap fitted E itself and support_gap R, and l1 read 0
    ini = _write_ini(tmp_path / "q.ini", f"""
[run]
mode = simulate_radial

[problem]
dimension = {d}
m0 = 0.5

[potential]
kind = {potential}

[rho0]
{"kind = interval" if d == 1 else "kind = ball"}

[solver]
n_quantiles = 32
t_end = 0.5

[rates]
quantity = {quantities}
window_lo = 0.1
window_hi = 0.4
""")
    out = tmp_path / "o"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: [rates] quantity {quantities} is measured against the steady " \
           f"reference, which is refused: {refusal}" in err
    assert "reason: invalid potential" in err
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == \
        ["config_used.ini"]
    assert not list(out.glob("series*.csv"))


@pytest.mark.parametrize("d", [2, 3])
def test_a_log_tail_steady_is_refused_for_its_slope_at_the_origin(tmp_path, capsys, d):
    # log_tail has V'(0) = 1, so Lap V grows like (d-1)/r at the origin,
    # though the origin limit d V''(0) reads -d
    text = f"[problem]\ndimension = {d}\n\n[potential]\nkind = log-tail\n"
    ini = _write_ini(tmp_path / "s.ini", f"[run]\nmode = steady\n\n{text}")
    assert main(["steady", "--config", ini, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "error: V'(0) = 1 is not 0, so Lap V = V'' + (d-1) V'/r is unbounded " \
           "at the origin" in err
    assert "reason: invalid potential" in err
    # a radial run goes on without its steady reference
    ini = _write_ini(tmp_path / "r.ini", f"[run]\nmode = simulate_radial\n\n{text}\n"
                     "[solver]\nn_quantiles = 32\nt_end = 0.1\n")
    out = tmp_path / "r"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 0
    assert "l1_to_steady" not in json.loads((out / "summary.json").read_text())["run"]


@pytest.mark.parametrize("line", ["n = 0", "n = -3", "rk_order = 3", "safety = 0",
                                  "dt_max = 0", "dt_max = -0.1"])
def test_bad_particle_settings_exit_2(tmp_path, capsys, line):
    # checked before the output directory exists (n = 0 used to end in a
    # ZeroDivisionError traceback with exit 1)
    ini = _write_ini(tmp_path / "p.ini", "[run]\nmode = simulate_particles\n\n"
                     f"[particles]\n{line}\n")
    out = tmp_path / "o"
    assert main(["simulate_particles", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: [particles] " in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("[solver]\ndt_min = 0.5", "need 0 < dt_min <= dt_init <= dt_max"),
    ("[solver]\ndt_max = 0.001", "need 0 < dt_min <= dt_init <= dt_max"),
    ("[solver]\nrk_order = 3", "rk_order must be 2 or 4"),
    ("[solver]\nsnapshot_stride = 0", "snapshot_stride must be at least 1"),
    ("[validate]\nr0 = 0", "[validate] r0 must be positive"),
    ("[rates]\nquantity = l1, l1", "[rates] quantity must list distinct names"),
    ("[rates]\nquantity = entropy", "[rates] quantity must list distinct names"),
], ids=["dt-min", "dt-max", "rk-order", "stride", "r0", "repeated-quantity",
        "unknown-quantity"])
def test_solver_rules_checked_before_any_artifact(tmp_path, capsys, lines, message):
    # validate builds the run's EvolutionConfig, so its rules exit 2 before
    # config_used.ini and manifest.json are written; so do the settings a
    # solve would trip on (r0 = 0 ended in a traceback from the compact
    # check's radii, a repeated quantity was fitted and listed twice, an
    # unknown one was refused only after the radial run)
    ini = _write_ini(tmp_path / "s.ini", "[run]\nmode = simulate_radial\n\n"
                     f"{lines}\n")
    out = tmp_path / "o"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


@pytest.mark.parametrize("mode, line", [
    ("simulate_radial", "[solver]\nn_quantiles = 10"),
    ("steady", "[solver]\nn_grid = 0"),
    ("attract_steady", "[attraction]\nn_grid = 1"),
    ("attract_steady", "[attraction]\nn_grid = 2"),
    ("attract_steady", "[attraction]\nmax_iter = 0"),
])
def test_counts_below_the_solver_minimum_exit_2(tmp_path, capsys, mode, line):
    # the count the solver needs is checked before any artifact is written,
    # and the message names the setting (n_grid = 1 used to read "invalid density")
    ini = _write_ini(tmp_path / "c.ini", f"[run]\nmode = {mode}\n\n{line}\n")
    out = tmp_path / "o"
    assert main([mode, "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    section, key = line.split("\n")[0], line.split("\n")[1].split(" =")[0]
    assert f"error: {section} {key} must be at least " in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


@pytest.mark.parametrize("mode, lines, message", [
    ("attract_steady", "epsilon = 0.01\nsign = 2", "bump sign must be 1 or -1"),
    ("attract_steady", "epsilon = 0.01\nsign = 0", "bump sign must be 1 or -1"),
    ("attract_steady", "epsilon = 0.01\nwidth = 0", "bump width must be positive"),
    ("attract_steady", "tol = -1", "[attraction] tol must be positive"),
    ("simulate_particles", "epsilon = 0.01\nsign = -2", "bump sign must be 1 or -1"),
], ids=["sign-2", "sign-0", "width-0", "tol", "particles-sign"])
def test_bad_attraction_settings_exit_2(tmp_path, capsys, mode, lines, message):
    # the kernel is built with the other inputs, before the output directory:
    # sign = 2 used to record half of sup |Lap w|, width = 0 exited 3 and
    # tol = -1 exited 4 after max_iter iterations
    ini = _write_ini(tmp_path / "a.ini", f"[run]\nmode = {mode}\n\n"
                     "[particles]\nmode = attraction\n\n"
                     f"[attraction]\nallow_unproven = yes\n{lines}\n")
    out = tmp_path / "o"
    assert main([mode, "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


def test_attract_steady_reuses_the_solver_field(tmp_path, monkeypatch):
    # the run builds the solver's two kernel grids (Lap w and w) and no more,
    # and steady.csv phi is Phi_N plus the converged field at the density's grid
    from repelflow import attraction
    built = []
    lowrank = attraction._lowrank_kernel
    monkeypatch.setattr(attraction, "_lowrank_kernel",
                        lambda *args: built.append(args) or lowrank(*args))
    ini = _write_ini(tmp_path / "a.ini", "[run]\nmode = attract_steady\n\n"
                     "[attraction]\nepsilon = 0.01\nallow_unproven = yes\n"
                     "n_grid = 129\n")
    out = tmp_path / "o"
    with pytest.warns(ResolutionWarning):
        assert main(["attract_steady", "--config", ini, "--out", str(out)]) == 0
    d3 = Dimension(3)
    with pytest.warns(ResolutionWarning):
        st, fld = solve_attraction_steady(AttractionPotential.gaussian_bump(d3, 0.01),
                                          d3, 1.0, n_grid=129, allow_unproven=True)
    assert len(built) == 2 * 2
    _, rows = read_table(out / "steady.csv", "steady.csv", "invalid table")
    rho = st.density
    assert np.array_equal(rows[:, 0], rho.grid)
    assert np.array_equal(rows[:, 1], rho.values)
    assert np.array_equal(rows[:, 2],
                          newtonian_radial_potential(rho) + fld.V_tilde.value(rho.grid))


@pytest.mark.parametrize("text", ["runs/a #1", "runs/a ;1", "#runs", ";runs",
                                  " runs/a", "runs/a ", "runs/a\t#1"])
def test_strings_the_ini_file_cannot_carry_exit_2(tmp_path, monkeypatch,
                                                  capsys, text):
    # the reader would cut the value at the comment or strip its edges, so
    # config_used.ini would replay into another directory
    monkeypatch.chdir(tmp_path)
    ini = _write_ini(tmp_path / "s.ini", "[run]\nmode = steady\n")
    assert main(["steady", "--config", ini, "--out", text]) == 2
    err = capsys.readouterr().err
    assert f"error: [run] out = {text!r} cannot be written" in err
    assert "reason: invalid solver config" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ini"]
    with pytest.raises(ConfigError, match=r"\[rho0\] path"):
        ExperimentConfig(rho0={"kind": "cloud", "path": text}).validate()
    with pytest.raises(ConfigError, match=r"\[rates\] quantity"):
        ExperimentConfig(rate_quantities=("l1", text)).validate()


def test_hash_and_semicolon_inside_a_word_round_trip(tmp_path):
    cfg = ExperimentConfig(out="runs/a#1;b", potential_table="t;1.csv")
    config_to_ini(cfg, tmp_path / "c.ini")
    assert config_from_ini(tmp_path / "c.ini") == cfg


def _configparser_text(cfg):
    """The INI text ConfigParser.write gives for a config's sections."""
    cp = configparser.ConfigParser(interpolation=None)
    for section, values in _ini_entries(cfg):
        cp[section] = {key: _ini_value(value) for key, value in values.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("cfg", [
    *(recipe(name) for name in sorted(RECIPES)),
    ExperimentConfig(out="runs/50%_a%%b", potential_table="t%1.csv",
                     rate_quantities=("l1", "energy_gap"),
                     rho0={"kind": "cloud", "path": "c%.csv"}),
    ExperimentConfig(out="runs/a\nb"),
], ids=[*sorted(RECIPES), "percent", "line-break"])
def test_config_to_ini_writes_what_configparser_writes(tmp_path, cfg):
    path = tmp_path / "c.ini"
    config_to_ini(cfg, path)
    assert path.read_text() == _configparser_text(cfg)


def test_config_to_ini_leaves_no_cyclic_garbage(tmp_path):
    # a long benchmark run writes a config per pass; ConfigParser left 149
    # objects per write that only a full collection frees
    cfg = recipe("rates_d3")
    gc.collect()
    gc.disable()
    try:
        config_to_ini(cfg, tmp_path / "c.ini")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("mode, text", [
    ("steady", "[potential]\nkind = table\ntable = {missing}\n"),
    ("simulate_particles", "[rho0]\nkind = cloud\npath = {missing}\n"),
    ("simulate_particles", "[rho0]\nkind = cloud\n"),
], ids=["table", "cloud-path", "cloud-no-path"])
def test_missing_input_files_exit_2(tmp_path, capsys, mode, text):
    missing = tmp_path / "missing.csv"
    ini = _write_ini(tmp_path / "in.ini", f"[run]\nmode = {mode}\n\n"
                     + text.format(missing=missing))
    assert main([mode, "--config", ini, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    assert "reason: invalid solver config" in err
    # inputs are read before the output directory is made
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("column", [1, 3])
def test_non_finite_potential_table_exits_2(tmp_path, capsys, column):
    r = np.linspace(0.0, 3.0, 16)
    table = np.column_stack([r, 0.5 * r * r, r, np.ones_like(r)])
    table[7, column] = np.nan
    np.savetxt(tmp_path / "table.csv", table, delimiter=",")
    ini = _write_ini(tmp_path / "in.ini", "[run]\nmode = steady\n\n[problem]\n"
                     f"dimension = 3\n\n[potential]\nkind = table\n"
                     f"table = {tmp_path / 'table.csv'}\n")
    out = tmp_path / "o"
    out.mkdir()
    assert main(["steady", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: potential table values must be finite" in err
    assert "reason: invalid potential table" in err
    # the table is refused before config_used.ini or manifest.json is written
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rows, error", [
    ("0,0,0,1\n1,0.5,1,1\n2,2,2,1\n", "needs >= 4 strictly increasing radii"),
    ("0,0,0,1\n2,2,2,1\n1,0.5,1,1\n3,4.5,3,1\n",
     "needs >= 4 strictly increasing radii"),
    ("0,0,0,1\n", "needs >= 4 strictly increasing radii"),
    ("0,0,0\n1,0.5,1\n2,2,2\n3,4.5,3\n", "needs the 4 columns"),
    ("0,0,0,1\n1,half,1,1\n2,2,2,1\n3,4.5,3,1\n", "is not numeric CSV"),
], ids=["3-rows", "unordered", "1-row", "3-columns", "text"])
def test_refused_potential_table_writes_nothing(tmp_path, capsys, rows, error):
    (tmp_path / "table.csv").write_text(rows)
    ini = _write_ini(tmp_path / "in.ini", "[run]\nmode = simulate_radial\n\n"
                     f"[potential]\nkind = table\ntable = {tmp_path / 'table.csv'}\n")
    out = tmp_path / "o"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert error in err
    assert "reason: invalid potential table" in err
    assert not out.exists()


def _replays(tmp_path, mode, ini):
    # config_used.ini must carry everything the run read from its config
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([mode, "--config", ini, "--out", str(first)]) == 0
    assert main([mode, "--config", str(first / "config_used.ini"),
                 "--out", str(second)]) == 0
    assert (second / "summary.json").read_bytes() == \
        (first / "summary.json").read_bytes()


def test_attraction_grid_without_epsilon_replays(tmp_path):
    ini = _write_ini(tmp_path / "a.ini", """
[run]
mode = attract_steady

[attraction]
n_grid = 129
""")
    _replays(tmp_path, "attract_steady", ini)


def test_rates_series_without_quantity_replays(tmp_path):
    run_dir = _algebraic_series(tmp_path)
    ini = _write_ini(tmp_path / "r.ini", f"""
[run]
mode = rates

[rates]
series = {run_dir}
""")
    _replays(tmp_path, "rates", ini)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# '%' must survive the reader's interpolation
_PATHS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_./-% #;", min_size=1, max_size=24)
_BY_TYPE = {float: _FINITE, int: st.integers(-10**9, 10**9),
            bool: st.booleans(), str: _PATHS,
            tuple: st.lists(st.sampled_from(("energy_gap", "l1", "support_gap")),
                            max_size=3).map(tuple)}
_RHO0 = st.fixed_dictionaries(
    {"kind": st.sampled_from(RHO0_KINDS)},
    optional={key: _BY_TYPE[cast] for key, cast in RHO0_KEYS.items()
              if key != "kind"})
_FIELDS = st.builds(ExperimentConfig, **{
    **{f.name: _BY_TYPE[f.type] for f in fields(ExperimentConfig)
       if f.type in _BY_TYPE},
    **{name: st.sampled_from(choices) for name, choices in CHOICES.items()},
    "rk_order": st.sampled_from((2, 4)),
    "m0": st.floats(min_value=1e-300, allow_infinity=False),
    "n_quantiles": st.integers(16, 10**9),
    "attraction_n_grid": st.integers(2, 10**9),
    "n_particles": st.integers(1, 10**9),
    "particle_rk_order": st.sampled_from((2, 4)),
    "epsilon": st.none() | _FINITE,
    "gamma_target": st.none() | _FINITE,
    "rho0": st.just({}) | _RHO0,
    "rho0_alt": st.none() | _RHO0,
})
# 0 < dt_min <= dt_init <= dt_max, as the radial solver needs
_DT_ORDER = st.lists(st.floats(min_value=1e-300, allow_infinity=False),
                     min_size=3, max_size=3).map(sorted)
_CONFIGS = st.builds(
    lambda cfg, dts: replace(cfg, **dict(zip(("dt_min", "dt_init", "dt_max"), dts))),
    _FIELDS, _DT_ORDER)


@settings(max_examples=150)
@given(cfg=_CONFIGS)
def test_any_config_survives_the_ini_round_trip(tmp_path_factory, cfg):
    # a config either comes back equal or is refused by validate, as a run
    # refuses it before writing config_used.ini
    path = tmp_path_factory.getbasetemp() / "round_trip.ini"
    config_to_ini(cfg, path)
    try:
        back = config_from_ini(path)
    except ConfigError:
        back = None
    if back != cfg:
        with pytest.raises(ConfigError):
            cfg.validate()


_KEYS = {section: [entry if isinstance(entry, str) else entry[0]
                   for entry in entries] for section, entries in INI_LAYOUT}
# the retired key is still read, so the fuzz draws it and its old values too
_KEYS["solver"].append("crossing_policy")
_VALUES = st.one_of(st.text(max_size=12), st.integers().map(str),
                    st.floats().map(str),
                    st.sampled_from([v for c in (*CHOICES.values(), ("reject_step", "merge"))
                                     for v in c]))


@st.composite
def _ini_text(draw):
    """Sections of the layout (and a stray one) with known and odd keys."""
    lines = []
    for section in draw(st.lists(st.sampled_from([*_KEYS, "bogus", "DEFAULT"]),
                                 unique=True, max_size=5)):
        lines.append(f"[{section}]")
        keys = st.sampled_from(_KEYS.get(section, ["x"])) | st.text(max_size=6)
        for key in draw(st.lists(keys, unique=True, max_size=5)):
            lines.append(f"{key} = {draw(_VALUES)}")
    return "\n".join(lines)


@settings(max_examples=200)
@given(text=st.text() | _ini_text())
def test_fuzzed_ini_parses_or_is_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = config_from_ini(path)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def _readme_choices(item):
    """(key, names) of a README layout item that lists choices, else (key, None)."""
    key, rest = re.fullmatch(r"(\w+)\s*(.*)", item).groups()
    inner = re.fullmatch(r"= (.*)|\((.*)\)", rest)
    text = (inner[1] or inner[2]) if inner else ""
    if "|" in text:
        return key, set(re.split(r"\s*\|\s*", text))
    if "names:" in text:
        return key, set(re.split(r",\s*", text.split("names:")[1].strip()))
    return key, None


def test_readme_config_block_is_the_layout_of_the_code():
    # README's "Config format" block is the one copy of the INI layout
    # outside the code; its sections, keys and named choices are the code's
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    bodies = {}
    for line in block.splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section, line = head[1], line[head.end():]
        bodies[section] = f"{bodies.get(section, '')},{line}"
    keys, choices = {}, {}
    for section, body in bodies.items():
        body = bodies["rho0"] if "same keys" in body else body
        # items are split at the commas outside parentheses
        items = [item.strip() for item in re.split(r",(?![^(]*\))", body) if item.strip()]
        keys[section] = set()
        for item in items:
            key, names = _readme_choices(item)
            keys[section].add(key)
            if names and not all(re.fullmatch(r"-?\d+", name) for name in names):
                choices[section, key] = names
    assert list(keys) == [section for section, _ in INI_LAYOUT]
    for section, entries in INI_LAYOUT:
        assert keys[section] == {e if isinstance(e, str) else e[0] for e in entries}, section
    assert choices == {("potential", "kind"): set(CHOICES["potential_kind"]),
                       ("rho0", "kind"): set(RHO0_KINDS), ("rho0_alt", "kind"): set(RHO0_KINDS),
                       ("particles", "mode"): set(CHOICES["particle_mode"]),
                       ("rates", "quantity"): set(RATE_QUANTITIES),
                       ("validate", "check"): set(CHOICES["check"])}
    modes = text.split("\nModes: ", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`(\w+)`", modes) == list(CHOICES["mode"])


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
    assert not (tmp_path / "f").exists()


def test_a_radial_window_past_t_end_exits_2_before_the_solve(tmp_path, capsys):
    # the default window [1, 10] reaches past t_end = 0.5, which no solve can change
    text = RADIAL_INI.replace("t_end = 1.0", "t_end = 0.5") + "\n[rates]\nquantity = l1\n"
    out = tmp_path / "f"
    assert main(["simulate_radial", "--config", _write_ini(tmp_path / "w.ini", text),
                 "--out", str(out)]) == 2
    assert "reason: window error" in capsys.readouterr().err
    assert not out.exists()


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
    assert "reason: invalid solver config" in capsys.readouterr().err
    # the series is read before the output directory is made
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("column, row, value", [
    ("energy", 60, np.nan), ("l1_dist", 30, np.inf), ("times", 60, np.nan),
    ("times", 60, 5.9)], ids=["nan-E", "inf-l1", "nan-t", "repeated-t"])
def test_a_series_not_finite_or_not_increasing_exits_2(tmp_path, capsys, column, row, value):
    # a nan in E was fitted: exit 0 with gamma_hat = nan
    run_dir = _algebraic_series(tmp_path)
    series = DiagnosticSeries.from_csv(run_dir / "series.csv")
    getattr(series, column)[row] = value
    series.to_csv(run_dir / "series.csv")
    ini = _write_ini(tmp_path / "r.ini", f"""
[run]
mode = rates

[rates]
series = {run_dir}
window_lo = 1.0
window_hi = 10.0
""")
    out = tmp_path / "f"
    assert main(["rates", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: series" in err and "reason: invalid series" in err
    assert not out.exists()


def test_rates_takes_dimension_from_series_header(tmp_path):
    # no [problem] section: the d = 2 series must not be fitted as d = 3
    run_dir = tmp_path / "run"
    assert main(["simulate_radial", "--recipe", "rates_d2",
                 "--out", str(run_dir)]) == 0
    ini = _write_ini(tmp_path / "r.ini", f"""
[run]
mode = rates

[rates]
quantity = energy_gap, l1
series = {run_dir}
window_lo = 1.0
window_hi = 5.0
""")
    out = tmp_path / "fit"
    assert main(["rates", "--config", ini, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for q in ("energy_gap", "l1"):
        assert summary[f"rate_{q}"]["verdict"] == "n/a"


@pytest.mark.parametrize("d", ["''", "0", "False", "None"])
def test_a_bad_series_dimension_exits_2_before_the_output_directory(tmp_path, capsys, d):
    # the header's d was read twice: '' ended in a traceback, 0 and False
    # exited 2 only after --out existed, and None was fitted with no theory
    run_dir = _algebraic_series(tmp_path)
    path = run_dir / "series.csv"
    path.write_text(path.read_text().replace("# d = 3\n", f"# d = {d}\n"))
    ini = _write_ini(tmp_path / "r.ini", f"[run]\nmode = rates\n\n[rates]\nseries = {run_dir}\n")
    out = tmp_path / "f"
    assert main(["rates", "--config", ini, "--out", str(out)]) == 2
    assert "reason: invalid dimension" in capsys.readouterr().err
    assert not out.exists()


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


def test_a_config_file_is_closed_after_reading(tmp_path):
    # hashing the config file must close it
    ini = _write_ini(tmp_path / "r.ini", RADIAL_INI.replace("t_end = 1.0", "t_end = 0.1"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["simulate_radial", "--config", ini, "--out", str(tmp_path / "o")]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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
    _tables_read_back(out)


_STEADY_PROBE = """
import sys
from repelflow.cli import main
code = main(["steady", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_manifest_records_scipy_without_importing_it(tmp_path):
    ini = _write_ini(tmp_path / "s.ini", "[run]\nmode = steady\n")
    out = tmp_path / "out"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _STEADY_PROBE, ini, str(out)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.split() == ["0", "[]"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == importlib.metadata.version("scipy")


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
    _tables_read_back(out1)


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
    _tables_read_back(out)


def test_the_attraction_benchmark_checks_hold(tmp_path):
    # the output checks of the benchmark's attraction_fixed_point workload:
    # the recipe at n_grid 129 lands on the n_grid 1025 R_inf in as many
    # iterations (exit 0 means verify_steady passed at 1e-6 m0 R_inf), and
    # the w = 0 solve takes one iteration
    cfg = recipe("attraction_perturbed")
    cfg.attraction_n_grid = 129
    ini = tmp_path / "a.ini"
    config_to_ini(cfg, ini)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        assert main([cfg.mode, "--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["iterations"] == 4
    assert abs(summary["R_inf"] - 0.6199975248) <= 1e-8
    dim = Dimension(cfg.dimension)
    state, field = solve_attraction_steady(AttractionPotential(dim), dim, cfg.m0,
                                           n_grid=129)
    assert field.iteration == 1
    assert verify_steady(state, field.V_tilde, tol=1e-6 * cfg.m0 * state.R_inf).passed


@pytest.mark.parametrize("n_grid", [129, 257, 513, 1025, 2049])
def test_a_converged_eps_03_field_passes_the_refinement_check(tmp_path, n_grid):
    # Lap w * rho of the eps = 0.3 bump crosses zero; a check relative to
    # |out| at each radius failed n_grid 1025 there, and the Simpson error
    # estimate against max |out| passes every grid
    cfg = recipe("attraction_perturbed")
    cfg.epsilon, cfg.attraction_n_grid = 0.3, n_grid
    ini = tmp_path / "a.ini"
    config_to_ini(cfg, ini)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        assert main([cfg.mode, "--config", str(ini), "--out", str(tmp_path / "a")]) == 0


_CLOUD_ROWS = "0,0,0.5,0,0.25\n0,1,-0.5,0,0.25\n0,2,0,0.5,0.25\n0,3,0,-0.5,0.25\n"
_SERIES_ROWS = "0,2,1,1,1,1,1\n1,1.5,1,1,1,1,1\n"
_MALFORMED = {
    "cloud": ("# d = 2\n# delta_reg = 0.05\n# t,id,x1,x2,w\n", _CLOUD_ROWS,
              "0,1,-0.5,0,0.25", "simulate_particles",
              "[rho0]\nkind = cloud\npath = {path}\n\n[particles]\nt_end = 0.01\n"),
    "series": ("# d = 3\n# t,E,D,F,R,lyapunov,l1\n", _SERIES_ROWS,
               "1,1.5,1,1,1,1,1", "rates", "[rates]\nseries = {path}\n"),
}


def _input_table_run(tmp_path, kind, text):
    head, _, _, mode, section = _MALFORMED[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(text, newline="")
    ini = _write_ini(tmp_path / "in.ini", f"[run]\nmode = {mode}\n\n[problem]\n"
                     "dimension = 2\n\n" + section.format(path=path))
    out = tmp_path / "out"
    return main([mode, "--config", ini, "--out", str(out)]), out


@pytest.mark.parametrize("body", ["text", "ragged", "empty"])
@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_malformed_input_tables_exit_2(tmp_path, capsys, kind, body):
    head, rows, row, _, _ = _MALFORMED[kind]
    bad = {"text": row.replace("1", "one", 1), "ragged": row.rsplit(",", 1)[0],
           "empty": None}[body]
    text = head if bad is None else head + rows.replace(row, bad)
    rc, out = _input_table_run(tmp_path, kind, text)
    err = capsys.readouterr().err
    assert rc == 2
    assert "is not numeric CSV" in err and "error: " in err
    assert f"reason: invalid {kind}" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, params, reason", [
    ("cloud", "# d = 2\n# delta_reg = nan\n", "invalid cloud"),
    ("cloud", "# d = 2\n# delta_reg = inf\n", "invalid cloud"),
    ("cloud", "# d = 2\n# delta_reg = 'wide'\n", "invalid cloud"),
    ("cloud", "# delta_reg = 0.05\n", "invalid cloud"),
    ("cloud", "# d = 3\n# delta_reg = 0.05\n", "invalid cloud"),
    ("series", "# E_inf = 'low'\n", "invalid series"),
    ("series", "# R_inf = [1.0]\n", "invalid series"),
    ("series", "# d = 2.0\n", "invalid dimension"),
    ("series", "# d = 9\n", "invalid dimension"),
], ids=["nan-delta", "inf-delta", "text-delta", "no-d", "wrong-d", "text-E_inf",
        "list-R_inf", "float-d", "d-9"])
def test_input_files_with_bad_parameters_exit_2(tmp_path, capsys, kind, params, reason):
    rows = _CLOUD_ROWS if kind == "cloud" else _SERIES_ROWS
    rc, out = _input_table_run(tmp_path, kind, params + rows)
    assert rc == 2
    assert f"reason: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_cloud_with_a_non_finite_weight_exits_2(tmp_path, capsys):
    rows = _CLOUD_ROWS.replace("0,3,0,-0.5,0.25", "0,3,0,-0.5,nan")
    rc, out = _input_table_run(tmp_path, "cloud", "# d = 2\n# delta_reg = 0.05\n" + rows)
    assert rc == 2
    assert "reason: invalid cloud" in capsys.readouterr().err
    assert not out.exists()


def test_cloud_with_numpy_scalar_regularization_round_trips(tmp_path):
    rng = np.random.default_rng(5)
    cloud = ParticleCloud(positions=rng.normal(size=(16, 2)), weights=np.full(16, 0.25),
                          delta_reg=np.float64(0.05), dim=Dimension(2), time=1.5)
    path = tmp_path / "cloud.csv"
    save_cloud(cloud, path)
    assert path.read_text().startswith("# d = 2\n# delta_reg = 0.05\n# t,id,x1,x2,w\n")
    back = load_cloud(path)
    assert back.delta_reg == 0.05 and back.time == 1.5
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.weights, cloud.weights)
    rc, out = _input_table_run(tmp_path, "cloud", path.read_text())
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["delta_reg"] == 0.05


def test_tables_written_before_the_commented_column_line_still_read(tmp_path):
    # the earlier writers put the column names on an uncommented first row
    # and ended rows with '\r\n'
    rc, out = _input_table_run(tmp_path, "cloud", "# delta_reg = 0.05\n# d = 2\n"
                               "t,id,x1,x2,w\r\n" + _CLOUD_ROWS.replace("\n", "\r\n"))
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["n"] == 4
    t = np.linspace(0.0, 12.0, 121)
    gap = (1.0 + t) ** -2
    rows = "".join("%.17g,%.17g,0,0,1,%.17g,%.17g\r\n" % (a, 1.0 + g, 1.0 + g, g)
                   for a, g in zip(t, gap))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "series.csv").write_text("# E_inf = 1.0\n# R_inf = 1.0\n# d = 3\n"
                                        "t,E,D,F,R,lyapunov,l1\r\n" + rows, newline="")
    series = DiagnosticSeries.from_csv(run_dir / "series.csv")
    assert np.array_equal(series.times, t) and np.array_equal(series.l1_dist, gap)
    assert series.params == {"E_inf": 1.0, "R_inf": 1.0, "d": 3}
    ini = _write_ini(tmp_path / "r.ini", f"[run]\nmode = rates\n\n[rates]\n"
                     f"quantity = energy_gap, l1\nseries = {run_dir}\n")
    assert main(["rates", "--config", ini, "--out", str(tmp_path / "fit")]) == 0
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    for q in ("energy_gap", "l1"):
        assert summary[f"rate_{q}"]["gamma_hat"] == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("mode, text, reason", [
    ("steady", "[problem]\ndimension = 9\n", "invalid dimension"),
    ("simulate_radial", "[problem]\ndimension = 9\n", "invalid dimension"),
    ("validate", "[problem]\ndimension = 9\n", "invalid dimension"),
    ("simulate_radial", "[rho0]\nradius = -1\n", "invalid density"),
    ("simulate_radial", "[rho0]\nkind = interval\n", "invalid dimension"),
    ("simulate_radial", "[rho0]\nkind = cloud\npath = c.csv\n", "invalid solver config"),
    ("simulate_particles", "[rho0]\nkind = annulus\nr_in = 2\nr_out = 1\n",
     "invalid density"),
    ("simulate_particles", "[problem]\ndimension = 1\n", "invalid dimension"),
    ("simulate_particles", "[problem]\ndimension = 1\n\n[rho0]\nkind = interval\n",
     "invalid dimension"),
    ("attract_steady", "[problem]\ndimension = 1\n", "invalid dimension"),
    ("attract_steady", "[attraction]\nepsilon = 0.01\n", "smallness violated"),
    ("attract_steady", "[attraction]\nepsilon = 1\n", "smallness violated"),
    ("simulate_radial", "[problem]\nm0 = 1\n\n[rho0]\nvalue = 1e-320\n", "invalid density"),
    ("simulate_radial", "[potential]\nkind = double-well\nparam = 0\n", "invalid potential"),
], ids=["steady-d9", "radial-d9", "validate-d9", "radius", "interval-d3",
        "radial-cloud", "annulus", "particles-d1", "particles-d1-interval", "attract-d1",
        "smallness", "smallness-eps-1", "subnormal-mass", "double-well-0"])
def test_inputs_refused_before_the_output_directory(tmp_path, capsys, mode, text, reason):
    # every solver input is built before the output directory is made, so a
    # refused one leaves no config_used.ini or manifest.json behind
    ini = _write_ini(tmp_path / "in.ini", f"[run]\nmode = {mode}\n\n{text}")
    out = tmp_path / "o"
    assert main([mode, "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    assert f"reason: {reason}" in err
    assert not out.exists()


def test_a_cloud_restarts_only_in_its_own_dimension(tmp_path, capsys):
    ini = _write_ini(tmp_path / "p.ini", "[run]\nmode = simulate_particles\n\n"
                     "[problem]\ndimension = 2\nm0 = 1.0\n\n"
                     "[particles]\nn = 50\nt_end = 0.02\n")
    assert main(["simulate_particles", "--config", ini, "--out", str(tmp_path / "a")]) == 0
    final = tmp_path / "a" / "cloud_final.csv"
    restart = "[run]\nmode = simulate_particles\n\n[problem]\ndimension = {d}\n\n" \
              f"[rho0]\nkind = cloud\npath = {final}\n\n[particles]\nt_end = 0.02\n"
    out = tmp_path / "b"
    # the default dimension is 3
    ini = _write_ini(tmp_path / "r3.ini", restart.replace("dimension = {d}\n", ""))
    assert main(["simulate_particles", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "holds d = 2 particles, but [problem] dimension = 3" in err
    assert "reason: invalid cloud" in err
    assert not out.exists()
    ini = _write_ini(tmp_path / "r2.ini", restart.format(d=2))
    assert main(["simulate_particles", "--config", ini, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["d"] == 2
    assert "# t,id,x1,x2,w\n" in (out / "particles.csv").read_text()


# errors a solve can hit only once it runs; they exit 2 after the output
# directory records the attempt
_SOLVE_REASONS = {"tail too weak", "invalid potential", "pareto tail failed",
                  "compact support check failed", "window error"}
_SMALL = st.floats(-0.5, 2.5)
_SMALL_RHO0 = st.fixed_dictionaries(
    {"kind": st.sampled_from(RHO0_KINDS)},
    optional={**{key: _SMALL for key in ("value", "radius", "r_in", "r_out", "a", "b")},
              "path": st.sampled_from(("cloud2.csv", "cloud3.csv", "missing.csv"))})
_SMALL_RUNS = st.builds(
    ExperimentConfig,
    mode=st.sampled_from(MODES), seed=st.integers(0, 3),
    dimension=st.sampled_from((0, 1, 2, 2, 3, 3, 3, 9)),
    m0=st.sampled_from((0.5, 1.0, 4 * math.pi)) | st.floats(0.0, 2.5),
    potential_kind=st.sampled_from(CHOICES["potential_kind"]),
    potential_param=_SMALL, potential_table=st.just("missing.csv"),
    epsilon=st.none() | st.floats(-0.05, 0.05), bump_width=_SMALL,
    bump_sign=st.sampled_from((1, -1)), allow_unproven=st.booleans(),
    attraction_n_grid=st.integers(3, 33), attraction_tol=st.sampled_from((1e-9, 1e-3)),
    attraction_max_iter=st.integers(1, 6),
    rho0=st.just({}) | _SMALL_RHO0, rho0_alt=st.none() | _SMALL_RHO0,
    n_quantiles=st.integers(16, 40), t_end=st.floats(0.0, 0.2),
    snapshot_stride=st.integers(1, 3), steady_n_grid=st.integers(1, 128),
    n_particles=st.integers(1, 16), particle_t_end=st.floats(0.0, 0.05),
    particle_rk_order=st.sampled_from((2, 4)),
    particle_mode=st.sampled_from(CHOICES["particle_mode"]),
    rate_quantities=st.lists(st.sampled_from(("energy_gap", "l1", "support_gap")),
                             max_size=2, unique=True).map(tuple),
    window_lo=st.floats(0.0, 2.0), window_hi=st.floats(0.0, 12.0),
    series_path=st.sampled_from(("run", "missing.csv", "")), min_samples=st.integers(1, 30),
    check=st.sampled_from(CHOICES["check"]), c_v=_SMALL, r0=st.floats(0.1, 2.5))


@settings(max_examples=150)
@given(cfg=_SMALL_RUNS)
# found by random-seed fuzzing: a trial stage that overflows, which the step
# rejects; an overflowing harmonic mean in pchip; a t = 0 row of inf in
# series.csv, written by a run that exited 0. Found by hand: a support radius
# whose Lyapunov term overflows, which ended in an OverflowError traceback
@example(cfg=ExperimentConfig(
    mode="simulate_radial", dimension=1, m0=0.5, potential_param=0.0,
    rho0={"kind": "ball", "radius": 6.648785811546748e-27}, n_quantiles=16,
    t_end=0.125, snapshot_stride=1, steady_n_grid=1))
@example(cfg=ExperimentConfig(mode="attract_steady", dimension=2, m0=1e-310,
                              attraction_n_grid=3))
@example(cfg=ExperimentConfig(
    mode="simulate_radial", dimension=1, m0=0.5, potential_kind="double-well",
    potential_param=2.955215885458841e-107, t_end=0.0, n_quantiles=16, steady_n_grid=1))
@example(cfg=ExperimentConfig(mode="simulate_radial", potential_param=-1000.0,
                              n_quantiles=16, t_end=0.2))
def test_any_small_run_exits_with_a_documented_code(tmp_path_factory, cfg):
    # a whole run in process exits 0, 2, 3 or 4, never with a traceback; the
    # drawn input file names are looked up in one directory that holds a
    # d = 2 and a d = 3 cloud and a series run
    base = tmp_path_factory.getbasetemp() / "small_runs"
    if not base.exists():
        base.mkdir()
        for d in (2, 3):
            save_cloud(ParticleCloud(positions=np.eye(4, d), weights=np.full(4, 0.25),
                                     delta_reg=0.05, dim=Dimension(d)),
                       base / f"cloud{d}.csv")
        _algebraic_series(base)
    work = Path(tempfile.mkdtemp(dir=base))
    cfg = replace(cfg, rho0={k: str(base / v) if k == "path" else v
                             for k, v in cfg.rho0.items()},
                  potential_table=str(base / cfg.potential_table),
                  series_path=str(base / cfg.series_path) if cfg.series_path else "")
    ini = work / "in.ini"
    config_to_ini(cfg, ini)
    out = work / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        code = main([cfg.mode, "--config", str(ini), "--out", str(out)])
    lines = err.getvalue().splitlines()
    event(f"{cfg.mode} exits {code}")
    if code == 0:
        # the manifest lists every file the run wrote
        listed = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert sorted(listed) == sorted(p.name for p in out.iterdir())
        # and every series it wrote is one that rates accepts: finite
        for path in out.glob("series*.csv"):
            DiagnosticSeries.from_csv(path)
        return
    assert code in (2, 3, 4)
    assert [line[:7] for line in lines[-2:]] == ["error: ", "reason:"]
    if code == 2 and out.exists():
        # only a solve leaves an output directory behind a configuration error
        assert lines[-1][len("reason: "):] in _SOLVE_REASONS
