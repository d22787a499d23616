"""Experiment harness: config round trip, exit codes, artifacts, determinism."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repelflow.cli import (ExperimentConfig, config_from_ini, config_to_ini,
                           recipe, RECIPES, MODES, CHOICES, INI_LAYOUT,
                           RHO0_KINDS, RHO0_KEYS, main, _write_csv,
                           _CSV_BLOCK_ROWS)
from repelflow import Dimension, build_steady_state, quartic, verify_steady
from repelflow.diagnostics import DiagnosticSeries
from repelflow.lagrangian import CROSSING_POLICIES
from repelflow.errors import ConfigError


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
    assert verify_steady(st, quartic()).passed


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_BLOCK_ROWS + 1])
def test_csv_rows_match_the_per_value_format(tmp_path, n_rows):
    # block formatting writes the bytes "%.17g" gives value by value
    awkward = np.array([-0.0, 5e-324, 1e308, 0.1, 3.0, np.nan, -np.inf,
                        -1e-310, 2.0 ** 53, 1.0 / 3.0, 12345.0])
    columns = [np.resize(np.roll(awkward, k), n_rows) for k in range(3)]
    path = tmp_path / "rows.csv"
    _write_csv(path, ("a", "b", "c"), columns)
    rows = np.column_stack(columns)
    expect = "# a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
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


@pytest.mark.parametrize("line", ["n = 0", "n = -3", "rk_order = 3"])
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


@pytest.mark.parametrize("line, message", [
    ("dt_min = 0.5", "need 0 < dt_min <= dt_init <= dt_max"),
    ("dt_max = 0.001", "need 0 < dt_min <= dt_init <= dt_max"),
    ("rk_order = 3", "rk_order must be 2 or 4"),
], ids=["dt-min", "dt-max", "rk-order"])
def test_solver_rules_checked_before_any_artifact(tmp_path, capsys, line, message):
    # validate builds the run's EvolutionConfig, so its rules exit 2 before
    # config_used.ini and manifest.json are written
    ini = _write_ini(tmp_path / "s.ini", "[run]\nmode = simulate_radial\n\n"
                     f"[solver]\n{line}\n")
    out = tmp_path / "o"
    assert main(["simulate_radial", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "reason: invalid solver config" in err
    assert not out.exists()


@pytest.mark.parametrize("mode, line", [
    ("simulate_radial", "[solver]\nn_quantiles = 10"),
    ("attract_steady", "[attraction]\nn_grid = 1"),
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


@pytest.mark.parametrize("column", [1, 3])
def test_non_finite_potential_table_exits_2(tmp_path, capsys, column):
    r = np.linspace(0.0, 3.0, 16)
    table = np.column_stack([r, 0.5 * r * r, r, np.ones_like(r)])
    table[7, column] = np.nan
    np.savetxt(tmp_path / "table.csv", table, delimiter=",")
    ini = _write_ini(tmp_path / "in.ini", "[run]\nmode = steady\n\n[problem]\n"
                     f"dimension = 3\n\n[potential]\nkind = table\n"
                     f"table = {tmp_path / 'table.csv'}\n")
    assert main(["steady", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: potential table values must be finite" in err
    assert "reason: invalid potential table" in err


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
    "crossing_policy": st.sampled_from(CROSSING_POLICIES),
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
_VALUES = st.one_of(st.text(max_size=12), st.integers().map(str),
                    st.floats().map(str),
                    st.sampled_from([v for c in (*CHOICES.values(), CROSSING_POLICIES)
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
