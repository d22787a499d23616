"""Config-driven experiment harness: one experiment per process.

The subcommand picks the run mode; an INI config (or a named recipe)
supplies the problem. Each run writes CSV artifacts plus a manifest
record into the output directory and exits 0 on success, 2 on
configuration errors, 3 on numerics failures, 4 on non-convergence.
Every failure prints a machine-readable "reason: ..." line on stderr.
"""

import argparse
import configparser
import functools
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .geometry import Dimension
from .potentials import (AttractionPotential, quadratic, quartic, log_tail,
                         double_well, zero_potential, table_potential,
                         check_pareto_tail, check_compact_support_tail)
from .density import (uniform_ball, annulus, line_interval, l1_distance,
                      newtonian_radial_potential)
from .steady import build_steady_state
from .lagrangian import (DT_MIN, MIN_QUANTILES, EvolutionConfig, _check_rk_order,
                         init_lagrangian, evolve, reconstruct_density)
from .diagnostics import (RATE_QUANTITIES, collect_series, fit_rate, DiagnosticSeries,
                          _check_window)
from .particles import (sample_radial, load_cloud, save_cloud, run_particles,
                        discrete_energy, cloud_support_radius, _cloud_header,
                        _cloud_columns)
from .attraction import MIN_GRID, solve_attraction_steady, _smallness_gate
from ._table import read_table, write_table
from .errors import SolverError, ConfigError, PotentialError


def _ini(section, default, key=None):
    """A field held in the INI file as [section] key; key defaults to the field name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    """Flat record of one experiment; every mode reads a subset.

    The fields are the INI layout in file order: each carries its section,
    and its key where that differs from the field name.  [rho0] and
    [rho0_alt] fill the dict field of the same name, with the keys RHO0_KEYS.
    """

    mode: str = _ini("run", "steady")
    out: str = _ini("run", "runs/out")
    seed: int = _ini("run", 0)
    dimension: int = _ini("problem", 3)
    m0: float = _ini("problem", 1.0)
    # confinement potential
    potential_kind: str = _ini("potential", "quadratic", "kind")
    potential_param: float = _ini("potential", 1.0, "param")
    potential_table: str = _ini("potential", "", "table")
    # attraction kernel (attract_steady, or particle attraction mode)
    epsilon: float = _ini("attraction", None)
    bump_width: float = _ini("attraction", 1.0, "width")
    bump_sign: int = _ini("attraction", 1, "sign")
    allow_unproven: bool = _ini("attraction", False)
    attraction_n_grid: int = _ini("attraction", 1025, "n_grid")
    attraction_tol: float = _ini("attraction", 1e-9, "tol")
    attraction_max_iter: int = _ini("attraction", 60, "max_iter")
    # initial datum
    rho0: dict = field(default_factory=dict, metadata={"section": "rho0"})
    rho0_alt: dict = _ini("rho0_alt", None)
    # quantile solver
    n_quantiles: int = _ini("solver", 512)
    dt_init: float = _ini("solver", 0.01)
    dt_min: float = _ini("solver", DT_MIN)
    dt_max: float = _ini("solver", 0.1)
    t_end: float = _ini("solver", 10.0)
    rk_order: int = _ini("solver", 4)
    snapshot_stride: int = _ini("solver", 10)
    steady_n_grid: int = _ini("solver", 8192, "n_grid")
    # particle solver
    n_particles: int = _ini("particles", 1000, "n")
    particle_t_end: float = _ini("particles", 5.0, "t_end")
    particle_dt_max: float = _ini("particles", 0.05, "dt_max")
    particle_safety: float = _ini("particles", 0.1, "safety")
    particle_rk_order: int = _ini("particles", 2, "rk_order")
    particle_mode: str = _ini("particles", "confinement", "mode")
    # rate fits
    rate_quantities: tuple = _ini("rates", (), "quantity")
    window_lo: float = _ini("rates", 1.0)
    window_hi: float = _ini("rates", 10.0)
    series_path: str = _ini("rates", "", "series")
    min_samples: int = _ini("rates", 20)
    gamma_target: float = _ini("rates", None)
    # validators
    check: str = _ini("validate", "pareto")
    c_v: float = _ini("validate", 1.0)
    r0: float = _ini("validate", 1.0)

    def evolution(self):
        """The [solver] section as the radial solver's EvolutionConfig."""
        return EvolutionConfig(dt_init=self.dt_init, dt_min=self.dt_min,
                               dt_max=self.dt_max, t_end=self.t_end,
                               rk_order=self.rk_order,
                               snapshot_stride=self.snapshot_stride)

    def validate(self):
        # EvolutionConfig holds the dt order, rk_order and snapshot_stride rules
        self.evolution()
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choices: {', '.join(choices)}",
                                  reason="invalid solver config")
        quantities = self.rate_quantities
        if len(set(quantities)) < len(quantities) or not set(quantities) <= set(RATE_QUANTITIES):
            raise ConfigError(f"[rates] quantity must list distinct names among "
                              f"{', '.join(RATE_QUANTITIES)}", reason="invalid solver config")
        for setting, value in (("[problem] m0", self.m0),
                               ("[attraction] tol", self.attraction_tol),
                               ("[particles] dt_max", self.particle_dt_max),
                               ("[particles] safety", self.particle_safety),
                               ("[validate] r0", self.r0)):
            if not value > 0.0:
                raise ConfigError(f"{setting} must be positive",
                                  reason="invalid solver config")
        for setting, count, least in (
                ("[solver] n_quantiles", self.n_quantiles, MIN_QUANTILES),
                ("[solver] n_grid", self.steady_n_grid, 1),
                ("[attraction] n_grid", self.attraction_n_grid, MIN_GRID),
                ("[attraction] max_iter", self.attraction_max_iter, 1),
                ("[particles] n", self.n_particles, 1)):
            if count < least:
                raise ConfigError(f"{setting} must be at least {least}",
                                  reason="invalid solver config")
        _check_rk_order(self.particle_rk_order, "[particles] rk_order")
        for spec in (self.rho0, self.rho0_alt):
            if spec and spec.get("kind", "ball") not in RHO0_KINDS:
                raise ConfigError(f"unknown rho0 kind {spec['kind']!r}",
                                  reason="invalid solver config")
        for section, values in _ini_entries(self):
            for key, value in values.items():
                for text in value if isinstance(value, tuple) else (value,):
                    if isinstance(text, str) and (text != text.strip()
                                                  or _INLINE_COMMENT.search(text)):
                        raise ConfigError(
                            f"[{section}] {key} = {text!r} cannot be written to "
                            "config_used.ini: a string may not start or end with "
                            "whitespace, start with '#' or ';', or hold ' #' or ' ;'",
                            reason="invalid solver config")


def _load_input(path, load):
    """load(path) for an input file the config names; a missing file is a config error."""
    try:
        return load(path)
    except OSError as err:
        raise ConfigError(f"input file {path!r} cannot be read: {err}",
                          reason="invalid solver config") from None


def _read_table(path):
    """The rows (r, V, V', V'') of a [potential] table file."""
    _, data = read_table(path, "potential table", "invalid potential table")
    if data.shape[1] != 4:
        raise ConfigError(f"potential table {path!r} needs the 4 columns "
                          "r, V, V', V''", reason="invalid potential table")
    return data


# [potential] kind -> the confinement potential of a config
_CONFINEMENTS = {
    "quadratic": lambda cfg: quadratic(cfg.potential_param),
    "quartic": lambda cfg: quartic(cfg.potential_param),
    "log-tail": lambda cfg: log_tail(cfg.potential_param),
    "double-well": lambda cfg: double_well(cfg.potential_param),
    "zero": lambda cfg: zero_potential(),
    "table": lambda cfg: table_potential(*_load_input(cfg.potential_table, _read_table).T),
}


def build_attraction(cfg, dim):
    """Attraction kernel; epsilon = 0 (or unset) means no perturbation."""
    if not cfg.epsilon:
        return AttractionPotential(dim)
    return AttractionPotential.gaussian_bump(dim, cfg.epsilon,
                                             width=cfg.bump_width,
                                             sign=cfg.bump_sign)


# [particles] mode -> the field a run moves under, as runner arguments: a
# confinement V or an attraction kernel W
_FIELDS = {"confinement": lambda cfg, dim: {"V": _CONFINEMENTS[cfg.potential_kind](cfg)},
           "attraction": lambda cfg, dim: {"W": build_attraction(cfg, dim)}}


# [rho0] kind -> (profile constructor, the keys it takes after the value with
# their defaults); a cloud is no profile, and only a particle run starts from one
_PROFILES = {"ball": (uniform_ball, {"radius": 1.0}),
             "annulus": (annulus, {"r_in": 1.0, "r_out": 2.0}),
             "interval": (line_interval, {"a": -1.0, "b": 0.0})}
RHO0_KINDS = (*_PROFILES, "cloud")
RHO0_KEYS = {"kind": str, "value": float,
             **{key: float for _, keys in _PROFILES.values() for key in keys}, "path": str}


def build_density(spec, dim, m0):
    """Initial radial profile from a rho0 spec, renormalized to m0."""
    kind = spec.get("kind", "ball")
    if kind not in _PROFILES:
        raise ConfigError(f"rho0 kind {kind!r} is not a radial profile",
                          reason="invalid solver config")
    make, keys = _PROFILES[kind]
    rho = make(dim, spec.get("value", 1.0), *(spec.get(k, v) for k, v in keys.items()))
    return rho.renormalized(m0)


# -- config file round trip --------------------------------------------------

def _parse(section, key, raw, cast):
    """One INI value through cast; bad and non-finite numbers are config errors."""
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid "
                          f"{cast.__name__}", reason="invalid solver config") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite",
                          reason="invalid solver config")
    return value


def boolean(raw):
    """An INI flag, spelled as configparser accepts it (yes/no, on/off, 1/0)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def comma_list(raw):
    """An INI list such as `energy_gap, l1`; blank items are dropped."""
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _sections():
    """section -> {key: (field, cast)} in file order, read off ExperimentConfig.

    A [rho0] or [rho0_alt] key is its own field of the section's dict.
    """
    casts = {bool: boolean, tuple: comma_list}
    table = {}
    for f in fields(ExperimentConfig):
        section = f.metadata["section"]
        if f.type is dict:
            table[section] = {key: (key, cast) for key, cast in RHO0_KEYS.items()}
        else:
            key = f.metadata["key"] or f.name
            table.setdefault(section, {})[key] = (f.name, casts.get(f.type, f.type))
    return table


_SECTIONS = _sections()
_SPEC_SECTIONS = {f.metadata["section"] for f in fields(ExperimentConfig) if f.type is dict}
# the layout as (section, entries): a key, or (key, field) where the two
# differ; a [rho0] section lists RHO0_KEYS
INI_LAYOUT = tuple(
    (section, RHO0_KEYS if section in _SPEC_SECTIONS else
     tuple(key if key == name else (key, name) for key, (name, _) in keys.items()))
    for section, keys in _SECTIONS.items())


# where the reader sees an inline comment: '#' or ';' at the start of a
# value or after whitespace
_INLINE_COMMENT = re.compile(r"(^|\s)[#;]")


def _ini_entries(cfg):
    """(section, {key: value}) for every section of the layout, in file order."""
    for section, keys in _SECTIONS.items():
        record = (getattr(cfg, section) or {}) if section in _SPEC_SECTIONS \
            else vars(cfg)
        yield section, {key: record.get(name) for key, (name, _) in keys.items()}


def _ini_value(value):
    """One field as INI text; None is the empty value, read back as the default."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        value = ",".join(value)
    # the reader interpolates, so a literal '%' is written as '%%'
    return str(value).replace("%", "%%")


def config_from_ini(path):
    # no DEFAULT section: its keys would leak into every other section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   default_section=None)
    try:
        found = cp.read(path, encoding="utf-8")
        # interpolate every value now, so a stray '%' fails here too
        items = {section: cp.items(section) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path!r} is not valid INI: {err}",
                          reason="invalid solver config") from None
    if not found:
        raise ConfigError(f"config file {path!r} not found or unreadable",
                          reason="invalid solver config")
    cfg = ExperimentConfig()
    for section, pairs in items.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; sections: "
                              f"{', '.join(_SECTIONS)}",
                              reason="invalid solver config")
        keys = _SECTIONS[section]
        values = {}
        for key, raw in pairs:
            if (section, key) == ("solver", "crossing_policy"):
                # retired with the merge policy; every config_used.ini written
                # before holds reject_step, the one rule left, so it still replays
                if raw.strip() not in ("", "reject_step"):
                    raise ConfigError(f"unknown crossing_policy {raw.strip()!r}: the "
                                      "merge policy was removed, and a quantile "
                                      "crossing always halves dt",
                                      reason="invalid solver config")
                continue
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]; keys: "
                                  f"{', '.join(keys)}",
                                  reason="invalid solver config")
            name, cast = keys[key]
            if raw.strip():
                values[name] = _parse(section, key, raw.strip(), cast)
        if section in _SPEC_SECTIONS:
            values = {section: values} if values else {}
        for name, value in values.items():
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def config_to_ini(cfg, path):
    """Write every field of the config; reading the file back replays the run.

    The text is what ``ConfigParser.write`` gives: per section a ``[section]``
    line, one ``key = value`` line per key and a blank line; a line break
    in a value continues it on an indented line.
    """
    with open(path, "w") as fh:
        for section, values in _ini_entries(cfg):
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                text = _ini_value(value).replace("\n", "\n\t")
                fh.write(f"{key} = {text}\n")
            fh.write("\n")


# -- recipes -----------------------------------------------------------------

def _recipe_uniqueness_two_starts():
    # ball vs annulus start, same mass: terminal profiles must coincide
    return ExperimentConfig(
        mode="simulate_radial", dimension=2, m0=2 * np.pi,
        potential_kind="quadratic", potential_param=1.0,
        rho0={"kind": "ball", "value": 1.5, "radius": 1.5},
        rho0_alt={"kind": "annulus", "value": 1.0, "r_in": 1.0, "r_out": 2.0},
        n_quantiles=512, dt_init=0.01, t_end=20.0)


def _recipe_rates(d):
    # snapshots every accepted step; the fit window ends at t = 5 because
    # quadratic confinement relaxes so fast the gap reaches machine noise
    # beyond that (the algebraic bound is one-sided, faster is fine)
    m0 = 2 * np.pi if d == 2 else 4 * np.pi
    return ExperimentConfig(
        mode="simulate_radial", dimension=d, m0=m0,
        potential_kind="quadratic", potential_param=1.0,
        rho0={"kind": "ball", "value": 1.5, "radius": 1.5},
        n_quantiles=512, dt_init=0.01, t_end=20.0, snapshot_stride=1,
        rate_quantities=("energy_gap", "l1"), window_lo=1.0, window_hi=5.0)


def _recipe_attraction_perturbed():
    # the 0.01 bump exceeds the provable smallness range in d = 3, so the
    # run opts in and relies on the recorded residual history instead
    return ExperimentConfig(
        mode="attract_steady", dimension=3, m0=1.0,
        epsilon=0.01, allow_unproven=True,
        attraction_n_grid=1025, attraction_tol=1e-9)


def _recipe_line_double_well():
    # m0/2 must stay below max V' = 2/(3 sqrt(3)) or mass spills over the
    # barrier and both starts merge into one symmetric split state
    return ExperimentConfig(
        mode="simulate_radial", dimension=1, m0=0.5,
        potential_kind="double-well", potential_param=1.0,
        rho0={"kind": "interval", "value": 1.0, "a": -1.3, "b": -0.7},
        rho0_alt={"kind": "interval", "value": 1.0, "a": 0.7, "b": 1.3},
        n_quantiles=64, dt_init=0.01, t_end=25.0)


def _recipe_compact_support_check():
    return ExperimentConfig(
        mode="validate", dimension=3, potential_kind="quadratic",
        potential_param=1.0, check="compact", c_v=1.0, r0=1.0)


RECIPES = {
    "uniqueness_two_starts": _recipe_uniqueness_two_starts,
    "rates_d2": lambda: _recipe_rates(2),
    "rates_d3": lambda: _recipe_rates(3),
    "attraction_perturbed": _recipe_attraction_perturbed,
    "line_double_well": _recipe_line_double_well,
    "compact_support_check": _recipe_compact_support_check,
}


def recipe(name):
    """Canonical config for a named reproduction scenario."""
    if name not in RECIPES:
        raise ConfigError(f"unknown recipe {name!r}; choices: "
                          f"{', '.join(sorted(RECIPES))}",
                          reason="invalid solver config")
    cfg = RECIPES[name]()
    cfg.out = f"runs/{name}"
    return cfg


# -- artifact writers --------------------------------------------------------

def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _snapshots_csv(path, header, blocks):
    """One table of per-snapshot column blocks, joined column by column."""
    write_table(path, header, [np.concatenate(c) for c in zip(*blocks)])


@functools.cache
def _versions():
    """Package versions for the manifest, looked up once per process.

    scipy's is read from scipy/version.py, where scipy.__version__ comes
    from. Importing scipy would load 23 modules that a radial or attraction
    run never uses; importlib.metadata would load 35.
    """
    import importlib.util
    import runpy
    from . import __version__
    scipy_dir = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    return {"repelflow": __version__, "numpy": np.__version__,
            "scipy": runpy.run_path(scipy_dir / "version.py")["version"],
            "python": sys.version.split()[0]}


def _manifest(out, cfg, config_sha, t0, artifacts):
    _write_json(out / "manifest.json",
                {"mode": cfg.mode, "config_sha256": config_sha,
                 "versions": _versions(),
                 "wall_time_s": time.perf_counter() - t0,
                 "artifacts": sorted(artifacts)})


# -- mode runners ------------------------------------------------------------

def _run_steady(cfg, out, dim, V):
    st = build_steady_state(V, dim, cfg.m0, n=cfg.steady_n_grid)
    r = st.density.grid
    phi = newtonian_radial_potential(st.density) + V.value(r)
    write_table(out / "steady.csv", ("r", "rho", "phi"), (r, st.density.values, phi))
    _write_json(out / "summary.json",
                {"mode": "steady", "d": dim.d, "m0": st.m0,
                 "R_inf": st.R_inf, "E_inf": st.E_inf,
                 "potential_plateau": st.potential_plateau})
    return ["steady.csv", "summary.json"]


def _rate_fits(cfg, series, dim, out, summary, suffix=""):
    artifacts = []
    for q in cfg.rate_quantities:
        fit = fit_rate(series, q, (cfg.window_lo, cfg.window_hi),
                       gamma_target=cfg.gamma_target, dim=dim,
                       min_samples=cfg.min_samples)
        name = f"rate_{q}{suffix}.txt"
        with open(out / name, "w") as fh:
            fh.write(fit.to_text())
        summary[f"rate_{q}{suffix}"] = {"gamma_hat": fit.gamma_hat,
                                        "r_squared": fit.r_squared,
                                        "verdict": fit.verdict,
                                        "super_algebraic": fit.super_algebraic}
        artifacts.append(name)
    return artifacts


def _run_simulate_radial(cfg, out, dim, V, starts):
    try:
        steady = build_steady_state(V, dim, cfg.m0, n=cfg.steady_n_grid)
    except PotentialError as err:
        # e.g. double-well: no unique reference profile, so the run goes on
        # without one unless a rate quantity needs it; a coarse n_grid
        # raises ResolutionError, which fails the run
        if cfg.rate_quantities:
            raise PotentialError(
                f"[rates] quantity {', '.join(cfg.rate_quantities)} is measured "
                f"against the steady reference, which is refused: {err}",
                reason=err.reason) from err
        steady = None
    evo = cfg.evolution()
    artifacts, summary = [], {"mode": "simulate_radial", "d": dim.d,
                              "m0": cfg.m0, "t_end": cfg.t_end}
    finals = []
    for suffix, state in starts:
        final, snaps = evolve(state, V, evo)
        finals.append(final)
        series = collect_series(snaps, V, steady=steady)
        series.to_csv(out / f"series{suffix}.csv")
        # each column joined straight from the states, with no per-state t
        # and i arrays: the writer's transient arrays set a run's peak memory
        sizes = [s.n for s in snaps]
        write_table(out / f"snapshots{suffix}.csv", ("t", "i", "m_i", "R_i", "rho_i"),
                    [np.repeat([s.time for s in snaps], sizes),
                     np.concatenate([np.arange(n, dtype=float) for n in sizes]),
                     *(np.concatenate([getattr(s, name) for s in snaps])
                       for name in ("cell_masses", "radii", "densities"))])
        artifacts += [f"series{suffix}.csv", f"snapshots{suffix}.csv"]
        run_info = {"n_final": final.n, "support": float(series.support[-1]),
                    "energy": float(series.energy[-1])}
        if steady is not None:
            run_info["l1_to_steady"] = float(series.l1_dist[-1])
            bound = 2.0 * max(float(series.support[0]), steady.R_inf)
            run_info["support_bound"] = bound
            run_info["support_bounded"] = bool(np.max(series.support) <= bound)
        summary[f"run{suffix}"] = run_info
        if cfg.rate_quantities:
            artifacts += _rate_fits(cfg, series, dim, out, summary, suffix)
    if len(finals) == 2:
        a = reconstruct_density(finals[0])
        b = reconstruct_density(finals[1])
        summary["l1_between_terminals"] = l1_distance(a, b)
    _write_json(out / "summary.json", summary)
    return artifacts + ["summary.json"]


def _run_simulate_particles(cfg, out, dim, cloud, V=None, W=None):
    final, snaps = run_particles(cloud, cfg.particle_t_end, V=V, W=W,
                                 dt_max=cfg.particle_dt_max,
                                 safety=cfg.particle_safety,
                                 rk_order=cfg.particle_rk_order,
                                 snapshot_stride=cfg.snapshot_stride)
    _snapshots_csv(out / "particles.csv", _cloud_header(dim.d), map(_cloud_columns, snaps))
    save_cloud(final, out / "cloud_final.csv")
    _write_json(out / "summary.json",
                {"mode": "simulate_particles", "d": dim.d,
                 "n": int(final.weights.size), "seed": cfg.seed,
                 "t_end": cfg.particle_t_end,
                 "support": cloud_support_radius(final),
                 "energy": discrete_energy(final, V=V, W=W),
                 "delta_reg": final.delta_reg})
    return ["particles.csv", "cloud_final.csv", "summary.json"]


def _run_attract_steady(cfg, out, dim, W, report):
    st, fld = solve_attraction_steady(W, dim, cfg.m0,
                                      tol=cfg.attraction_tol,
                                      max_iter=cfg.attraction_max_iter,
                                      n_grid=cfg.attraction_n_grid,
                                      allow_unproven=cfg.allow_unproven)
    rho = st.density
    # the field's knots begin with the density's grid, so this reads W * rho
    phi = newtonian_radial_potential(rho) + fld.V_tilde.value(rho.grid)
    write_table(out / "steady.csv", ("r", "rho", "phi"), (rho.grid, rho.values, phi))
    # radius_history is seeded with the start radius; row k pairs the
    # iteration-k residual with the radius that iteration produced
    ks = np.arange(1, len(fld.residual_history) + 1, dtype=float)
    write_table(out / "iterations.csv", ("k", "residual", "R_k"),
                (ks, fld.residual_history, fld.radius_history[1:]))
    _write_json(out / "summary.json",
                {"mode": "attract_steady", "d": dim.d, "m0": st.m0,
                 "R_inf": st.R_inf, "E_inf": st.E_inf,
                 "iterations": fld.iteration, "residual": fld.residual,
                 "epsilon": W.epsilon,
                 "allow_unproven": cfg.allow_unproven,
                 "smallness": {"passed": bool(report.passed),
                               "eps_star": report.eps_star,
                               "lhs1": report.lhs1, "rhs1": report.rhs1,
                               "lhs2": report.lhs2, "rhs2": report.rhs2}})
    return ["steady.csv", "iterations.csv", "summary.json"]


def _run_rates(cfg, out, dim, src, series):
    summary = {"mode": "rates", "series": str(src)}
    cfg = replace(cfg, rate_quantities=cfg.rate_quantities or ("energy_gap",))
    artifacts = _rate_fits(cfg, series, dim, out, summary)
    _write_json(out / "summary.json", summary)
    return artifacts + ["summary.json"]


# [validate] check -> (its report on a config, dimension and V; the report
# fields that validation.txt and summary.json record; the failure reason)
_CHECKS = {
    "pareto": (lambda cfg, dim, V: check_pareto_tail(V, dim),
               ("increasing", "growth_ratio", "mass_reach"), "pareto tail failed"),
    "compact": (lambda cfg, dim, V: check_compact_support_tail(V, dim, cfg.c_v, cfg.r0),
                ("slope_ok", "laplacian_nonneg", "laplacian_sup"),
                "compact support check failed"),
}


def _run_validate(cfg, out, dim, V):
    report, names, fail_reason = _CHECKS[cfg.check]
    rep = report(cfg, dim, V)
    recorded = {name: getattr(rep, name) for name in names}
    lines = [f"check = {cfg.check}", f"potential = {V.name}",
             f"passed = {bool(rep.passed)}"]
    lines += [f"{k} = {v}" for k, v in recorded.items()]
    lines.append(f"note = {rep.note}")
    with open(out / "validation.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json(out / "summary.json",
                {"mode": "validate", "check": cfg.check,
                 "passed": bool(rep.passed), "note": rep.note, **recorded})
    if not rep.passed:
        raise PotentialError(rep.note, reason=fail_reason)
    return ["validation.txt", "summary.json"]


_RUNNERS = {"steady": _run_steady,
            "simulate_radial": _run_simulate_radial,
            "simulate_particles": _run_simulate_particles,
            "attract_steady": _run_attract_steady,
            "rates": _run_rates,
            "validate": _run_validate}
MODES = tuple(_RUNNERS)

CHOICES = {"mode": MODES, "potential_kind": tuple(_CONFINEMENTS),
           "particle_mode": tuple(_FIELDS),
           "check": tuple(_CHECKS)}


def _initial_cloud(cfg, dim, V):
    """The particle run's start: the [rho0] cloud file, or a seeded sample."""
    if cfg.rho0.get("kind") == "cloud":
        path = cfg.rho0.get("path", "")
        cloud = _load_input(path, load_cloud)
        if cloud.dim != dim:
            raise ConfigError(f"cloud file {path!r} holds d = {cloud.dim.d} particles, but "
                              f"[problem] dimension = {dim.d}", reason="invalid cloud")
        # a loaded cloud is an initial condition: its clock restarts at zero
        return replace(cloud, time=0.0)
    rho0 = build_density(cfg.rho0, dim, cfg.m0)
    # regularization scale: Lap V on the support (0 with no positive knot)
    # for confinement, the pre-collapse scale m0 for attraction
    rho_ref = cfg.m0 if V is None else float(
        np.max(V.laplacian(rho0.grid[rho0.grid > 0], dim), initial=0.0))
    return sample_radial(rho0, cfg.n_particles, np.random.default_rng(cfg.seed),
                         rho_ref=rho_ref)


def _read_inputs(cfg):
    """Runner arguments: every library object the run needs.

    They are built and checked before anything is written, so a refused
    input leaves the output directory as it was.
    """
    if cfg.mode == "rates":
        src = Path(cfg.series_path or cfg.out)
        src = src / "series.csv" if src.is_dir() else src
        series = _load_input(src, DiagnosticSeries.from_csv)
        # the series records the dimension it was run in; the config's is a fallback
        dim = Dimension(series.params.get("d", cfg.dimension))
        _check_window((cfg.window_lo, cfg.window_hi), series.times[0], series.times[-1])
        return {"dim": dim, "src": src, "series": series}
    dim = Dimension(cfg.dimension)
    # every other mode runs under a confinement V or an attraction kernel W
    field = {"attract_steady": "attraction",
             "simulate_particles": cfg.particle_mode}.get(cfg.mode, "confinement")
    inputs = {"dim": dim, **_FIELDS[field](cfg, dim)}
    if cfg.mode == "simulate_radial":
        if cfg.rate_quantities:
            _check_window((cfg.window_lo, cfg.window_hi), 0.0, cfg.t_end)
        specs = [("", cfg.rho0)] + ([("_alt", cfg.rho0_alt)] if cfg.rho0_alt else [])
        inputs["starts"] = [
            (suffix, init_lagrangian(build_density(spec, dim, cfg.m0), cfg.n_quantiles,
                                     dim, dt_init=cfg.dt_init))
            for suffix, spec in specs]
    elif cfg.mode == "simulate_particles":
        inputs["cloud"] = _initial_cloud(cfg, dim, inputs.get("V"))
    elif cfg.mode == "attract_steady":
        inputs["report"] = _smallness_gate(inputs["W"], dim, cfg.allow_unproven)
    return inputs


def run(cfg, config_sha=None):
    """Execute one experiment; returns 0 and leaves artifacts in cfg.out."""
    cfg.validate()
    t0 = time.perf_counter()
    inputs = _read_inputs(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    config_to_ini(cfg, out / "config_used.ini")
    if config_sha is None:
        config_sha = hashlib.sha256(
            (out / "config_used.ini").read_bytes()).hexdigest()
    artifacts = ["config_used.ini"]
    try:
        artifacts += _RUNNERS[cfg.mode](cfg, out, **inputs) + ["manifest.json"]
    finally:
        # the manifest records the attempt even when the runner raises
        _manifest(out, cfg, config_sha, t0, artifacts)
    return 0


# -- entry point -------------------------------------------------------------

@functools.cache
def _build_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="repelflow",
        description="Steady states, relaxation dynamics, and rate fits "
                    "for radially confined interacting densities.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--recipe", type=str, default=None,
                       choices=sorted(RECIPES))
        p.add_argument("--seed", type=int, default=None)
    return parser


def _resolve_config(args):
    if args.config and args.recipe:
        raise ConfigError("give either --config or --recipe, not both",
                          reason="invalid solver config")
    if args.config:
        cfg = config_from_ini(args.config)
        sha = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    elif args.recipe:
        cfg = recipe(args.recipe)
        sha = None
    else:
        raise ConfigError("a --config file or --recipe name is required",
                          reason="invalid solver config")
    if cfg.mode != args.mode:
        raise ConfigError(f"subcommand {args.mode!r} does not match the "
                          f"configured mode {cfg.mode!r}",
                          reason="invalid solver config")
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg, sha


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg, sha = _resolve_config(args)
        return run(cfg, config_sha=sha)
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"reason: {err.reason}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
