"""Config-driven experiment harness: one experiment per process.

The subcommand picks the run mode; an INI config (or a named recipe)
supplies the problem. Each run writes CSV artifacts plus a manifest
record into the output directory and exits 0 on success, 2 on
configuration errors, 3 on numerics failures, 4 on non-convergence.
Every failure prints a machine-readable "reason: ..." line on stderr.
"""

import argparse
import configparser
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import Dimension
from .potentials import (RadialPotential, AttractionPotential, quadratic,
                         quartic, log_tail, double_well, zero_potential,
                         table_potential, check_pareto_tail,
                         check_compact_support_tail)
from .density import (uniform_ball, annulus, line_interval, l1_distance,
                      newtonian_radial_potential)
from .steady import build_steady_state
from .lagrangian import (CROSSING_POLICIES, MIN_QUANTILES, EvolutionConfig,
                         init_lagrangian, evolve, reconstruct_density,
                         support_radius)
from .diagnostics import collect_series, fit_rate, DiagnosticSeries, l1_to_steady
from .particles import (sample_radial, load_cloud, save_cloud, run_particles,
                        discrete_energy, cloud_support_radius)
from .attraction import (MIN_GRID, solve_attraction_steady, attraction_energy,
                         check_smallness, spherical_mean_convolve)
from .errors import SolverError, ConfigError, PotentialError

MODES = ("steady", "simulate_radial", "simulate_particles",
         "attract_steady", "rates", "validate")

POTENTIAL_KINDS = ("quadratic", "quartic", "log-tail", "double-well",
                   "zero", "table")

RHO0_KINDS = ("ball", "annulus", "interval", "cloud")

CHOICES = {"mode": MODES, "potential_kind": POTENTIAL_KINDS,
           "crossing_policy": CROSSING_POLICIES,
           "particle_mode": ("confinement", "attraction"),
           "check": ("pareto", "compact")}


@dataclass
class ExperimentConfig:
    """Flat record of one experiment; every mode reads a subset."""

    mode: str = "steady"
    out: str = "runs/out"
    seed: int = 0
    dimension: int = 3
    m0: float = 1.0
    # confinement potential
    potential_kind: str = "quadratic"
    potential_param: float = 1.0
    potential_table: str = ""
    # attraction kernel (attract_steady, or particle attraction mode)
    epsilon: float = None
    bump_width: float = 1.0
    bump_sign: int = 1
    allow_unproven: bool = False
    attraction_n_grid: int = 1025
    attraction_tol: float = 1e-9
    attraction_max_iter: int = 60
    # initial datum
    rho0: dict = field(default_factory=dict)
    rho0_alt: dict = None
    # quantile solver
    n_quantiles: int = 512
    dt_init: float = 0.01
    dt_min: float = 1e-9
    dt_max: float = 0.1
    t_end: float = 10.0
    rk_order: int = 4
    crossing_policy: str = "reject_step"
    snapshot_stride: int = 10
    steady_n_grid: int = 8192
    # particle solver
    n_particles: int = 1000
    particle_t_end: float = 5.0
    particle_dt_max: float = 0.05
    particle_safety: float = 0.1
    particle_rk_order: int = 2
    particle_mode: str = "confinement"
    # rate fits
    rate_quantities: tuple = ()
    window_lo: float = 1.0
    window_hi: float = 10.0
    series_path: str = ""
    min_samples: int = 20
    gamma_target: float = None
    # validators
    check: str = "pareto"
    c_v: float = 1.0
    r0: float = 1.0

    def validate(self):
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choices: {', '.join(choices)}",
                                  reason="invalid solver config")
        if self.m0 <= 0.0:
            raise ConfigError("m0 must be positive",
                              reason="invalid solver config")
        for setting, count, least in (
                ("[solver] n_quantiles", self.n_quantiles, MIN_QUANTILES),
                ("[attraction] n_grid", self.attraction_n_grid, MIN_GRID),
                ("[particles] n", self.n_particles, 1)):
            if count < least:
                raise ConfigError(f"{setting} must be at least {least}",
                                  reason="invalid solver config")
        if self.particle_rk_order not in (2, 4):
            raise ConfigError("[particles] rk_order must be 2 or 4",
                              reason="invalid solver config")
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


def build_confinement(cfg):
    """Confinement potential from the config's [potential] spec."""
    kind, p = cfg.potential_kind, cfg.potential_param
    if kind == "table":
        data = _load_input(cfg.potential_table, lambda path: np.loadtxt(
            path, delimiter=",", comments="#"))
        return table_potential(data[:, 0], data[:, 1], data[:, 2], data[:, 3])
    if kind == "zero":
        return zero_potential()
    factory = {"quadratic": quadratic, "quartic": quartic,
               "log-tail": log_tail, "double-well": double_well}[kind]
    return factory(p)


def build_attraction(cfg, dim):
    """Attraction kernel; epsilon = 0 (or unset) means no perturbation."""
    if not cfg.epsilon:
        return AttractionPotential(dim)
    return AttractionPotential.gaussian_bump(dim, cfg.epsilon,
                                             width=cfg.bump_width,
                                             sign=cfg.bump_sign)


def build_density(spec, dim, m0):
    """Initial radial profile from a rho0 spec, renormalized to m0."""
    kind = spec.get("kind", "ball")
    value = spec.get("value", 1.0)
    if kind == "ball":
        rho = uniform_ball(dim, value, spec.get("radius", 1.0))
    elif kind == "annulus":
        rho = annulus(dim, value, spec.get("r_in", 1.0), spec.get("r_out", 2.0))
    elif kind == "interval":
        rho = line_interval(dim, value, spec.get("a", -1.0), spec.get("b", 0.0))
    else:
        raise ConfigError(f"rho0 kind {kind!r} is not a radial profile",
                          reason="invalid solver config")
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


# The INI layout in file order: each section lists its keys, and an entry
# (key, field) names the ExperimentConfig field where the two differ.
# [rho0] and [rho0_alt] fill the dict field of the same name instead.
RHO0_KEYS = {"kind": str, "value": float, "radius": float, "r_in": float,
             "r_out": float, "a": float, "b": float, "path": str}

INI_LAYOUT = (
    ("run", ("mode", "out", "seed")),
    ("problem", ("dimension", "m0")),
    ("potential", (("kind", "potential_kind"), ("param", "potential_param"),
                   ("table", "potential_table"))),
    ("attraction", ("epsilon", ("width", "bump_width"), ("sign", "bump_sign"),
                    "allow_unproven", ("n_grid", "attraction_n_grid"),
                    ("tol", "attraction_tol"),
                    ("max_iter", "attraction_max_iter"))),
    ("rho0", RHO0_KEYS),
    ("rho0_alt", RHO0_KEYS),
    ("solver", ("n_quantiles", "dt_init", "dt_min", "dt_max", "t_end",
                "rk_order", "crossing_policy", "snapshot_stride",
                ("n_grid", "steady_n_grid"))),
    ("particles", (("n", "n_particles"), ("t_end", "particle_t_end"),
                   ("dt_max", "particle_dt_max"),
                   ("safety", "particle_safety"),
                   ("rk_order", "particle_rk_order"),
                   ("mode", "particle_mode"))),
    ("rates", (("quantity", "rate_quantities"), "window_lo", "window_hi",
               ("series", "series_path"), "min_samples", "gamma_target")),
    ("validate", ("check", "c_v", "r0")),
)


def _sections():
    """section -> {key: (field, cast)}; a [rho0] key is its own field."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    casts = {bool: boolean, tuple: comma_list}
    table = {}
    for section, entries in INI_LAYOUT:
        if isinstance(entries, dict):
            table[section] = {key: (key, cast) for key, cast in entries.items()}
        else:
            pairs = [(e, e) if isinstance(e, str) else e for e in entries]
            table[section] = {key: (name, casts.get(types[name], types[name]))
                              for key, name in pairs}
    return table


_SECTIONS = _sections()
_SPEC_SECTIONS = {section for section, entries in INI_LAYOUT
                  if isinstance(entries, dict)}


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
    """Write every field of the config; reading the file back replays the run."""
    cp = configparser.ConfigParser(interpolation=None)
    for section, values in _ini_entries(cfg):
        cp[section] = {key: _ini_value(value) for key, value in values.items()}
    with open(path, "w") as fh:
        cp.write(fh)


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

# rows formatted per write: one '%' per block keeps the text of a whole
# file out of memory
_CSV_BLOCK_ROWS = 4096


def _write_csv(path, header, columns):
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + ",".join(header) + "\n")
        for lo in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[lo:lo + _CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _steady_csv(path, density, phi):
    _write_csv(path, ("r", "rho", "phi"), (density.grid, density.values, phi))


def _snapshots_csv(path, snapshots):
    t, idx, m, R, p = [], [], [], [], []
    for s in snapshots:
        t.append(np.full(s.n, s.time))
        idx.append(np.arange(s.n, dtype=float))
        m.append(s.cell_masses)
        R.append(s.radii)
        p.append(s.densities)
    _write_csv(path, ("t", "i", "m_i", "R_i", "rho_i"),
               tuple(np.concatenate(c) for c in (t, idx, m, R, p)))


def _particles_csv(path, snapshots):
    d = snapshots[0].dim.d
    header = ("t", "id") + tuple(f"x{k + 1}" for k in range(d)) + ("w",)
    cols = [[] for _ in header]
    for cl in snapshots:
        n = cl.weights.size
        cols[0].append(np.full(n, cl.time))
        cols[1].append(np.arange(n, dtype=float))
        for k in range(d):
            cols[2 + k].append(cl.positions[:, k])
        cols[-1].append(cl.weights)
    _write_csv(path, header, tuple(np.concatenate(c) for c in cols))


def _manifest(out, cfg, config_sha, t0, artifacts):
    import scipy
    from . import __version__
    versions = {"repelflow": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0]}
    _write_json(out / "manifest.json",
                {"mode": cfg.mode, "config_sha256": config_sha,
                 "versions": versions,
                 "wall_time_s": time.perf_counter() - t0,
                 "artifacts": sorted(artifacts)})


# -- mode runners ------------------------------------------------------------

def _run_steady(cfg, out):
    dim = Dimension(cfg.dimension)
    V = build_confinement(cfg)
    st = build_steady_state(V, dim, cfg.m0, n=cfg.steady_n_grid)
    phi = newtonian_radial_potential(st.density) + V.value(st.density.grid)
    _steady_csv(out / "steady.csv", st.density, phi)
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


def _run_simulate_radial(cfg, out):
    dim = Dimension(cfg.dimension)
    V = build_confinement(cfg)
    try:
        steady = build_steady_state(V, dim, cfg.m0, n=cfg.steady_n_grid)
    except PotentialError:
        steady = None  # e.g. double-well: no unique reference profile
    evo = EvolutionConfig(dt_init=cfg.dt_init, dt_min=cfg.dt_min,
                          dt_max=cfg.dt_max, t_end=cfg.t_end,
                          rk_order=cfg.rk_order,
                          crossing_policy=cfg.crossing_policy,
                          snapshot_stride=cfg.snapshot_stride)
    artifacts, summary = [], {"mode": "simulate_radial", "d": dim.d,
                              "m0": cfg.m0, "t_end": cfg.t_end}
    finals = []
    runs = [("", cfg.rho0)]
    if cfg.rho0_alt:
        runs.append(("_alt", cfg.rho0_alt))
    for suffix, spec in runs:
        rho0 = build_density(spec, dim, cfg.m0)
        state = init_lagrangian(rho0, cfg.n_quantiles, dim,
                                dt_init=cfg.dt_init)
        final, snaps = evolve(state, V, evo)
        finals.append(final)
        series = collect_series(snaps, V, steady=steady)
        series.to_csv(out / f"series{suffix}.csv")
        _snapshots_csv(out / f"snapshots{suffix}.csv", snaps)
        artifacts += [f"series{suffix}.csv", f"snapshots{suffix}.csv"]
        run_info = {"n_final": final.n, "support": support_radius(final),
                    "energy": float(series.energy[-1])}
        if steady is not None:
            run_info["l1_to_steady"] = l1_to_steady(final, steady)
            bound = 2.0 * max(support_radius(snaps[0]), steady.R_inf)
            run_info["support_bound"] = bound
            run_info["support_bounded"] = bool(
                max(support_radius(s) for s in snaps) <= bound)
        summary[f"run{suffix}"] = run_info
        if cfg.rate_quantities:
            artifacts += _rate_fits(cfg, series, dim, out, summary, suffix)
    if len(finals) == 2:
        a = reconstruct_density(finals[0])
        b = reconstruct_density(finals[1])
        summary["l1_between_terminals"] = l1_distance(a, b)
    _write_json(out / "summary.json", summary)
    return artifacts + ["summary.json"]


def _run_simulate_particles(cfg, out):
    dim = Dimension(cfg.dimension)
    rng = np.random.default_rng(cfg.seed)
    V = W = None
    if cfg.particle_mode == "attraction":
        W = build_attraction(cfg, dim)
    else:
        V = build_confinement(cfg)
    if cfg.rho0.get("kind") == "cloud":
        # a loaded cloud is an initial condition: its clock restarts at zero
        cloud = replace(_load_input(cfg.rho0.get("path", ""), load_cloud),
                        time=0.0)
    else:
        rho0 = build_density(cfg.rho0, dim, cfg.m0)
        # regularization scale set by the terminal density: Lap V on the
        # support for confinement, the pre-collapse scale m0 for attraction
        if V is not None:
            rho_ref = float(np.max(V.laplacian(rho0.grid[rho0.grid > 0], dim)))
        else:
            rho_ref = cfg.m0
        cloud = sample_radial(rho0, cfg.n_particles, rng, rho_ref=rho_ref)
    final, snaps = run_particles(cloud, cfg.particle_t_end, V=V, W=W,
                                 dt_max=cfg.particle_dt_max,
                                 safety=cfg.particle_safety,
                                 rk_order=cfg.particle_rk_order,
                                 snapshot_stride=cfg.snapshot_stride)
    _particles_csv(out / "particles.csv", snaps)
    save_cloud(final, out / "cloud_final.csv")
    _write_json(out / "summary.json",
                {"mode": "simulate_particles", "d": dim.d,
                 "n": int(final.weights.size), "seed": cfg.seed,
                 "t_end": cfg.particle_t_end,
                 "support": cloud_support_radius(final),
                 "energy": discrete_energy(final, V=V, W=W),
                 "delta_reg": final.delta_reg})
    return ["particles.csv", "cloud_final.csv", "summary.json"]


def _run_attract_steady(cfg, out):
    dim = Dimension(cfg.dimension)
    W = build_attraction(cfg, dim)
    report = check_smallness(W.epsilon or 0.0, dim)
    st, fld = solve_attraction_steady(W, dim, cfg.m0,
                                      tol=cfg.attraction_tol,
                                      max_iter=cfg.attraction_max_iter,
                                      n_grid=cfg.attraction_n_grid,
                                      allow_unproven=cfg.allow_unproven)
    rho = st.density
    r = rho.grid
    second_moment = float(rho._quadrature(rho.values * r * r))
    phi = newtonian_radial_potential(rho) \
        + (st.m0 * r * r + second_moment) / (2.0 * dim.d)
    if getattr(W.perturbation, "name", "zero") != "zero":
        phi = phi + spherical_mean_convolve(W.perturbation.value, rho, dim, r)
    _steady_csv(out / "steady.csv", rho, phi)
    # radius_history is seeded with the start radius; row k pairs the
    # iteration-k residual with the radius that iteration produced
    ks = np.arange(1, len(fld.residual_history) + 1, dtype=float)
    _write_csv(out / "iterations.csv", ("k", "residual", "R_k"),
               (ks, fld.residual_history, fld.radius_history[1:]))
    _write_json(out / "summary.json",
                {"mode": "attract_steady", "d": dim.d, "m0": st.m0,
                 "R_inf": st.R_inf, "E_inf": attraction_energy(rho, W),
                 "iterations": fld.iteration, "residual": fld.residual,
                 "epsilon": W.epsilon or 0.0,
                 "allow_unproven": cfg.allow_unproven,
                 "smallness": {"passed": bool(report.passed),
                               "eps_star": report.eps_star,
                               "lhs1": report.lhs1, "rhs1": report.rhs1,
                               "lhs2": report.lhs2, "rhs2": report.rhs2}})
    return ["steady.csv", "iterations.csv", "summary.json"]


def _run_rates(cfg, out):
    from pathlib import Path
    src = Path(cfg.series_path or out)
    if src.is_dir():
        src = src / "series.csv"
    if not src.exists():
        raise ConfigError(f"series file {src} not found",
                          reason="invalid solver config")
    series = DiagnosticSeries.from_csv(src)
    # the series records the dimension it was run in; the config's is a fallback
    d = series.params.get("d", cfg.dimension)
    dim = Dimension(d) if d else None
    summary = {"mode": "rates", "series": str(src)}
    quantities = cfg.rate_quantities or ("energy_gap",)
    cfg = replace(cfg, rate_quantities=quantities)
    artifacts = _rate_fits(cfg, series, dim, out, summary)
    _write_json(out / "summary.json", summary)
    return artifacts + ["summary.json"]


def _run_validate(cfg, out):
    dim = Dimension(cfg.dimension)
    V = build_confinement(cfg)
    if cfg.check == "compact":
        rep = check_compact_support_tail(V, dim, cfg.c_v, cfg.r0)
        fields = {"slope_ok": bool(rep.slope_ok),
                  "laplacian_nonneg": bool(rep.laplacian_nonneg),
                  "laplacian_sup": rep.laplacian_sup}
        fail_reason = "compact support check failed"
    else:
        rep = check_pareto_tail(V, dim)
        fields = {"increasing": bool(rep.increasing),
                  "growth_ratio": rep.growth_ratio,
                  "mass_reach": rep.mass_reach}
        fail_reason = "pareto tail failed"
    lines = [f"check = {cfg.check}", f"potential = {V.name}",
             f"passed = {bool(rep.passed)}"]
    lines += [f"{k} = {v}" for k, v in fields.items()]
    lines.append(f"note = {rep.note}")
    with open(out / "validation.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json(out / "summary.json",
                {"mode": "validate", "check": cfg.check,
                 "passed": bool(rep.passed), "note": rep.note, **fields})
    if not rep.passed:
        raise PotentialError(rep.note, reason=fail_reason)
    return ["validation.txt", "summary.json"]


_RUNNERS = {"steady": _run_steady,
            "simulate_radial": _run_simulate_radial,
            "simulate_particles": _run_simulate_particles,
            "attract_steady": _run_attract_steady,
            "rates": _run_rates,
            "validate": _run_validate}


def run(cfg, config_sha=None):
    """Execute one experiment; returns 0 and leaves artifacts in cfg.out."""
    from pathlib import Path
    cfg.validate()
    t0 = time.perf_counter()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    config_to_ini(cfg, out / "config_used.ini")
    if config_sha is None:
        config_sha = hashlib.sha256(
            (out / "config_used.ini").read_bytes()).hexdigest()
    try:
        artifacts = _RUNNERS[cfg.mode](cfg, out)
    finally:
        # manifest records the attempt even when the runner raises
        _manifest(out, cfg, config_sha, t0, ["config_used.ini"])
    _manifest(out, cfg, config_sha, t0,
              artifacts + ["config_used.ini", "manifest.json"])
    return 0


# -- entry point -------------------------------------------------------------

def _build_parser():
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
        sha = hashlib.sha256(open(args.config, "rb").read()).hexdigest()
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
