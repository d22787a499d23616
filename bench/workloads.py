"""The benchmark's three workloads, run through repelflow's public functions.

A workload builds its inputs once in ``setup(seed)`` and then runs passes
of checked operations with ``run(inputs, workdir)``.  Inputs are immutable
repelflow objects, so every pass starts from the same state.  Functions
are looked up on the package at call time (``rf.evolve``, never a name
bound at import), so a traced pass goes through the tracer's wrappers.

Sizes are constructor arguments: the defaults are what ``run.py``
measures; the benchmark's tests pass tiny ones.  Why each workload exists
and which ROADMAP item it exposes is written up in NOTES.md.
"""

import json
import os
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import repelflow as rf
from repelflow import cli

ONE_SNAPSHOT = 10 ** 9      # snapshot stride that keeps only t = 0 and t_end


@dataclass
class Outcome:
    """One checked operation: its name, whether it passed, and why."""

    name: str
    ok: bool
    detail: str


def attempt(name, check):
    """Run ``check() -> (ok, detail)``; an exception counts as a failure."""
    try:
        ok, detail = check()
    except Exception:              # any raise is a failed operation
        return Outcome(name, False, traceback.format_exc())
    return Outcome(name, bool(ok), detail)


def run_cli(cfg, workdir, name):
    """Run one experiment through ``repelflow.cli.main`` with an INI config.

    Returns the exit code, the summary record (or None) and the out
    directory.  The config goes through the same INI parser users hit.
    """
    ini = workdir / f"{name}.ini"
    out = workdir / name
    cli.config_to_ini(cfg, ini)
    code = cli.main([cfg.mode, "--config", str(ini), "--out", str(out)])
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
    return code, summary, out


def directory_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class CloudRelax:
    """Particle clouds in confinement and attraction mode, against shells.

    A d = 3 quadratic-confinement cloud sampled from the annulus (1, 2)
    with m0 = 4 pi advances beside a 512-shell ``evolve`` of the same
    annulus; at each checkpoint both energies are compared.  Then an
    attraction-mode cloud (m0 = 1, Gaussian bump eps = 0.01, unit-volume
    ball) runs and its energy must not increase.
    """

    name = "cloud_relax"

    def __init__(self, n=1000, checkpoints=(0.1, 0.2, 0.3), n_shells=512,
                 n_attract=500, attract_checkpoints=(0.5, 1.0)):
        self.n = n
        self.checkpoints = checkpoints
        self.n_shells = n_shells
        self.n_attract = n_attract
        self.attract_checkpoints = attract_checkpoints

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        dim = rf.Dimension(3)
        rho0 = rf.annulus(dim, 1.0, 1.0, 2.0).renormalized(dim.sphere_area)
        ball = rf.uniform_ball(dim, 1.0, dim.ball_volume ** (-1.0 / 3.0))
        return SimpleNamespace(
            V=rf.quadratic(),
            # blob radius referenced to the terminal plateau Lap V = 3
            cloud=rf.sample_radial(rho0, self.n, rng, rho_ref=3.0),
            shells=rf.init_lagrangian(rho0, self.n_shells, dim, dt_init=0.01),
            W=rf.AttractionPotential.gaussian_bump(dim, 0.01),
            attract_cloud=rf.sample_radial(ball.renormalized(1.0),
                                           self.n_attract, rng, rho_ref=1.0))

    def run(self, inp, workdir):
        stats = {"cloud_energy_rel_err": float("nan")}

        def confinement():
            V, cloud, shells = inp.V, inp.cloud, inp.shells
            errs = []
            for t in self.checkpoints:
                shells, _ = rf.evolve(shells, V, rf.EvolutionConfig(
                    dt_init=0.01, t_end=t, snapshot_stride=ONE_SNAPSHOT))
                cloud, _ = rf.run_particles(cloud, t, V=V, dt_max=0.05,
                                            safety=0.1, rk_order=2,
                                            snapshot_stride=ONE_SNAPSHOT)
                e_shell = rf.shell_energy(shells, V)
                e_cloud = rf.discrete_energy(cloud, V=V)
                # support radii are not gated: test_a09 owns that gate
                rf.cloud_support_radius(cloud)
                errs.append(abs(e_cloud - e_shell) / abs(e_shell))
            stats["cloud_energy_rel_err"] = max(errs)
            return max(errs) <= 0.01, f"energy rel err per checkpoint {errs}"

        def attraction():
            W, cloud = inp.W, inp.attract_cloud
            energies = [rf.discrete_energy(cloud, W=W)]
            for t in self.attract_checkpoints:
                cloud, _ = rf.run_particles(cloud, t, W=W, dt_max=0.05,
                                            safety=0.1, rk_order=2,
                                            snapshot_stride=ONE_SNAPSHOT)
                energies.append(rf.discrete_energy(cloud, W=W))
            ok = all(b <= a for a, b in zip(energies, energies[1:]))
            return ok, f"attraction energies {energies}"

        return [attempt("confinement_cloud", confinement),
                attempt("attraction_cloud", attraction)], stats


class RadialRelax:
    """The five non-attraction CLI recipes, then an attraction shell run.

    The recipes run in process through ``cli.main`` and write their
    artifacts into a fresh directory per pass.  The shell run evolves 256
    quantiles of the annulus (1, 2), m0 = 1, in d = 3 under a field that
    ``effective_attraction_potential`` refreshes after every accepted step.
    """

    name = "radial_relax"
    RECIPES = ("uniqueness_two_starts", "rates_d2", "rates_d3",
               "line_double_well", "compact_support_check")

    def __init__(self, recipe_overrides=None, n_shells=256, t_end=2.5):
        self.recipe_overrides = recipe_overrides or {}
        self.n_shells = n_shells
        self.t_end = t_end

    def setup(self, seed):
        # deterministic: the seed is recorded by run.py and has no effect
        dim = rf.Dimension(3)
        rho0 = rf.annulus(dim, 1.0, 1.0, 2.0).renormalized(1.0)
        configs = {}
        for name in self.RECIPES:
            cfg = cli.recipe(name)
            for key, value in self.recipe_overrides.get(name, {}).items():
                setattr(cfg, key, value)
            configs[name] = cfg
        return SimpleNamespace(
            configs=configs, W=rf.AttractionPotential.gaussian_bump(dim, 0.01),
            shells=rf.init_lagrangian(rho0, self.n_shells, dim, dt_init=0.01))

    @staticmethod
    def verdict(name, summary, m0):
        if name == "uniqueness_two_starts":
            gap = summary["l1_between_terminals"]
            return gap < 2e-2, f"l1_between_terminals {gap:.3e}"
        if name == "line_double_well":
            gap = summary["l1_between_terminals"]
            return gap > 0.5 * m0, f"l1_between_terminals {gap:.3e}"
        if name.startswith("rates_"):
            # d = 2 has no theoretical exponent (no gamma_target), so its
            # fits can only report "n/a"; d = 3 must pass the bound
            want = "n/a" if name == "rates_d2" else "pass"
            got = {k: v["verdict"] for k, v in summary.items()
                   if k.startswith("rate_")}
            return bool(got) and all(v == want for v in got.values()), \
                f"verdicts {got}"
        return summary["passed"], f"passed {summary['passed']}"

    def run(self, inp, workdir):
        outcomes, stats = [], {"artifact_bytes": 0}
        for name, cfg in inp.configs.items():
            def recipe(name=name, cfg=cfg):
                code, summary, out = run_cli(cfg, workdir, name)
                stats["artifact_bytes"] += directory_bytes(out)
                if code != 0:
                    return False, f"exit code {code}"
                return self.verdict(name, summary, cfg.m0)
            outcomes.append(attempt(name, recipe))

        def attraction_shells():
            W = inp.W
            m0 = inp.shells.m0
            _, snaps = rf.evolve(
                inp.shells, lambda s: rf.effective_attraction_potential(s, W),
                rf.EvolutionConfig(dt_init=0.01, t_end=self.t_end,
                                   snapshot_stride=1))
            mass = max(abs(float(np.sum(s.cell_masses)) - m0) for s in snaps)
            ordered = all(bool(np.all(np.diff(s.radii) > 0.0)) for s in snaps)
            return mass <= 1e-12 * m0 and ordered, \
                f"{len(snaps)} states, mass drift {mass:.2e}, ordered {ordered}"

        outcomes.append(attempt("attraction_shells", attraction_shells))
        return outcomes, stats


class AttractionFixedPoint:
    """The attraction_perturbed recipe on a coarser grid, and the w = 0 solve.

    The recipe's n_grid of 1025 costs over 80 s per run; 129 lands on the
    same R_inf to 1e-9 in the same number of iterations.
    """

    name = "attraction_fixed_point"
    R_INF = 0.6199975248        # attraction_perturbed at n_grid = 1025
    ITERATIONS = 4              # fixed-point iterations of that recipe

    def __init__(self, n_grid=129, r_inf_tol=1e-8):
        self.n_grid = n_grid
        self.r_inf_tol = r_inf_tol

    def setup(self, seed):
        # deterministic: the seed is recorded by run.py and has no effect
        cfg = cli.recipe("attraction_perturbed")
        cfg.attraction_n_grid = self.n_grid
        dim = rf.Dimension(cfg.dimension)
        return SimpleNamespace(cfg=cfg, dim=dim,
                               base=rf.AttractionPotential(dim))

    def run(self, inp, workdir):
        stats = {"artifact_bytes": 0}

        def perturbed():
            code, summary, out = run_cli(inp.cfg, workdir, "attraction_perturbed")
            stats["artifact_bytes"] += directory_bytes(out)
            if code != 0:
                return False, f"exit code {code}"
            # exit 0 also means verify_steady passed at 1e-6 m0 R_inf:
            # solve_attraction_steady raises NumericsError (exit 3) otherwise
            its, R = summary["iterations"], summary["R_inf"]
            ok = its == self.ITERATIONS and abs(R - self.R_INF) <= self.r_inf_tol
            return ok, f"iterations {its}, R_inf {R!r}"

        def unperturbed():
            m0 = inp.cfg.m0
            state, field = rf.solve_attraction_steady(inp.base, inp.dim, m0,
                                                      n_grid=self.n_grid)
            check = rf.verify_steady(state, field.V_tilde,
                                     tol=1e-6 * m0 * state.R_inf)
            return field.iteration == 1 and check.passed, \
                f"iterations {field.iteration}, sup |u| {check.max_speed:.2e}"

        return [attempt("attraction_perturbed", perturbed),
                attempt("attraction_unperturbed", unperturbed)], stats


WORKLOADS = {w.name: w for w in (CloudRelax, RadialRelax, AttractionFixedPoint)}


def environment():
    """What later comparisons must hold fixed: cores, numba, libraries, threads."""
    import importlib.util
    import platform
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
