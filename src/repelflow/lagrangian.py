"""Radial dynamics in Lagrangian mass coordinates.

A radial density is tracked through the radii R_i(t) of fixed mass
quantiles m_i = (i - 1/2) m0 / N.  Because the Newtonian field of a radial
profile depends only on the enclosed mass, the characteristics decouple:

    dR_i/dt = m_i / (sigma_d R_i^(d-1)) - V'(R_i)        (d >= 2)
    dX_i/dt = (m_i - m0/2) - V'(X_i)                     (d = 1, signed X)

and the density carried along a characteristic obeys the logistic law
d rho/dt = rho (Lap V - rho).  Mass conservation is exact by construction.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._cubic import pchip
from .density import RadialDensity, _cumulative_mass
from .errors import ConfigError, ResolutionWarning, StiffnessError
from .steady import _mass_radii

__all__ = [
    "LagrangianState",
    "EvolutionConfig",
    "ResolutionWarning",
    "init_lagrangian",
    "rhs",
    "step",
    "evolve",
    "reconstruct_density",
    "support_radius",
    "steady_quantile_state",
]


class _StepReject(Exception):
    """Internal signal: the attempted step left the admissible set."""


@dataclass(frozen=True)
class LagrangianState:
    """Snapshot of the quantile system.  Instances are never mutated."""

    cell_masses: np.ndarray   # mass carried by each quantile cell, sums to m0
    radii: np.ndarray         # R_i, strictly increasing (signed X_i for d = 1)
    densities: np.ndarray     # rho_i > 0 carried along characteristics
    time: float
    dim: "Dimension"
    m0: float
    dt: float = 0.01          # adaptive step bookkeeping
    accept_streak: int = 0

    @property
    def n(self):
        return len(self.radii)

    @property
    def quantiles(self):
        """Enclosed mass at each characteristic (cell midpoints)."""
        return np.cumsum(self.cell_masses) - 0.5 * self.cell_masses

    def validate(self):
        if np.any(np.diff(self.radii) <= 0.0):
            raise ConfigError("quantile radii must increase strictly",
                              reason="invalid state")
        if np.any(self.densities <= 0.0):
            raise ConfigError("carried densities must be positive",
                              reason="invalid state")


CROSSING_POLICIES = ("reject_step", "merge")
# fewest quantiles a state may carry: reconstruct_density needs them
MIN_QUANTILES = 16


@dataclass(frozen=True)
class EvolutionConfig:
    dt_init: float = 0.01
    dt_min: float = 1e-9
    dt_max: float = 0.1
    t_end: float = 10.0
    rk_order: int = 4
    crossing_policy: str = "reject_step"   # or "merge"
    snapshot_stride: int = 10
    density_cap: float | None = None       # default 10 * sup Lap V, set by evolve

    def __post_init__(self):
        if not 0.0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ConfigError("need 0 < dt_min <= dt_init <= dt_max",
                              reason="invalid solver config")
        if self.rk_order not in (2, 4):
            raise ConfigError("rk_order must be 2 or 4", reason="invalid solver config")
        if self.crossing_policy not in CROSSING_POLICIES:
            raise ConfigError(f"unknown crossing_policy {self.crossing_policy!r}; "
                              f"choices: {', '.join(CROSSING_POLICIES)}",
                              reason="invalid solver config")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be at least 1",
                              reason="invalid solver config")


def init_lagrangian(rho0, N, dim, dt_init=0.01):
    """Place N quantiles by monotone inversion of the cumulative mass.

    Interior vacuum plateaus are inverted to their leftmost radius with a
    warning; the quantile masses are exact midpoints, so refinement never
    changes the represented mass.
    """
    if N < MIN_QUANTILES:
        raise ConfigError(f"need at least {MIN_QUANTILES} quantiles",
                          reason="invalid solver config")
    m0 = rho0.mass
    if m0 <= 0.0:
        raise ConfigError("initial density has no mass", reason="invalid density")
    grid = rho0.grid
    M = rho0.cumulative_mass()
    flat = np.diff(M) <= 0.0
    if np.any(flat & (M[:-1] > 1e-12 * m0) & (M[:-1] < (1.0 - 1e-12) * m0)):
        warnings.warn("vacuum plateau inside the support: inversion uses the "
                      "leftmost radius", ResolutionWarning)
    targets = (np.arange(1, N + 1) - 0.5) * (m0 / N)
    hi = np.searchsorted(M, targets, side="left")
    hi = np.clip(hi, 1, len(M) - 1)
    lo = hi - 1
    dm = M[hi] - M[lo]
    frac = np.where(dm > 0.0, (targets - M[lo]) / np.where(dm > 0, dm, 1.0), 0.0)
    radii = grid[lo] + frac * (grid[hi] - grid[lo])
    densities = rho0(radii)
    if np.any(densities <= 0.0):
        raise ConfigError("initial density vanishes at a quantile radius; "
                          "refine the rho0 grid", reason="invalid density")
    state = LagrangianState(cell_masses=np.full(N, m0 / N), radii=radii,
                            densities=np.asarray(densities, dtype=float),
                            time=0.0, dim=dim, m0=m0, dt=dt_init)
    state.validate()
    return state


def rhs(state, V_eff):
    """Velocities of the quantile radii and carried densities."""
    return _velocities(state.radii, state.densities, state.quantiles,
                       state.dim, state.m0, V_eff)


def _velocities(R, rho, m, dim, m0, V_eff):
    """rhs at radii R and densities rho, with the enclosed masses m given."""
    d = dim.d
    if d >= 2 and np.any(R <= 0.0):
        raise _StepReject("quantile radius hit the origin")
    if d == 1:
        dR = (m - 0.5 * m0) - V_eff.slope(R)
    else:
        dR = m / (dim.sphere_area * R ** (d - 1)) - V_eff.slope(R)
    lap = V_eff.laplacian(R, dim)
    drho = rho * (lap - rho)
    return dR, drho


def _try_rk(state, V_eff, dt, order):
    """One explicit RK step; raises _StepReject if a stage leaves the domain."""
    # the cell masses are fixed within a step: one prefix sum serves every stage
    m = state.quantiles

    def f(radii, dens):
        return _velocities(radii, dens, m, state.dim, state.m0, V_eff)

    R0, p0 = state.radii, state.densities
    k1R, k1p = f(R0, p0)
    if order == 2:
        k2R, k2p = f(R0 + 0.5 * dt * k1R, p0 + 0.5 * dt * k1p)
        R1 = R0 + dt * k2R
        p1 = p0 + dt * k2p
    else:
        k2R, k2p = f(R0 + 0.5 * dt * k1R, p0 + 0.5 * dt * k1p)
        k3R, k3p = f(R0 + 0.5 * dt * k2R, p0 + 0.5 * dt * k2p)
        k4R, k4p = f(R0 + dt * k3R, p0 + dt * k3p)
        R1 = R0 + dt / 6.0 * (k1R + 2 * k2R + 2 * k3R + k4R)
        p1 = p0 + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    if not (np.all(np.isfinite(R1)) and np.all(np.isfinite(p1))):
        raise _StepReject("non-finite state")
    return R1, p1


def _default_density_cap(state, V_eff):
    r_hi = 4.0 * max(float(np.max(np.abs(state.radii))), 1.0)
    probe = np.linspace(1e-3, r_hi, 512)
    return 10.0 * float(np.max(V_eff.laplacian(probe, state.dim)))


def _merge_once(state):
    """Merge the adjacent pair with the smallest gap (explicit opt-in policy)."""
    if state.n < 2:
        raise _StepReject("cannot merge a single quantile")
    gaps = np.diff(state.radii)
    j = int(np.argmin(gaps))
    cm, R, p = state.cell_masses, state.radii, state.densities
    mass = cm[j] + cm[j + 1]
    merged = LagrangianState(
        cell_masses=np.concatenate([cm[:j], [mass], cm[j + 2:]]),
        radii=np.concatenate([R[:j], [0.5 * (R[j] + R[j + 1])], R[j + 2:]]),
        densities=np.concatenate([p[:j], [(cm[j] * p[j] + cm[j + 1] * p[j + 1]) / mass],
                                  p[j + 2:]]),
        time=state.time, dim=state.dim, m0=state.m0,
        dt=state.dt, accept_streak=0)
    return merged


def step(state, V_eff, config, dt_cap=None):
    """Advance by one accepted step of the adaptive RK integrator.

    Rejections halve dt: ordering violations (under the default
    reject_step policy), densities leaving (0, 10 sup Lap V], or a radius
    crossing the origin.  Ten consecutive accepts double dt up to dt_max.
    """
    cap = config.density_cap
    if cap is None:
        cap = _default_density_cap(state, V_eff)
    dt = min(state.dt, config.dt_max)
    while True:
        trial_dt = dt if dt_cap is None else min(dt, dt_cap)
        try:
            R1, p1 = _try_rk(state, V_eff, trial_dt, config.rk_order)
            if state.dim.d >= 2 and np.any(R1 <= 0.0):
                raise _StepReject("radius crossed the origin")
            if np.any(p1 <= 0.0) or np.any(p1 > cap):
                raise _StepReject("density left (0, 10 A]")
            if np.any(np.diff(R1) <= 0.0):
                if config.crossing_policy == "merge":
                    state = _merge_once(state)
                    continue
                raise _StepReject("quantile ordering violated")
        except _StepReject as reject:
            dt *= 0.5
            if dt < config.dt_min:
                raise StiffnessError(
                    f"dt fell below {config.dt_min:g} at t={state.time:g}: {reject}",
                    reason="dt underflow",
                    state=state) from None
            state = replace(state, dt=dt, accept_streak=0)
            continue
        streak = state.accept_streak + 1
        if streak >= 10 and dt < config.dt_max:
            dt, streak = min(2.0 * dt, config.dt_max), 0
        return LagrangianState(cell_masses=state.cell_masses, radii=R1, densities=p1,
                               time=state.time + trial_dt, dim=state.dim, m0=state.m0,
                               dt=dt, accept_streak=streak)


def evolve(state, V_eff, config):
    """Run to t_end, collecting snapshots every snapshot_stride accepts.

    ``V_eff`` is a RadialPotential, or a callable state -> RadialPotential
    for self-consistent fields refreshed once per accepted step.
    Returns (final_state, snapshots); snapshots include t=0 and t_end.
    """
    refresh = V_eff if callable(V_eff) and not hasattr(V_eff, "slope") else None
    pot = refresh(state) if refresh else V_eff
    if config.density_cap is None:
        config = replace(config, density_cap=_default_density_cap(state, pot))
    state = replace(state, dt=min(config.dt_init, config.dt_max))
    snapshots = [state]
    accepted = 0
    while state.time < config.t_end - 1e-12:
        remaining = config.t_end - state.time
        state = step(state, pot, config, dt_cap=remaining)
        accepted += 1
        if accepted % config.snapshot_stride == 0:
            snapshots.append(state)
        if refresh is not None:
            pot = refresh(state)
    if snapshots[-1] is not state:
        snapshots.append(state)
    return state, snapshots


def support_radius(state):
    """Support edge estimate: last radius plus half a local cell width."""
    R = state.radii
    if state.dim.d == 1:
        lo = R[0] - 0.5 * (R[1] - R[0])
        hi = R[-1] + 0.5 * (R[-1] - R[-2])
        return float(max(abs(lo), abs(hi)))
    return float(R[-1] + 0.5 * (R[-1] - R[-2]))


def _mass_matched_edges(state):
    """Support edges placed so the half cells beyond R_1, R_N hold their mass."""
    d = state.dim.d
    R, p, cm = state.radii, state.densities, state.cell_masses
    if d == 1:
        lo = R[0] - 0.5 * cm[0] / p[0]
        hi = R[-1] + 0.5 * cm[-1] / p[-1]
        return lo, hi
    sd = state.dim.sphere_area
    hi = (R[-1] ** d + d * 0.5 * cm[-1] / (sd * p[-1])) ** (1.0 / d)
    lo_d = R[0] ** d - d * 0.5 * cm[0] / (sd * p[0])
    lo = lo_d ** (1.0 / d) if lo_d > 0.0 else 0.0
    return lo, hi


def reconstruct_density(state):
    """Density profile from the carried values (estimator A).

    The finite-difference estimator B, dm / (sigma_d rbar^(d-1) dR) between
    adjacent quantiles, is evaluated as a cross-check; the max relative
    deviation is recorded on the result as ``estimator_deviation`` and a
    ResolutionWarning fires beyond 20%.  Edge cells are closed at radii
    that hold exactly the outstanding half-cell masses.
    """
    if state.n < MIN_QUANTILES:
        raise ConfigError(f"reconstruction needs at least {MIN_QUANTILES} quantiles",
                          reason="invalid solver config")
    d = state.dim.d
    R, p = state.radii, state.densities
    lo, hi = _mass_matched_edges(state)

    nodes = np.concatenate([[lo], R, [hi]])
    vals = np.concatenate([[p[0]], p, [p[-1]]])
    if nodes[0] >= nodes[1]:          # collapsed inner edge (ball data)
        nodes, vals = nodes[1:], vals[1:]
    # points 1/3 and 2/3 of the way along each interval; they stay in
    # order inside it, so interleaving them keeps the grid sorted
    stride = 3
    fine = np.empty(stride * (len(nodes) - 1) + 1)
    fine[::stride] = nodes
    gaps = np.diff(nodes)
    for k in range(1, stride):
        fine[k::stride] = nodes[:-1] + k / stride * gaps
    # estimator B's interior midpoints are read off the same interpolant
    mid = 0.5 * (R[1:] + R[:-1])
    both = pchip(nodes, vals)(np.concatenate([fine, mid]))
    fine_vals = np.clip(both[:len(fine)], 0.0, None)
    est_a = both[len(fine):]

    if d >= 2 and fine[0] > 0.0:
        head = np.array([0.0, fine[0] * (1 - 1e-9)])
        fine = np.concatenate([head, fine])
        fine_vals = np.concatenate([[0.0, 0.0], fine_vals])
    elif d >= 2:
        fine[0] = 0.0
    support = hi if d >= 2 else max(abs(lo), abs(hi))
    # the quantile masses are authoritative: pin the reconstructed mass to m0
    mass = float(_cumulative_mass(fine, fine_vals, state.dim)[-1])
    out = RadialDensity(fine, fine_vals * (state.m0 / mass), state.dim,
                        support_radius=support)

    # estimator B on interior midpoints
    dm = 0.5 * (state.cell_masses[1:] + state.cell_masses[:-1])
    dR = np.diff(R)
    if d == 1:
        est_b = dm / dR
    else:
        est_b = dm / (state.dim.sphere_area * mid ** (d - 1) * dR)
    deviation = float(np.max(np.abs(est_a - est_b) / np.maximum(est_b, 1e-300)))
    out.estimator_deviation = deviation
    if deviation > 0.20:
        warnings.warn(f"density estimators disagree by {deviation:.1%}",
                      ResolutionWarning)
    return out


def steady_quantile_state(V, dim, m0, N):
    """Quantile configuration of the steady state, from the mass equation.

    Solves sigma_d R^(d-1) V'(R) = m_i per quantile (V'(X) = m_i - m0/2
    for d = 1), which is the analytic inverse of the steady cumulative
    mass.  Used as the matched reference for energy gaps and as a strong
    fixed-point test input.
    """
    masses = np.full(N, m0 / N)
    radii = _mass_radii(V, dim, m0, np.cumsum(masses) - 0.5 * masses)
    densities = np.asarray(V.laplacian(radii, dim), dtype=float)
    state = LagrangianState(cell_masses=masses, radii=radii, densities=densities,
                            time=0.0, dim=dim, m0=m0)
    state.validate()
    return state
