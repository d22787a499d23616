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

from ._cubic import cubic_at, pchip_pieces
from .density import RadialDensity, _check_profiles, _cumulative_mass
from .errors import ConfigError, ResolutionWarning, StiffnessError
from .steady import _mass_radii, _radial_velocity

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
        return _quantiles(self.cell_masses)

    def validate(self):
        if np.any(np.diff(self.radii) <= 0.0):
            raise ConfigError("quantile radii must increase strictly",
                              reason="invalid state")
        if np.any(self.densities <= 0.0):
            raise ConfigError("carried densities must be positive",
                              reason="invalid state")


def _quantiles(m):
    """Enclosed mass at the cell midpoints of each row of cell masses m."""
    return np.cumsum(m, axis=-1) - 0.5 * m


# fewest quantiles a state may carry: reconstruct_density needs them
MIN_QUANTILES = 16
# default smallest step of the shell solver, and the particle solver's floor
DT_MIN = 1e-9


def _check_rk_order(order, setting="rk_order"):
    """The explicit Runge-Kutta orders both solvers take: 2 and 4."""
    if order not in (2, 4):
        raise ConfigError(f"{setting} must be 2 or 4", reason="invalid solver config")


def _rk(f, y, dt, order, k1=None):
    """One explicit Runge-Kutta step of y' = f(y): the midpoint rule for
    order 2, the classical four-stage rule for order 4.  k1 is f(y) when
    the caller already has it."""
    if k1 is None:
        k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    if order == 2:
        return y + dt * k2
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(state, t_end, stride, advance):
    """Run ``advance(state, remaining)``, one step of at most ``remaining``,
    until t_end is within 1e-12.  Returns (final state, snapshots): the
    start, every stride-th step and the end."""
    snapshots = [state]
    steps = 0
    while state.time < t_end - 1e-12:
        state = advance(state, t_end - state.time)
        steps += 1
        if steps % stride == 0:
            snapshots.append(state)
    if snapshots[-1] is not state:
        snapshots.append(state)
    return state, snapshots


@dataclass(frozen=True)
class EvolutionConfig:
    dt_init: float = 0.01
    dt_min: float = DT_MIN
    dt_max: float = 0.1
    t_end: float = 10.0
    rk_order: int = 4
    snapshot_stride: int = 10

    def __post_init__(self):
        if not 0.0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ConfigError("need 0 < dt_min <= dt_init <= dt_max",
                              reason="invalid solver config")
        _check_rk_order(self.rk_order)
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
    if dim.d >= 2 and np.any(R <= 0.0):
        raise _StepReject("quantile radius hit the origin")
    dR = _radial_velocity(m, m0, V_eff, dim, R)
    drho = rho * (V_eff.laplacian(R, dim) - rho)
    return dR, drho


def _try_rk(state, V_eff, dt, order):
    """One explicit RK step; raises _StepReject if a stage leaves the domain."""
    # the cell masses are fixed within a step: one prefix sum serves every stage
    m = state.quantiles

    def f(y):
        return np.array(_velocities(y[0], y[1], m, state.dim, state.m0, V_eff))

    # a stage past the float range gives a non-finite state, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        y1 = _rk(f, np.array([state.radii, state.densities]), dt, order)
    if not np.all(np.isfinite(y1)):
        raise _StepReject("non-finite state")
    return y1[0], y1[1]


def _default_density_cap(state, V_eff):
    r_hi = 4.0 * max(float(np.max(np.abs(state.radii))), 1.0)
    probe = np.linspace(1e-3, r_hi, 512)
    # the logistic law keeps each carried density below max(rho_i, sup Lap V),
    # so a start denser than sup Lap V is not a blow-up
    return 10.0 * max(float(np.max(V_eff.laplacian(probe, state.dim))),
                      float(np.max(state.densities)))


def step(state, V_eff, config, density_cap, dt_cap):
    """Advance by one accepted ``_rk`` step of the radii and densities.

    A trial of dt (at most dt_cap) is rejected, and dt halved, for any of
    four reasons: a radius at or past the origin (d >= 2, at a stage or at
    the end), a non-finite stage result, a carried density outside
    (0, density_cap], or quantile ordering violated.  The exact flow never crosses
    characteristics, so a crossing is a step-size artifact and the cell
    masses never change.  Below dt_min a rejection raises StiffnessError.
    Ten consecutive accepts double dt up to dt_max.
    """
    dt = min(state.dt, config.dt_max)
    while True:
        trial_dt = min(dt, dt_cap)
        try:
            R1, p1 = _try_rk(state, V_eff, trial_dt, config.rk_order)
            if state.dim.d >= 2 and np.any(R1 <= 0.0):
                raise _StepReject("radius crossed the origin")
            if np.any(p1 <= 0.0) or np.any(p1 > density_cap):
                raise _StepReject("density left (0, density_cap]")
            if np.any(np.diff(R1) <= 0.0):
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
    for a self-consistent field, refreshed at the start of every step.
    Each step takes at most the time left, under the density cap
    ``_default_density_cap`` of the start state and its field.
    Returns (final_state, snapshots); snapshots include t=0 and t_end.
    """
    field = V_eff if callable(V_eff) and not hasattr(V_eff, "slope") else lambda s: V_eff
    # the start state's field sets the cap and drives the first step
    pending = [field(state)]
    density_cap = _default_density_cap(state, pending[0])
    state = replace(state, dt=min(config.dt_init, config.dt_max))

    def advance(state, remaining):
        V = pending.pop() if pending else field(state)
        return step(state, V, config, density_cap, remaining)

    return _march(state, config.t_end, config.snapshot_stride, advance)


def support_radius(state):
    """Support edge estimate: last radius plus half a local cell width."""
    return float(_support_radii(state.radii[None], state.dim.d)[0])


def _support_radii(R, d):
    """``support_radius`` of each row of radii R."""
    hi = R[:, -1] + 0.5 * (R[:, -1] - R[:, -2])
    if d == 1:
        return np.maximum(np.abs(R[:, 0] - 0.5 * (R[:, 1] - R[:, 0])), np.abs(hi))
    return hi


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


# points 1/3 and 2/3 of the way along each interval of a reconstruction's knots
_STRIDE = 3


def _profiles(states):
    """Estimator A's profile of each state, with estimator B's deviation.

    For states of one N and one d: a list of (grid, values, support,
    deviation), one per state, in order.  Each row's arithmetic is that of
    ``reconstruct_density`` on its state alone; the edges are computed
    state by state, in Python floats, and rows of one shape (a collapsed
    inner edge or not, a head at the origin or not) are computed together.
    """
    n, dim = states[0].n, states[0].dim
    if n < MIN_QUANTILES:
        raise ConfigError(f"reconstruction needs at least {MIN_QUANTILES} quantiles",
                          reason="invalid solver config")
    d = dim.d
    R = np.array([s.radii for s in states])
    lo, hi = np.array([_mass_matched_edges(s) for s in states], dtype=float).T
    p = np.array([s.densities for s in states])
    nodes = np.column_stack([lo, R, hi])
    vals = np.column_stack([p[:, 0], p, p[:, -1]])
    # estimator B's interior midpoints are read off the same interpolant
    mid = 0.5 * (R[:, 1:] + R[:, :-1])
    est_a = np.empty_like(mid)
    profiles = [None] * len(states)
    collapsed = nodes[:, 0] >= nodes[:, 1]       # ball data
    for cut in (0, 1):
        rows = np.flatnonzero(collapsed == cut)
        if not rows.size:
            continue
        x = nodes[rows, cut:]
        pieces = [np.ascontiguousarray(c.T) for c in pchip_pieces(x.T, vals[rows, cut:].T)]
        # points 1/3 and 2/3 of the way along each interval; they stay in
        # order inside it, so interleaving them keeps the grid sorted
        gaps = np.diff(x, axis=1)
        fine = np.empty((rows.size, _STRIDE * gaps.shape[1] + 1))
        fine_vals = np.empty_like(fine)
        fine[:, ::_STRIDE] = x
        for k in range(_STRIDE):
            if k:
                fine[:, k::_STRIDE] = x[:, :-1] + k / _STRIDE * gaps
            # each point on the piece of its interval
            fine_vals[:, k:-1:_STRIDE] = cubic_at(pieces, fine[:, k:-1:_STRIDE] - x[:, :-1])
        # the last knot on the last piece
        fine_vals[:, -1] = cubic_at([c[:, -1] for c in pieces], x[:, -1] - x[:, -2])
        np.clip(fine_vals, 0.0, None, out=fine_vals)
        # the midpoint of quantiles j and j + 1 is on piece j + 1 - cut
        est_a[rows] = cubic_at([c[:, 1 - cut:n - cut] for c in pieces],
                               mid[rows] - R[rows, :-1])
        head = (fine[:, 0] > 0.0) if d >= 2 else np.zeros(rows.size, bool)
        for lead in (False, True):
            sub = np.flatnonzero(head == lead)
            if not sub.size:
                continue
            grid, values = fine[sub], fine_vals[sub]
            if lead:
                zero = np.zeros((sub.size, 1))
                grid = np.column_stack([zero, grid[:, 0] * (1 - 1e-9), grid])
                values = np.column_stack([zero, zero, values])
            elif d >= 2:
                grid[:, 0] = 0.0
            # the quantile masses are authoritative: pin the reconstructed mass to m0
            mass = _cumulative_mass(grid, values, dim)[:, -1]
            values = values * np.array([[states[r].m0 / float(m)]
                                        for r, m in zip(rows[sub], mass)])
            _check_profiles(grid, values, dim)
            for r, g, v in zip(rows[sub], grid, values):
                support = hi[r] if d >= 2 else max(abs(lo[r]), abs(hi[r]))
                profiles[r] = [g, v, support]

    cm = np.array([s.cell_masses for s in states])
    dm = 0.5 * (cm[:, 1:] + cm[:, :-1])
    dR = np.diff(R, axis=1)
    if d == 1:
        est_b = dm / dR
    else:
        est_b = dm / (dim.sphere_area * mid ** (d - 1) * dR)
    deviations = np.max(np.abs(est_a - est_b) / np.maximum(est_b, 1e-300), axis=1)
    for profile, deviation in zip(profiles, deviations):
        profile.append(float(deviation))
        if deviation > 0.20:
            warnings.warn(f"density estimators disagree by {deviation:.1%}",
                          ResolutionWarning)
    return profiles


def reconstruct_density(state):
    """Density profile from the carried values (estimator A).

    The finite-difference estimator B, dm / (sigma_d rbar^(d-1) dR) between
    adjacent quantiles, is evaluated as a cross-check; the max relative
    deviation is recorded on the result as ``estimator_deviation`` and a
    ResolutionWarning fires beyond 20%.  Edge cells are closed at radii
    that hold exactly the outstanding half-cell masses.
    """
    (grid, values, support, deviation), = _profiles([state])
    out = RadialDensity(grid, values, state.dim, support_radius=support)
    out.estimator_deviation = deviation
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
