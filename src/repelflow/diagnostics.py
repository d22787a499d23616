"""Energy, dissipation, and rate-fitting diagnostics.

The quantile system is the exact gradient flow of the shell energy

    E_N = 1/2 sum_ij m_i m_j N(max(R_i, R_j)) + sum_i m_i V(R_i)

(a shell of mass m at radius s generates the potential N(max(r, s))), so
dE_N/dt = -sum m_i u_i^2 holds discretely and energy gaps can be measured
against the steady quantile configuration without quadrature noise.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from ._table import read_table, write_table
from .density import _L1Side, _l1, l1_distance as _l1_profiles
from .errors import ConfigError, NumericsError
from .lagrangian import (LagrangianState, _profiles, _quantiles, _support_radii,
                         _velocities, steady_quantile_state)

__all__ = [
    "DiagnosticSeries",
    "RateFit",
    "shell_energy",
    "dissipation",
    "discrepancy",
    "lyapunov",
    "l1_to_steady",
    "collect_series",
    "fit_rate",
    "gamma_theory",
    "density_bounds_onset",
]


def shell_energy(state, V):
    """Energy of the quantile shells: exact Lyapunov function of the flow.

    The radii increase strictly, so each pair sum runs over the shells
    below shell i through prefix sums, in O(N):

        d >= 2:  1/2 sum_ij m_i m_j N(max(R_i, R_j)) = sum_i m_i N(R_i) (M_<i + m_i/2)
        d  = 1:  1/2 sum_ij m_i m_j (-|R_i - R_j|/2) = -1/2 sum_i m_i (R_i M_<i - S_<i)

    with M_<i and S_<i the sums of m_j and m_j R_j over j < i.
    """
    return float(_energies(_Rows([state]), V)[0])


def dissipation(state, V_eff):
    """D = sum m_i u_i^2 >= 0, the instantaneous energy decay rate."""
    return float(_dissipations(_Rows([state]), V_eff)[0])


def discrepancy(state, V_eff):
    """F = 1/2 int (rho - Lap V)^2 rho dx, zero exactly on the steady profile."""
    return float(_discrepancies(_Rows([state]), V_eff)[0])


class _Rows:
    """States of one N and one d as rows: radii R, densities p, cell masses m."""

    def __init__(self, states):
        self.dim, self.m0 = states[0].dim, states[0].m0
        self.R = np.array([s.radii for s in states])
        self.p = np.array([s.densities for s in states])
        self.m = np.array([s.cell_masses for s in states])


def _energies(rows, V):
    """``shell_energy`` of each row; each pair sum is its state's dot product."""
    R, m = rows.R, rows.m

    def below(x):
        return np.concatenate([np.zeros((len(x), 1)), np.cumsum(x, axis=1)[:, :-1]], axis=1)

    if rows.dim.d == 1:
        pairs = zip(m, R * below(m) - below(m * R))
        interaction = np.array([-0.5 * float(u @ v) for u, v in pairs])
    else:
        if rows.dim.d == 2:
            K = -np.log(R) / (2.0 * np.pi)
        else:
            K = rows.dim.newton_coeff * R ** (2 - rows.dim.d)
        interaction = np.array([float(u @ v) for u, v in zip(m * K, below(m) + 0.5 * m)])
    return interaction + np.sum(m * V.value(R), axis=1)


def _dissipations(rows, V_eff):
    """``dissipation`` of each row."""
    u, _ = _velocities(rows.R, rows.p, _quantiles(rows.m), rows.dim, rows.m0, V_eff)
    return np.sum(rows.m * u * u, axis=1)


def _discrepancies(rows, V_eff):
    """``discrepancy`` of each row."""
    dev = rows.p - V_eff.laplacian(rows.R, rows.dim)
    return 0.5 * np.sum(rows.m * dev * dev, axis=1)


# weights of the discrepancy and support terms in the Lyapunov functional
EPS1, EPS2 = 0.1, 0.01


def lyapunov(energy_gap, discrepancy_value, support_gap, dim):
    """(E - E_inf) + EPS1 F + EPS2 (R - R_inf)_+^m with m = d + 1; inf past
    the float range.  Takes numbers or arrays of them."""
    with np.errstate(over="ignore"):
        tail = np.maximum(support_gap, 0.0) ** (dim.d + 1)
    out = energy_gap + EPS1 * discrepancy_value + EPS2 * tail
    return float(out) if np.ndim(out) == 0 else out


def l1_to_steady(state, steady):
    """L1 distance between a state (or profile) and a steady profile.

    A state's distance is one row of the l1 column of ``collect_series``.
    """
    target = steady.density if hasattr(steady, "density") else steady
    if isinstance(state, LagrangianState):
        return float(_l1_column([state], target._l1_side())[0])
    return _l1_profiles(state, target)


def _l1_column(states, reference):
    """L1 distance of each state's reconstruction to the reference _L1Side,
    for states of one N and one d."""
    dim = states[0].dim
    rows = [_L1Side(grid, values, support, dim) for grid, values, support, _ in _profiles(states)]
    return _l1(rows, reference)


@dataclass
class DiagnosticSeries:
    """Per-snapshot time series of every functional in the decay analysis.

    The fields before ``params`` are the columns of series.csv, in order,
    each with its column name.
    """

    times: np.ndarray = field(metadata={"column": "t"})
    energy: np.ndarray = field(metadata={"column": "E"})
    dissipation: np.ndarray = field(metadata={"column": "D"})
    discrepancy: np.ndarray = field(metadata={"column": "F"})
    support: np.ndarray = field(metadata={"column": "R"})
    lyapunov: np.ndarray = field(metadata={"column": "lyapunov"})
    l1_dist: np.ndarray = field(metadata={"column": "l1"})
    params: dict = field(default_factory=dict)   # eps1, eps2, m, E_inf, R_inf, d, m0

    def _columns(self):
        return tuple(getattr(self, f.name) for f in _COLUMN_FIELDS)

    def _check_samples(self):
        """Every entry finite and the times strictly increasing."""
        if not all(np.all(np.isfinite(c)) for c in self._columns()):
            raise ConfigError("series contains non-finite entries", reason="invalid series")
        if np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("series times must increase strictly", reason="invalid series")

    def to_csv(self, path):
        write_table(path, SERIES_COLUMNS, self._columns(), self.params)

    @classmethod
    def from_csv(cls, path):
        params, rows = read_table(path, "series file", "invalid series",
                                  lambda n: SERIES_COLUMNS)
        numbers = all(type(params.get(k, 0.0)) in (int, float) for k in ("E_inf", "R_inf"))
        if rows.shape[1] != len(SERIES_COLUMNS) or not numbers:
            raise ConfigError(f"malformed series file {path}", reason="invalid series")
        series = cls(*rows.T, params=params)
        series._check_samples()
        return series


_COLUMN_FIELDS = [f for f in fields(DiagnosticSeries) if "column" in f.metadata]
SERIES_COLUMNS = tuple(f.metadata["column"] for f in _COLUMN_FIELDS)


# snapshots per row block of collect_series
_BLOCK = 8


def _blocks(snapshots):
    """Runs of at most _BLOCK consecutive snapshots that share N, d and m0."""
    start = 0
    for k in range(1, len(snapshots) + 1):
        if (k == len(snapshots) or k - start == _BLOCK
                or _shape(snapshots[k]) != _shape(snapshots[start])):
            yield snapshots[start:k]
            start = k


def _shape(state):
    return state.n, state.dim, state.m0


def collect_series(snapshots, V, steady=None):
    """Assemble a DiagnosticSeries from quantile snapshots.

    The reference energy is the shell energy of the steady quantile
    configuration at the same N (analytic mass-equation inversion, never
    the trajectory tail), so the gap is identically zero at convergence.
    With a steady state every snapshot gets its L1 distance to the steady
    profile; without one E_inf = R_inf = 0 and the l1 column is zero.

    Every column is computed in row blocks of _BLOCK snapshots, each row
    with the arithmetic of its snapshot alone.  For the l1 column a block's
    profiles are reconstructed together, and each is merged into the
    steady profile's knots, which are sorted and evaluated once per run.
    """
    if not snapshots:
        raise ConfigError("no snapshots to diagnose", reason="invalid series")
    dim = snapshots[0].dim
    m0 = snapshots[0].m0
    m = dim.d + 1
    if steady is not None:
        ref = steady_quantile_state(V, dim, m0, snapshots[0].n)
        E_inf = shell_energy(ref, V)
        R_inf = steady.R_inf
        reference = steady.density._l1_side()
    else:
        E_inf, R_inf = 0.0, 0.0
    blocks = []
    # a value past the float range fails the run below, not with a warning here
    with np.errstate(over="ignore", invalid="ignore"):
        for states in _blocks(snapshots):
            rows = _Rows(states)
            E, D, F = _energies(rows, V), _dissipations(rows, V), _discrepancies(rows, V)
            R = _support_radii(rows.R, dim.d)
            l1 = (_l1_column(states, reference) if steady is not None
                  else np.zeros(len(states)))
            blocks.append(np.column_stack([[s.time for s in states], E, D, F, R,
                                           lyapunov(E - E_inf, F, R - R_inf, dim), l1]))
    rows = np.concatenate(blocks)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise NumericsError(f"a diagnostic overflows at t={rows[~finite][0, 0]:g}",
                            reason="numerics failure")
    params = {"eps1": EPS1, "eps2": EPS2, "m": m, "E_inf": E_inf, "R_inf": R_inf,
              "d": dim.d, "m0": m0, "n_quantiles": snapshots[0].n}
    return DiagnosticSeries(*rows.T, params=params)


def gamma_theory(dim, gamma_target=None):
    """(d+2)/((d-2)(d+1)) for d >= 3; a user-chosen target for d = 2."""
    if dim.d >= 3:
        return (dim.d + 2) / ((dim.d - 2) * (dim.d + 1))
    return gamma_target


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of value ~ C (1+t)^(-gamma) on a window."""

    gamma_hat: float
    window: tuple
    r_squared: float
    gamma_theory: float | None
    quantity: str
    n_samples: int
    super_algebraic: bool
    gamma_head: float       # fit on the early half of the window
    gamma_tail: float
    q_exponent: float | None   # 2d/(d+2) for d > 2, recorded as metadata only

    @property
    def verdict(self):
        if self.gamma_theory is None:
            return "n/a"
        ok = self.gamma_hat >= self.gamma_theory or self.super_algebraic
        return "pass" if ok else "fail"

    def to_text(self):
        gt = "none" if self.gamma_theory is None else f"{self.gamma_theory:.6g}"
        qe = "none" if self.q_exponent is None else f"{self.q_exponent:.6g}"
        return (f"quantity = {self.quantity}\n"
                f"gamma_hat = {self.gamma_hat:.10g}\n"
                f"window = [{self.window[0]:.6g}, {self.window[1]:.6g}]\n"
                f"n_samples = {self.n_samples}\n"
                f"r_squared = {self.r_squared:.10g}\n"
                f"gamma_theory = {gt}\n"
                f"super_algebraic = {self.super_algebraic}\n"
                f"gamma_head = {self.gamma_head:.6g}\n"
                f"gamma_tail = {self.gamma_tail:.6g}\n"
                f"q_exponent = {qe}\n"
                f"verdict = {self.verdict}\n")


def _loglog_slope(t, v):
    x = np.log1p(t)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return -slope, r2


def _check_window(window, t_first, t_last):
    """A fit window is a nonempty interval in [t_first, t_last], 1e-12 slack."""
    t_a, t_b = window
    if t_a < t_first - 1e-12 or t_b > t_last + 1e-12 or t_a >= t_b:
        raise ConfigError(f"window [{t_a}, {t_b}] outside series range",
                          reason="window error")


# rate quantity -> its values along a series
RATE_QUANTITIES = {
    "energy_gap": lambda series: series.energy - series.params.get("E_inf", 0.0),
    "l1": lambda series: series.l1_dist,
    "support_gap": lambda series: series.support - series.params.get("R_inf", 0.0),
}


def fit_rate(series, quantity, window, dim, gamma_target=None, min_samples=20):
    """Fit log(value) against log(1+t) and report gamma_hat = -slope.

    Exponential decay shows up as the late-half slope exceeding the early
    half; a ratio >= 1.2 flags the fit super-algebraic (the algebraic bound
    is one-sided, so faster decay is consistent with it).  ``dim`` is the
    dimension the series was run in; it sets gamma_theory.
    """
    if quantity not in RATE_QUANTITIES:
        raise ConfigError(f"unknown rate quantity {quantity!r}", reason="invalid solver config")
    t_a, t_b = window
    times = series.times
    _check_window(window, times[0], times[-1])
    mask = (times >= t_a) & (times <= t_b)
    t = times[mask]
    v = np.asarray(RATE_QUANTITIES[quantity](series))[mask]
    need = max(min_samples, 2)    # a line takes two points
    if len(t) < need:
        raise ConfigError(f"only {len(t)} samples in window, need {need}",
                          reason="window error")
    if np.any(v <= 0.0):
        raise NumericsError(f"{int(np.sum(v <= 0.0))} nonpositive values in window",
                            reason="window error")
    gamma_hat, r2 = _loglog_slope(t, v)

    x = np.log1p(t)
    split = x <= 0.5 * (x[0] + x[-1])
    g_head = g_tail = gamma_hat
    if np.sum(split) >= 5 and np.sum(~split) >= 5:
        g_head, _ = _loglog_slope(t[split], v[split])
        g_tail, _ = _loglog_slope(t[~split], v[~split])
    super_alg = g_head > 0.0 and g_tail >= 1.2 * g_head and (g_tail - g_head) > 0.1

    gt = gamma_theory(dim, gamma_target=gamma_target)
    q = 2.0 * dim.d / (dim.d + 2.0) if dim.d > 2 else None
    return RateFit(gamma_hat=float(gamma_hat), window=(float(t_a), float(t_b)),
                   r_squared=float(r2), gamma_theory=gt, quantity=quantity,
                   n_samples=int(len(t)), super_algebraic=bool(super_alg),
                   gamma_head=float(g_head), gamma_tail=float(g_tail), q_exponent=q)


def density_bounds_onset(snapshots, lower, upper):
    """Earliest snapshot time from which densities stay inside [lower, upper].

    The band is widened by 1e-12, relative and absolute, at both ends.
    Returns None if the final snapshot still violates the band.
    """
    slack = 1e-12
    onset = None
    for s in reversed(snapshots):
        ok = (np.all(s.densities >= lower * (1.0 - slack) - slack)
              and np.all(s.densities <= upper * (1.0 + slack) + slack))
        if not ok:
            break
        onset = s.time
    return onset
