"""Energy, dissipation, and rate-fitting diagnostics.

The quantile system is the exact gradient flow of the shell energy

    E_N = 1/2 sum_ij m_i m_j N(max(R_i, R_j)) + sum_i m_i V(R_i)

(a shell of mass m at radius s generates the potential N(max(r, s))), so
dE_N/dt = -sum m_i u_i^2 holds discretely and energy gaps can be measured
against the steady quantile configuration without quadrature noise.
"""

from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, write_table
from .density import l1_distance as _l1_profiles
from .errors import ConfigError, NumericsError
from .lagrangian import LagrangianState, reconstruct_density, rhs, steady_quantile_state, support_radius

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
    R, m = state.radii, state.cell_masses
    d = state.dim.d

    def below(x):
        return np.concatenate(([0.0], np.cumsum(x)[:-1]))

    if d == 1:
        interaction = -0.5 * float(m @ (R * below(m) - below(m * R)))
    else:
        if d == 2:
            K = -np.log(R) / (2.0 * np.pi)
        else:
            K = state.dim.newton_coeff * R ** (2 - d)
        interaction = float((m * K) @ (below(m) + 0.5 * m))
    return interaction + float(np.sum(m * V.value(R)))


def dissipation(state, V_eff):
    """D = sum m_i u_i^2 >= 0, the instantaneous energy decay rate."""
    u, _ = rhs(state, V_eff)
    return float(np.sum(state.cell_masses * u * u))


def discrepancy(state, V_eff):
    """F = 1/2 int (rho - Lap V)^2 rho dx, zero exactly on the steady profile."""
    dev = state.densities - V_eff.laplacian(state.radii, state.dim)
    return 0.5 * float(np.sum(state.cell_masses * dev * dev))


# weights of the discrepancy and support terms in the Lyapunov functional
EPS1, EPS2 = 0.1, 0.01


def lyapunov(energy_gap, discrepancy_value, support_gap, dim,
             eps1=EPS1, eps2=EPS2, m=None):
    """(E - E_inf) + eps1 F + eps2 (R - R_inf)_+^m with m > d required."""
    if m is None:
        m = dim.d + 1
    if m <= dim.d:
        raise ConfigError(f"lyapunov exponent m={m} must exceed d={dim.d}",
                          reason="invalid solver config")
    if eps1 <= 0.0 or eps2 <= 0.0:
        raise ConfigError("lyapunov weights must be positive",
                          reason="invalid solver config")
    return float(energy_gap + eps1 * discrepancy_value
                 + eps2 * max(support_gap, 0.0) ** m)


def l1_to_steady(state, steady):
    """L1 distance between a state (or profile) and a steady profile."""
    profile = reconstruct_density(state) if isinstance(state, LagrangianState) else state
    target = steady.density if hasattr(steady, "density") else steady
    return _l1_profiles(profile, target)


SERIES_COLUMNS = ("t", "E", "D", "F", "R", "lyapunov", "l1")


@dataclass
class DiagnosticSeries:
    """Per-snapshot time series of every functional in the decay analysis."""

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    discrepancy: np.ndarray
    support: np.ndarray
    lyapunov: np.ndarray
    l1_dist: np.ndarray
    params: dict = field(default_factory=dict)   # eps1, eps2, m, E_inf, R_inf, d, m0

    def validate(self, energy_tol=1e-8):
        if np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("series times must increase strictly", reason="invalid series")
        cols = [self.energy, self.dissipation, self.discrepancy, self.support,
                self.lyapunov, self.l1_dist]
        if not all(np.all(np.isfinite(c)) for c in cols):
            raise NumericsError("series contains non-finite entries", reason="invalid series")
        scale = np.abs(self.energy[:-1])
        if np.any(np.diff(self.energy) > energy_tol * np.maximum(scale, 1e-300)):
            raise NumericsError("energy increased beyond tolerance", reason="invalid series")

    def to_csv(self, path):
        write_table(path, SERIES_COLUMNS,
                    (self.times, self.energy, self.dissipation, self.discrepancy,
                     self.support, self.lyapunov, self.l1_dist), self.params)

    @classmethod
    def from_csv(cls, path):
        params, rows = read_table(path, "series file", "invalid series",
                                  lambda n: SERIES_COLUMNS)
        numbers = all(type(params.get(k, 0.0)) in (int, float) for k in ("E_inf", "R_inf"))
        if rows.shape[1] != len(SERIES_COLUMNS) or not numbers:
            raise ConfigError(f"malformed series file {path}", reason="invalid series")
        return cls(*rows.T, params=params)


def collect_series(snapshots, V, steady=None, with_l1=True):
    """Assemble a DiagnosticSeries from quantile snapshots.

    The reference energy is the shell energy of the steady quantile
    configuration at the same N (analytic mass-equation inversion, never
    the trajectory tail), so the gap is identically zero at convergence.
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
        rho_inf = steady.density
    else:
        E_inf, R_inf, rho_inf = 0.0, 0.0, None
    t, E, D, F, R, L, l1 = [], [], [], [], [], [], []
    for s in snapshots:
        t.append(s.time)
        E.append(shell_energy(s, V))
        D.append(dissipation(s, V))
        F.append(discrepancy(s, V))
        R.append(support_radius(s))
        L.append(lyapunov(E[-1] - E_inf, F[-1], R[-1] - R_inf, dim, m=m))
        if rho_inf is not None and with_l1:
            l1.append(l1_to_steady(s, rho_inf))
        else:
            l1.append(0.0)
    params = {"eps1": EPS1, "eps2": EPS2, "m": m, "E_inf": E_inf, "R_inf": R_inf,
              "d": dim.d, "m0": m0, "n_quantiles": snapshots[0].n}
    return DiagnosticSeries(times=np.array(t), energy=np.array(E),
                            dissipation=np.array(D), discrepancy=np.array(F),
                            support=np.array(R), lyapunov=np.array(L),
                            l1_dist=np.array(l1), params=params)


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


def fit_rate(series, quantity, window, gamma_target=None, dim=None,
             min_samples=20):
    """Fit log(value) against log(1+t) and report gamma_hat = -slope.

    Exponential decay shows up as the late-half slope exceeding the early
    half; a ratio >= 1.2 flags the fit super-algebraic (the algebraic bound
    is one-sided, so faster decay is consistent with it).
    """
    picks = {"energy_gap": series.energy - series.params.get("E_inf", 0.0),
             "l1": series.l1_dist,
             "support_gap": series.support - series.params.get("R_inf", 0.0)}
    if quantity not in picks:
        raise ConfigError(f"unknown rate quantity {quantity!r}", reason="invalid solver config")
    t_a, t_b = window
    times = series.times
    if t_a < times[0] - 1e-12 or t_b > times[-1] + 1e-12 or t_a >= t_b:
        raise ConfigError(f"window [{t_a}, {t_b}] outside series range",
                          reason="window error")
    mask = (times >= t_a) & (times <= t_b)
    t = times[mask]
    v = np.asarray(picks[quantity])[mask]
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

    d = dim.d if dim is not None else series.params.get("d")
    gt = None
    q = None
    if d is not None:
        from .geometry import Dimension
        gt = gamma_theory(Dimension(int(d)), gamma_target=gamma_target)
        q = 2.0 * d / (d + 2.0) if d > 2 else None
    return RateFit(gamma_hat=float(gamma_hat), window=(float(t_a), float(t_b)),
                   r_squared=float(r2), gamma_theory=gt, quantity=quantity,
                   n_samples=int(len(t)), super_algebraic=bool(super_alg),
                   gamma_head=float(g_head), gamma_tail=float(g_tail), q_exponent=q)


def density_bounds_onset(snapshots, lower, upper, slack=1e-12):
    """Earliest snapshot time from which densities stay inside [lower, upper].

    Returns None if the final snapshot still violates the band.
    """
    onset = None
    for s in reversed(snapshots):
        ok = (np.all(s.densities >= lower * (1.0 - slack) - slack)
              and np.all(s.densities <= upper * (1.0 + slack) + slack))
        if not ok:
            break
        onset = s.time
    return onset
