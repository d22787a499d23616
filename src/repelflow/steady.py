"""Steady states of Newtonian repulsion balanced by radial confinement.

The candidate family is rho_R = Lap V on the ball of radius R.  Its induced
velocity vanishes on the support exactly when the mass equation

    G(R) = sigma_d R^(d-1) V'(R) = m0

holds, because the enclosed mass of Lap V telescopes to the left hand side.
G is strictly increasing for admissible confinements, so the support radius
is selected by bisection.
"""

from dataclasses import dataclass

import numpy as np

from .density import RadialDensity, newtonian_radial_potential, radial_energy
from .errors import ConfigError, PotentialError, ResolutionError, TailTooWeakError
from .potentials import check_pareto_tail

__all__ = [
    "SteadyState",
    "VelocityReport",
    "solve_support_radius",
    "build_steady_state",
    "radial_velocity",
    "verify_steady",
]


@dataclass
class SteadyState:
    """Constructed steady profile with its support radius and energy."""

    density: RadialDensity
    R_inf: float
    E_inf: float
    potential_plateau: float
    m0: float

    @property
    def dim(self):
        return self.density.dim


def _mass_map(V, dim, R):
    R = np.asarray(R, dtype=float)
    if dim.d == 1:
        return 2.0 * V.slope(R)
    return dim.sphere_area * R ** (dim.d - 1) * V.slope(R)


def bisect(below, lo, hi):
    """Bisect the brackets [lo, hi] elementwise to their fixed point.

    ``below(x)`` holds at lo and fails at hi; the brackets take the shape
    of its result.  Each step moves one end to the midpoint until the
    midpoint rounds to an end, so lo and hi finish as adjacent floats; a
    bracket holding NaN stops at once.  Returns (lo, hi).

    A scalar bracket whose predicate gives a scalar steps in Python floats:
    the same midpoints, without the cost of 0-d array arithmetic.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return lo, hi
        inside = below(mid)
        if lo.ndim == hi.ndim == np.ndim(inside) == 0:
            return _bisect_scalar(below, float(mid) if inside else float(lo),
                                  float(hi) if inside else float(mid))
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)


def _bisect_scalar(below, lo, hi):
    """``bisect`` on one bracket of Python floats; returns (lo, hi) as floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _mass_radii(V, dim, m0, targets):
    """Radii at which the steady state of mass m0 encloses each target mass.

    The confinement must have Lap V > 0 away from the origin and pass the
    Pareto tail trend; a missing bracket below r_max means the tail is too
    weak to hold m0.  On the line the radius is the signed X with
    mass target to its left, V'(X) = target - m0/2.
    """
    if m0 <= 0.0:
        raise ConfigError("total mass m0 must be positive", reason="invalid mass")
    lap = V.laplacian(np.geomspace(1e-6, 1.0, 64) * max(1.0, V.r_scale), dim)
    if np.any(lap <= 0.0):
        raise PotentialError("Lap V must be positive away from the origin",
                             reason="invalid potential")

    r_min, r_max = 1e-8, 1e6
    hi = max(1.0, V.r_scale)
    while not _mass_map(V, dim, hi) > m0:
        hi *= 2.0
        if hi > r_max:
            tail = check_pareto_tail(V, dim)
            raise TailTooWeakError(f"no support radius below {r_max:g}: {tail.note}",
                                   reason="tail too weak")
    if _mass_map(V, dim, r_min) >= m0:
        raise PotentialError(f"mass map already exceeds m0 at r = {r_min:g}",
                             reason="invalid potential")
    samples = _mass_map(V, dim, np.geomspace(r_min, hi, 64))
    if np.any(np.diff(samples) < 0.0):
        raise PotentialError("mass map sigma_d r^(d-1) V'(r) is not monotone",
                             reason="invalid potential")

    targets = np.asarray(targets, dtype=float)
    if dim.d == 1:
        level = targets - 0.5 * m0
        lo, hi = bisect(lambda x: V.slope(x) < level, -hi, hi)
    else:
        # the mass map vanishes at the origin, below every positive target
        lo, hi = bisect(lambda r: _mass_map(V, dim, r) < targets, 0.0, hi)
    return 0.5 * (lo + hi)


def solve_support_radius(V, dim, m0):
    """Support radius R solving sigma_d R^(d-1) V'(R) = m0, to the last bit."""
    R = float(_mass_radii(V, dim, m0, m0))
    if abs(_mass_map(V, dim, R) - m0) > 1e-10 * m0:
        raise PotentialError("bisection failed to meet the mass tolerance",
                             reason="invalid potential")
    return R


def build_steady_state(V, dim, m0, n=8192):
    """Profile Lap V on the support ball selected by the mass equation.

    The density grid covers exactly [0, R_inf] with n cells (for d = 1,
    [-R, R] with 2n cells, the same spacing), so the sharp support edge
    never sits inside a quadrature cell; n = 8192 keeps the piecewise-linear
    mass of curved profiles within 1e-8 relative, and a grid too coarse
    for that raises ResolutionError.  For d >= 2 a V'(0) other than 0 is
    refused: Lap V = V'' + (d-1) V'/r is then unbounded at the origin.
    """
    if dim.d >= 2 and V.slope(0.0) != 0.0:
        raise PotentialError(f"V'(0) = {float(V.slope(0.0)):g} is not 0, so Lap V = V'' + "
                             "(d-1) V'/r is unbounded at the origin and the steady "
                             "density has no bounded profile", reason="invalid potential")
    R = solve_support_radius(V, dim, m0)
    if dim.d == 1:
        grid = np.linspace(-R, R, 2 * n + 1)
    else:
        grid = np.linspace(0.0, R, n + 1)
    values = V.laplacian(grid, dim)
    if np.any(values < 0.0):
        raise PotentialError("Lap V negative inside the support",
                             reason="invalid potential")
    density = RadialDensity(grid, values, dim, support_radius=R)
    if abs(density.mass - m0) > 1e-8 * m0:
        raise ResolutionError(
            f"steady mass off by {abs(density.mass - m0) / m0:.2e} relative "
            f"on n = {n} cells; use a larger n", reason="insufficient resolution")
    E = radial_energy(density, V)
    # phi_N + V is constant on the support; read it at the first knot
    phi = newtonian_radial_potential(density)
    plateau = float(phi[0] + V.value(grid[0]))
    return SteadyState(density=density, R_inf=R, E_inf=E,
                       potential_plateau=plateau, m0=m0)


def _radial_velocity(enclosed, m0, V, dim, r):
    """M/(sigma_d r^(d-1)) - V'(r) at radius r > 0 enclosing mass M; for
    d = 1 the centered (M - m0/2) - V'(x) at the signed x."""
    if dim.d == 1:
        return (enclosed - 0.5 * m0) - V.slope(r)
    return enclosed / (dim.sphere_area * r ** (dim.d - 1)) - V.slope(r)


def radial_velocity(density, V, dim, r):
    """Radial velocity M(r)/(sigma_d r^(d-1)) - V'(r) of a radial profile.

    For d = 1 the centered form (M(x) - m0/2) - V'(x) is returned.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if dim.d >= 2 and np.any(r <= 0.0):
        raise ConfigError("radial velocity needs r > 0", reason="invalid radius")
    u = _radial_velocity(density.enclosed_mass(r), density.mass, V, dim, r)
    return float(u[0]) if scalar else u


@dataclass
class VelocityReport:
    """Sampled sup of the steady-state velocity on the support."""

    max_speed: float
    at_radius: float
    tol: float
    n_samples: int
    passed: bool


def verify_steady(state, V, tol):
    """Max |u| over 4096 radii on the support; pass iff <= tol."""
    dim = state.dim
    R = state.R_inf
    n = 4096
    if dim.d == 1:
        radii = np.linspace(state.density.grid[0], state.density.grid[-1], n)
    else:
        radii = np.linspace(R / n, R, n)
    u = radial_velocity(state.density, V, dim, radii)
    k = int(np.argmax(np.abs(u)))
    return VelocityReport(max_speed=float(np.abs(u[k])), at_radius=float(radii[k]),
                          tol=float(tol), n_samples=n, passed=bool(np.abs(u[k]) <= tol))
