"""Radial densities on a grid, their quadrature, and the L1 metric.

A RadialDensity IS its piecewise-linear interpolant: every functional
(mass, enclosed mass, Newtonian potential, energy) is evaluated by exact
per-cell integrals of that interpolant.  Closed-form cell moments keep the
quadrature stable on arbitrarily graded grids (jump-resolving knots sit
1e-9 from their neighbors), where composite Simpson weights blow up.

For d >= 2 a profile lives on increasing radii starting at 0 and carries
the surface weight sigma_d r^(d-1).  For d = 1 the grid holds signed line
coordinates and integrals are plain line integrals, so asymmetric states
(two-well data) are representable.
"""

import numpy as np

from .errors import ConfigError

__all__ = [
    "RadialDensity",
    "uniform_ball",
    "annulus",
    "line_interval",
    "newtonian_radial_potential",
    "radial_energy",
    "l1_distance",
]

# relative knot offset used to resolve jump discontinuities on shared grids
_EDGE_EPS = 1e-9


def _cell_coefficients(grid, values, p):
    """Per-cell line a + b s of the interpolant, with the node powers
    s^(p+1) and s^(p+2) that integrate it against s^p."""
    b = np.diff(values) / np.diff(grid)
    a = values[:-1] - b * grid[:-1]
    return a, b, grid ** (p + 1), grid ** (p + 2)


def _cell_power_moments(grid, values, p):
    """Exact per-cell integrals of (linear interpolant) * s^p, p >= 0 integer."""
    a, b, g1, g2 = _cell_coefficients(grid, values, p)
    return a * np.diff(g1) / (p + 1) + b * np.diff(g2) / (p + 2)


def _cumulative_mass(grid, values, dim):
    """Enclosed mass at the grid nodes (from the left end for d = 1)."""
    cells = _cell_power_moments(grid, values, dim.d - 1)
    m = (1.0 if dim.d == 1 else dim.sphere_area) * np.concatenate([[0.0], np.cumsum(cells)])
    return np.maximum.accumulate(np.clip(m, 0.0, None))


def _cell_log_moments(grid, values):
    """Exact per-cell integrals of (linear interpolant) * s * log s.

    Antiderivatives s^2 (2 log s - 1) / 4 and s^3 (3 log s - 1) / 9 both
    vanish as s -> 0, so a leading grid point at zero is regular.
    """
    b = np.diff(values) / np.diff(grid)
    a = values[:-1] - b * grid[:-1]
    s = grid
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)), 0.0)
    F1 = s ** 2 * (2.0 * log_s - 1.0) / 4.0
    F2 = s ** 3 * (3.0 * log_s - 1.0) / 9.0
    return a * np.diff(F1) + b * np.diff(F2)


class RadialDensity:
    """Sampled density with compact support.

    Values are linearly interpolated inside the grid and zero beyond the
    support radius; all integrals are exact for that interpolant.
    """

    def __init__(self, grid, values, dim, support_radius):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
            raise ConfigError("density needs matching 1d grid/values", reason="invalid density")
        if np.any(np.diff(grid) <= 0.0):
            raise ConfigError("density grid must increase strictly", reason="invalid density")
        if dim.d >= 2 and grid[0] != 0.0:
            raise ConfigError("radial grids start at r = 0", reason="invalid density")
        if np.any(values < -1e-12) or not np.all(np.isfinite(values)):
            raise ConfigError("density values must be finite and nonnegative",
                              reason="invalid density")
        self.grid = grid
        self.values = np.clip(values, 0.0, None)
        self.dim = dim
        self.support_radius = float(support_radius)
        self._cells = None
        self._cum = None
        self._knots = None

    def _weight_power(self):
        return self.dim.d - 1

    def _prefactor(self):
        return 1.0 if self.dim.d == 1 else self.dim.sphere_area

    def _quadrature(self, integrand):
        """Integral of (piecewise-linear integrand) against the radial weight."""
        cells = _cell_power_moments(self.grid, integrand, self._weight_power())
        return self._prefactor() * float(np.sum(cells))

    @property
    def mass(self):
        return float(self.cumulative_mass()[-1])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.grid, self.values, left=0.0, right=0.0)
        if self.dim.d >= 2:
            out = np.where(r > self.support_radius, 0.0, out)
        return out if out.ndim else float(out)

    def cumulative_mass(self):
        """Enclosed mass M at the grid nodes (from the left end for d = 1)."""
        if self._cum is None:
            self._cum = _cumulative_mass(self.grid, self.values, self.dim)
        return self._cum

    def _l1_knots(self):
        """Distinct knots that l1_distance resolves this profile on.

        The grid, plus a triple around each place where the profile may jump
        to zero (both grid ends and the support radius).  Kept after the
        first call, so a series of distances to one profile sorts them once.
        """
        if self._knots is None:
            knots = [self.grid]
            for edge in (self.grid[0], self.grid[-1], self.support_radius):
                scale = max(abs(edge), 1.0)
                knots.append(np.array([edge - _EDGE_EPS * scale, edge,
                                       edge + _EDGE_EPS * scale]))
            self._knots = _distinct(np.concatenate(knots))
        return self._knots

    def enclosed_mass(self, r):
        """Enclosed mass at arbitrary radii, exact for the interpolant.

        Makes velocities of steady profiles vanish to the interpolation
        error of the profile itself, with no extra interpolation noise.
        The per-cell coefficients are computed at the first query and kept,
        so the queries of a bisection share them; a profile never queried
        keeps none.
        """
        r = np.asarray(r, dtype=float)
        g = self.grid
        M = self.cumulative_mass()
        p = self._weight_power()
        if self._cells is None:
            self._cells = _cell_coefficients(g, self.values, p)
        a, b, g1, g2 = self._cells
        # the cell of r, 0 .. n - 2, with the ends of the grid in the end cells;
        # maximum and minimum clip as np.clip does, without its call overhead
        j = np.searchsorted(g[1:-1], r, side="right")
        rc = np.minimum(np.maximum(r, g[0]), g[-1])
        partial = (a[j] * (rc ** (p + 1) - g1[j]) / (p + 1)
                   + b[j] * (rc ** (p + 2) - g2[j]) / (p + 2))
        out = M[j] + self._prefactor() * np.maximum(partial, 0.0)
        out = np.where(r <= g[0], 0.0, np.where(r >= g[-1], M[-1], out))
        return out if out.ndim else float(out)

    def renormalized(self, m0):
        scale = m0 / self.mass if self.mass > 0.0 else np.inf
        if not scale < np.inf:
            raise ConfigError(f"cannot renormalize a density of mass {self.mass:g}",
                              reason="invalid density")
        return RadialDensity(self.grid, self.values * scale, self.dim,
                             support_radius=self.support_radius)


def uniform_ball(dim, value, radius, n=1024):
    """value * indicator(|x| <= radius)."""
    if value <= 0 or radius <= 0:
        raise ConfigError("ball density needs positive value and radius",
                          reason="invalid density")
    grid = np.linspace(0.0, radius, n)
    return RadialDensity(grid, np.full(n, float(value)), dim, support_radius=radius)


def annulus(dim, value, r_in, r_out, n=1024):
    """value * indicator(r_in <= |x| <= r_out); the hole is kept on the grid."""
    if not 0.0 < r_in < r_out:
        raise ConfigError("annulus needs 0 < r_in < r_out", reason="invalid density")
    inner = np.linspace(0.0, r_in * (1.0 - _EDGE_EPS), max(n // 8, 16))
    outer = np.linspace(r_in, r_out, n)
    grid = np.concatenate([inner, outer])
    values = np.concatenate([np.zeros_like(inner), np.full(n, float(value))])
    return RadialDensity(grid, values, dim, support_radius=r_out)


def line_interval(dim, value, a, b, n=1024):
    """value * indicator([a, b]) on the line (d = 1 only)."""
    if dim.d != 1:
        raise ConfigError("line_interval is a d = 1 constructor", reason="invalid dimension")
    if b <= a:
        raise ConfigError("interval needs a < b", reason="invalid density")
    grid = np.linspace(a, b, n)
    return RadialDensity(grid, np.full(n, float(value)), dim,
                         support_radius=max(abs(a), abs(b)))


def newtonian_radial_potential(density):
    """Potential Phi_N = N * rho on the density's grid.

    A shell of mass dm at radius s contributes N(max(r, s)) dm, so

        d >= 3:  Phi(r) = c_d r^(2-d) M(r) + c_d sigma_d int_r^inf rho s ds
        d  = 2:  Phi(r) = -(log r) M(r) / (2 pi) - int_r^inf rho s log s ds

    which has Phi(inf) = 0 for d >= 3 and the exact single-layer value at
    every radius for d = 2 (so differences need no anchoring convention).
    For d = 1 the grid holds signed x and N(x) = -|x|/2, so

        d  = 1:  Phi(x) = -1/2 int |x - y| rho(y) dy,

    split at y = x into prefix and suffix moments.
    """
    dim = density.dim
    r = density.grid
    M = density.cumulative_mass()
    if dim.d == 2:
        inner = np.concatenate([[0.0], np.cumsum(_cell_log_moments(r, density.values))])
        outer_tail = inner[-1] - inner
        with np.errstate(divide="ignore", invalid="ignore"):
            head = np.where(r > 0.0, -np.log(np.where(r > 0, r, 1.0)) * M / (2.0 * np.pi), 0.0)
        return head - outer_tail
    moment = np.concatenate([[0.0], np.cumsum(_cell_power_moments(r, density.values, 1))])
    tail = moment[-1] - moment
    if dim.d == 1:
        return -0.5 * (r * M - moment + tail - r * (M[-1] - M))
    c = dim.newton_coeff
    head = np.zeros_like(r)
    head[r > 0.0] = c * r[r > 0.0] ** (2 - dim.d) * M[r > 0.0]
    return head + c * dim.sphere_area * tail


def radial_energy(density, V):
    """E[rho] = 1/2 int Phi_N rho + int V rho for a radial profile."""
    phi = newtonian_radial_potential(density)
    integrand = (0.5 * phi + V.value(density.grid)) * density.values
    return float(density._quadrature(integrand))


def l1_distance(a, b):
    """int |a - b| over space, resolving both supports on a merged grid."""
    if a.dim.d != b.dim.d:
        raise ConfigError("densities live in different dimensions", reason="invalid density")
    d = a.dim.d
    merged = _distinct(np.concatenate([a._l1_knots(), b._l1_knots()]))
    if d >= 2:
        merged = merged[merged >= 0.0]
    # interleave the sorted knots with their midpoints; a midpoint of two
    # adjacent floats rounds onto a knot and is dropped
    fine = np.empty(2 * len(merged) - 1)
    fine[0::2] = merged
    fine[1::2] = 0.5 * (merged[1:] + merged[:-1])
    rising = np.diff(fine) > 0.0
    if not rising.all():
        fine = fine[np.concatenate(([True], rising))]
    diff = np.abs(a(fine) - b(fine))
    if d == 1:
        return float(np.trapezoid(diff, fine))
    return float(a.dim.sphere_area * np.trapezoid(diff * fine ** (d - 1), fine))


def _distinct(x):
    """The distinct values of x in increasing order, as np.unique gives them.

    A stable sort merges sorted runs in linear time, so joining the knot
    sets of two profiles costs no full sort.
    """
    x = np.sort(x, kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))]
