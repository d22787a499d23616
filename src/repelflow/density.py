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
    b = np.diff(values)
    b /= np.diff(grid)
    a = b * grid[..., :-1]
    np.subtract(values[..., :-1], a, out=a)
    return a, b, grid ** (p + 1), grid ** (p + 2)


def _cell_power_moments(grid, values, p):
    """Exact per-cell integrals of (linear interpolant) * s^p, p >= 0 integer."""
    a, b, g1, g2 = _cell_coefficients(grid, values, p)
    # a * diff(g1) / (p + 1) + b * diff(g2) / (p + 2), in place
    cells, upper = np.diff(g1), np.diff(g2)
    cells *= a
    cells /= p + 1
    upper *= b
    upper /= p + 2
    cells += upper
    return cells


def _cumulative_mass(grid, values, dim):
    """Enclosed mass at the grid nodes (from the left end for d = 1), along
    the last axis of grid and values."""
    cells = _cell_power_moments(grid, values, dim.d - 1)
    m = (1.0 if dim.d == 1 else dim.sphere_area) * np.concatenate(
        [np.zeros(cells.shape[:-1] + (1,)), np.cumsum(cells, axis=-1)], axis=-1)
    return np.maximum.accumulate(np.clip(m, 0.0, None), axis=-1)


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
        _check_profiles(grid, values, dim)
        self.grid = grid
        self.values = np.clip(values, 0.0, None)
        self.dim = dim
        self.support_radius = float(support_radius)
        self._cells = None
        self._cum = None

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
        out = _evaluate(self.grid, self.values, self.support_radius, self.dim.d, r)
        return out if out.ndim else float(out)

    def cumulative_mass(self):
        """Enclosed mass M at the grid nodes (from the left end for d = 1)."""
        if self._cum is None:
            self._cum = _cumulative_mass(self.grid, self.values, self.dim)
        return self._cum

    def _l1_knots(self):
        """Distinct knots that l1_distance resolves this profile on.

        The grid, plus a triple around each place where the profile may jump
        to zero (both grid ends and the support radius).
        """
        return _l1_knots(self.grid, self.support_radius)

    def _l1_side(self):
        """This profile as ``l1_distance`` resolves it."""
        return _L1Side(self.grid, self.values, self.support_radius, self.dim)

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
    """int |a - b| over space, resolving both supports on a merged grid.

    The integrand |a - b| (times sigma_d r^(d-1) for d >= 2) is summed by
    the trapezoid rule on the distinct knots of both profiles (each grid,
    plus a triple around each place where the profile may jump to zero),
    with every interval between them split at its midpoint.  Both profiles
    are linear between knots, so a midpoint value is the mean of the end
    values, except on an interval that touches a place where either
    profile may jump to zero; there both are evaluated at the midpoint.
    This is one row of ``_l1``, which collect_series runs on blocks of
    snapshots.
    """
    return float(_l1([a._l1_side()], b._l1_side())[0])


def _evaluate(grid, values, support, d, r):
    """A profile's values at r: its linear interpolant, zero off the grid
    and, for d >= 2, zero beyond the support radius."""
    out = np.interp(r, grid, values, left=0.0, right=0.0)
    if d >= 2 and support < grid[-1]:
        out = np.where(r > support, 0.0, out)
    return out


def _check_profiles(grid, values, dim):
    """Refuse profiles (the rows of 2-d grid and values) that RadialDensity refuses."""
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError("density grid must increase strictly", reason="invalid density")
    if dim.d >= 2 and np.any(grid[..., 0] != 0.0):
        raise ConfigError("radial grids start at r = 0", reason="invalid density")
    if np.any(values < -1e-12) or not np.all(np.isfinite(values)):
        raise ConfigError("density values must be finite and nonnegative",
                          reason="invalid density")


def _l1_knots(grid, support):
    """The grid, plus a triple around each place where the profile may jump
    to zero (both grid ends and the support radius), distinct and sorted."""
    edges = np.array([grid[0], grid[-1], support])
    scale = _EDGE_EPS * np.maximum(np.abs(edges), 1.0)
    return _distinct(np.concatenate([grid, edges - scale, edges, edges + scale]))


class _L1Side:
    """One profile as ``_l1`` reads it.

    It evaluates as RadialDensity does, and holds its distinct knots (those
    >= 0 for d >= 2), its values there, and the points where it may jump to
    zero.  ``pieces`` keeps the lines that evaluate it at any point merged
    into its knots, for the reference of a series of distances.
    """

    def __init__(self, grid, values, support, dim):
        self.grid, self.values, self.support, self.dim = grid, values, support, dim
        knots = _l1_knots(grid, support)
        if dim.d >= 2:
            knots = knots[knots >= 0.0]
        self.knots = knots
        self.at_knots = self(knots)
        self.edges = np.array([grid[0], grid[-1], support])
        self._pieces = None

    def __call__(self, r):
        return _evaluate(self.grid, self.values, self.support, self.dim.d, r)

    @property
    def pieces(self):
        """This profile as a line on each interval of its knots, for the
        points of a merge inserted before knot i = 0 .. n: (x0, v0, slope)
        with the value v0 + (r - x0) slope, zero outside the knots and
        inside an interval where the profile jumps."""
        if self._pieces is None:
            x, v = self.knots, self.at_knots
            slopes = np.diff(v) / np.diff(x)
            # the profile is zero inside an interval that begins at a right
            # jump (the grid's right end, and for d >= 2 the support radius)
            # or ends at the left jump (the grid's left end)
            k = x.searchsorted(self.edges)
            hit = x.take(k, mode="clip") == self.edges
            if self.dim.d == 1:
                hit[2] = False
            zero = np.zeros(x.size + 1, bool)
            zero[[0, -1]] = True
            zero[k[1:][hit[1:]] + 1] = True
            zero[k[:1][hit[:1]]] = True
            self._pieces = (np.concatenate(([x[0]], x)),
                            np.where(zero, 0.0, np.concatenate(([0.0], v))),
                            np.where(zero, 0.0, np.concatenate(([0.0], slopes, [0.0]))))
        return self._pieces


def _l1(rows, ref):
    """int |a - b| (d >= 2: over space, with the weight sigma_d r^(d-1)) for
    each _L1Side a of ``rows`` against the reference _L1Side b, an array.

    Each row's knots are merged into b's with one searchsorted.  On each
    interval (x0, x1) of the merged knots, with midpoint c, the integrand
    y = |a - b| x^(d-1) is summed as (x1 - x0) / 4 (y(x0) + 2 y(c) + y(x1)),
    the trapezoid rule split at c (``l1_distance``).  a - b at c is the mean
    of its end values, except on the intervals that begin or end at a place
    where a profile may jump (either side's ``edges``), where both profiles
    are evaluated at c.
    """
    d = ref.dim.d
    if any(a.dim.d != d for a in rows):
        raise ConfigError("densities live in different dimensions", reason="invalid density")
    T, bT = ref.knots, ref.at_knots
    below, base, slope = ref.pieces
    p = d - 1
    out = np.empty(len(rows))
    for r, a in enumerate(rows):
        pos = T.searchsorted(a.knots)
        new = T.take(pos, mode="clip") != a.knots
        q, pos = a.knots[new], pos[new]
        # a's new knots, and b's there, go in before b's knot at pos
        at = pos + np.arange(q.size)
        old = np.ones(T.size + q.size, bool)
        old[at] = False
        x, diff = np.empty(old.size), np.empty(old.size)
        x[old], x[at] = T, q
        a_T = a(T)
        a_T -= bT
        diff[old] = a_T
        diff[at] = a.at_knots[new] - (base.take(pos) + (q - below.take(pos)) * slope.take(pos))
        c = x[:-1] + x[1:]
        c *= 0.5
        twice_mid = diff[:-1] + diff[1:]
        edges = np.concatenate([a.edges, ref.edges])
        k = x.searchsorted(edges)
        k = k[x.take(k, mode="clip") == edges]
        jumps = np.minimum(np.maximum(np.concatenate([k - 1, k]), 0), x.size - 2)
        twice_mid[jumps] = 2.0 * (a(c[jumps]) - ref(c[jumps]))
        y, y_mid = np.abs(diff, out=diff), np.abs(twice_mid, out=twice_mid)
        if p:
            y *= x ** p
            y_mid *= c ** p
        total = y[:-1] + y[1:]
        total += y_mid
        out[r] = np.dot(total, x[1:] - x[:-1]) / 4
    return out if d == 1 else ref.dim.sphere_area * out


def _distinct(x):
    """The distinct values of x in increasing order, as np.unique gives them.

    A stable sort merges sorted runs in linear time, so joining the knot
    sets of two profiles costs no full sort.
    """
    x = np.sort(x, kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))]
