"""Steady states for Newtonian repulsion plus near-quadratic attraction.

With W(x) = |x|^2/(2d) + w(x), the field generated by a radial density is
V_tilde = W * rho, whose Laplacian is m0 + (Lap w * rho).  The steady
profile is the fixed point of

    rho^(k+1) = Lap V_tilde^k on the ball whose enclosed integral is m0,

starting from the w = 0 closed form (density m0 on the ball of unit
volume).  The smallness conditions on eps = sup |Lap w| that make the
underlying contraction provable are evaluated verbatim; runs beyond them
are allowed behind an explicit flag since the sufficient conditions are
conservative.

Each convolution integrates the sphere mean K(r, s) of the kernel over the
density's radii s.  K of a smooth kernel is analytic, hence numerically low
rank: ``_convolution``, one operator per kernel and density, reads it from a
p x p Chebyshev-Lobatto grid whose half-node interpolant certifies it (w = 0
at p = 17, with C = 0), and evaluates it at every (r, s) pair only when no
grid up to p = 257 certifies.  The sizes tried nest, so each grid evaluates
the kernel only on the nodes the grid before it lacks.  The fixed point
certifies its Lap w grid once, on [0, 2 R_bar] x [0, R_bar] with
R_bar = omega_d^(-1/d) (1 - eps)^(-1/d) the closing estimate of
``check_smallness``: every iterate has mass m0 and density
m0 + Lap w * rho >= m0 (1 - eps), so its radius is at most R_bar.
A density beyond the kept box (eps >= 1, or a declared eps below
sup |Lap w|) certifies a grid on its own box, which is kept from then on.
The shell sums of ``effective_attraction_potential`` read the same kind of
grid for Lap w and for w, which each attraction kernel keeps per d under
the same box rule (``_KeptBox``): [0, 2 R_bar] x [0, R_bar] when the first
state fits in it, else that state's own box, certified again only for a
state that reaches past the kept box.  A kernel that certifies at no p is
summed pointwise (``_sphere_mean``).
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._cubic import hermite, simpson
from .density import RadialDensity, newtonian_radial_potential
from .errors import (ConfigError, ConvergenceError, NumericsError,
                     ResolutionError, ResolutionWarning)
from .geometry import Dimension, edge_repulsion_bound
from .potentials import RadialPotential, table_potential
from .steady import SteadyState, bisect, verify_steady

__all__ = [
    "SelfConsistentField",
    "SmallnessReport",
    "spherical_mean_convolve",
    "solve_attraction_steady",
    "effective_attraction_potential",
    "check_smallness",
]

_THETA_NODES = 64
# d = 3 table of G(t) = int_0^t u f(u) du: knots over [0, max r + max s]
_G_KNOTS = 4097
# Gauss nodes per table piece and per directly integrated short interval
_GAUSS_NODES = 8
# pairs with 2 min(r, s) under this many knot spacings skip the table, whose
# difference G(r+s) - G(|r-s|) loses digits to cancellation as r s -> 0
_SHORT_SPACINGS = 128
# Chebyshev-Lobatto grid sizes tried for a convolution's low-rank kernel; each
# holds the one before it on every other node
_LOBATTO_SIZES = (17, 33, 65, 129, 257)
# a grid is certified when the interpolant on its every other node reproduces
# it at all nodes to this fraction of its largest value
_CERTIFY_TOL = 1e-13
# a density whose radius exceeds the fixed point's kept Lap w box by no more
# than this fraction reads that box's grid: at w = 0 the radius is R_bar
# itself, up to the rounding of its bisection
_BOX_SLACK = 1e-12
# elements per (rows, len(s), 64) array of a blocked kernel evaluation
_BLOCK_ELEMENTS = 2 ** 15
# Simpson points of a convolution's s-grid: 512 whole panels
_S_POINTS = 1025
# the refinement check's bound on a convolution's estimated Simpson error, as
# a fraction of its largest |value| over the radii asked for
_REFINE_TOL = 1e-6
# knots of the radial grid that tabulates the shell flow's attraction field
_FIELD_KNOTS = 48
# fewest knots of the fixed-point grid: its field table of 2 n_grid - 1 radii needs 4
MIN_GRID = 3


@functools.cache
def _gauss_legendre(n):
    """n-node Gauss-Legendre rule on [-1, 1], computed once and read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _angular_mean(fs, dim):
    """Kernel mean(r, s) by 64-node Gauss-Legendre in the angle, any d >= 2.

    Returns one row per f in ``fs`` for broadcastable r, s >= 0.
    """
    # Gauss-Legendre nodes on [0, pi] with the sin^(d-2) weight folded in
    x, w = _gauss_legendre(_THETA_NODES)
    theta = 0.5 * np.pi * (x + 1.0)
    tw = 0.5 * np.pi * w * np.sin(theta) ** (dim.d - 2)
    cos_t = np.cos(theta)
    scale = Dimension(dim.d - 1).sphere_area / dim.sphere_area

    def angular(r, s):
        r, s = r[..., None], s[..., None]
        arg = np.sqrt(np.maximum(r ** 2 + s ** 2 - 2.0 * r * s * cos_t, 0.0))
        return np.stack([scale * (np.asarray(f(arg)) @ tw) for f in fs])
    return angular


def _sphere_mean(fs, dim, t_max):
    """Kernel mean(r, s): the average of f(|x - y|) over |y| = s at |x| = r.

    A shell of mass m at radius s convolves to m mean(r, s).  Valid for
    broadcastable r, s >= 0 with r + s <= t_max; returns one row per f in
    ``fs``, shape (len(fs),) + broadcast shape.  In d = 3 the
    average is exactly (G(r+s) - G(|r-s|)) / (2 r s) with G' = t f(t); one
    table of every G is built here from Gauss pieces on each knot interval
    and fitted by a cubic Hermite spline with the exact slope t f(t).
    Short intervals, where that difference cancels, are integrated
    directly; r = s = 0 gives f(0).  Other d use the angular rule.
    """
    if dim.d != 3:
        return _angular_mean(fs, dim)

    x, w = _gauss_legendre(_GAUSS_NODES)
    # t_max = 0 means r = s = 0 throughout: every pair is short
    knots = np.linspace(0.0, t_max or 1.0, _G_KNOTS)
    h = knots[1]
    nodes = knots[:-1, None] + 0.5 * h * (x + 1.0)
    pieces = [(nodes * f(nodes)) @ w * (0.5 * h) for f in fs]
    G = hermite(
        knots, np.column_stack([np.concatenate(([0.0], np.cumsum(p))) for p in pieces]),
        np.column_stack([knots * f(knots) for f in fs]))

    def identity(r, s):
        lo, hi = np.minimum(r, s), np.maximum(r, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            # one contiguous row per f, so each row is a plain array downstream
            out = (np.ascontiguousarray(np.moveaxis(G(hi + lo) - G(hi - lo), -1, 0))
                   / (2.0 * hi * lo))
        short = 2.0 * lo < _SHORT_SPACINGS * h
        lo, hi = lo[short], hi[short]
        # int t f(t) dt over [hi - lo, hi + lo] / (2 r s), nodes t = hi + lo x
        q = np.divide(lo, hi, out=np.zeros_like(lo), where=hi > 0.0)
        for k, f in enumerate(fs):
            out[k, ...][short] = 0.5 * (f(hi[:, None] + lo[:, None] * x)
                                        * (1.0 + q[:, None] * x)) @ w
        return out
    return identity


def _kernel_rows(mean, r, s):
    """Yield (rows, mean(r[rows], s)) over blocks of r for one-function kernels.

    A block holds as many rows as keep the angular rule's (rows, len(s), 64)
    arrays near _BLOCK_ELEMENTS elements, and at least one.
    """
    block = max(1, _BLOCK_ELEMENTS // (s.size * _THETA_NODES))
    for lo in range(0, r.size, block):
        rows = slice(lo, lo + block)
        yield rows, mean(r[rows, None], s)[0]


def _lobatto(p, hi):
    """The p Chebyshev-Lobatto nodes on [0, hi], increasing, both ends exact.

    Node 2k of p nodes is bit-identical to node k of (p + 1) / 2.
    """
    return 0.5 * hi * (1.0 - np.cos(np.pi * np.arange(p) / (p - 1)))


def _barycentric(nodes, t):
    """Matrix B such that B @ g(nodes) interpolates g at the points t.

    The second-kind barycentric formula for Chebyshev-Lobatto nodes: weights
    (-1)^k, halved at both ends.  A point on a node reads that node.
    """
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    diff = t[:, None] - nodes
    hit = diff == 0.0
    # in place: the rows with a hit are overwritten below
    with np.errstate(divide="ignore"):
        B = np.divide(w, diff, out=diff)
    on_node = hit.any(axis=1)
    B[on_node] = hit[on_node]
    B /= B.sum(axis=1, keepdims=True)
    return B


def _fill(C, mean, x, y):
    """C[i, j] = mean(x_i, y_j) for every row of x, block by block."""
    for rows, block in _kernel_rows(mean, x, y):
        C[rows] = block


def _lowrank_kernel(f, dim, r_hi, s_hi):
    """Certified Chebyshev-Lobatto grid (x, y, C) of the kernel of f, or None.

    C holds the angular-rule mean(x_i, y_j) on p x p nodes over
    [0, r_hi] x [0, s_hi], for the first p of _LOBATTO_SIZES at which the
    interpolant on every other node reproduces C at all nodes to
    _CERTIFY_TOL of max |C|.  None when no p certifies.  The grids nest:
    node 2k of p is node k of the previous size, bit for bit, so each grid
    copies the one before it onto its even rows and columns and evaluates
    the kernel only on the new nodes.
    """
    mean = _angular_mean((f,), dim)
    C = None
    for p in _LOBATTO_SIZES:
        # a zero-length side holds one point, which any interval covers
        x, y = _lobatto(p, r_hi or 1.0), _lobatto(p, s_hi or 1.0)
        coarse, C = C, np.empty((p, p))
        if coarse is None:
            _fill(C, mean, x, y)
        else:
            C[::2, ::2] = coarse
            _fill(C[1::2], mean, x[1::2], y)
            _fill(C[::2, 1::2], mean, x[::2], y[1::2])
        half = _barycentric(x[::2], x) @ C[::2, ::2] @ _barycentric(y[::2], y).T
        if np.max(np.abs(half - C)) <= _CERTIFY_TOL * np.max(np.abs(C)):
            return x, y, C
    return None


class _KeptBox:
    """A kernel's grid (``_lowrank_kernel``) on a kept box [0, 2 a] x [0, a].

    Called as a ``kernel_grid`` with the box [0, r_hi] x [0, s_hi] an
    operator needs, it certifies a grid only when that box reaches past
    the kept one by more than rounding, max(r_hi / 2, s_hi) > a; the new
    side a is ``bound`` (an a-priori bound on every reach) when it holds
    the reach, else the reach itself.  The kept grid is None when none
    certifies on the kept box.
    """

    def __init__(self, bound):
        self.bound, self.side, self.grid = bound, 0.0, None

    def __call__(self, f, dim, r_hi, s_hi):
        reach = max(0.5 * r_hi, s_hi)
        if reach > self.side * (1.0 + _BOX_SLACK):
            self.side = self.bound if reach <= self.bound < np.inf else reach
            self.grid = _lowrank_kernel(f, dim, 2.0 * self.side, self.side)
        return self.grid


def _convolution(f, rho, dim, r_hi, refine_check=True, kernel_grid=None):
    """``spherical_mean_convolve`` as an operator r -> (f * rho)(r), r in [0, r_hi].

    ``kernel_grid(f, dim, r_hi, s_hi)`` gives the kernel grid, certified on
    a box that holds [0, r_hi] x [0, s_hi], or None when none certifies
    there; by default ``_lowrank_kernel`` certifies one on exactly that box.
    On the low-rank path the s-integral folds into p node values
    sigma_d C simpson(weight B_s^T, s), so any set of radii costs one
    barycentric product.  ``refine_check`` False skips the s-grid doubling.
    """
    if dim.d < 2:
        raise ConfigError("spherical convolution needs d >= 2", reason="invalid dimension")
    s_hi = min(rho.grid[-1], rho.support_radius)
    counts = (_S_POINTS, 2 * _S_POINTS - 1) if refine_check else (_S_POINTS,)
    s_grids = [np.linspace(0.0, s_hi, n) for n in counts]
    weights = [rho(s) * s ** (dim.d - 1) for s in s_grids]
    kernel = (kernel_grid or _lowrank_kernel)(f, dim, r_hi, s_hi)
    if kernel is None:
        mean = _sphere_mean((f,), dim, r_hi + s_hi)

        def integrals(r):
            out = np.empty((len(s_grids), r.size))
            for k, (s, weight) in enumerate(zip(s_grids, weights)):
                for rows, block in _kernel_rows(mean, r, s):
                    out[k, rows] = simpson(weight * block, x=s, axis=1)
            return dim.sphere_area * out
    else:
        x, y, C = kernel
        nodes = [dim.sphere_area * (C @ simpson(weight * _barycentric(y, s).T, x=s))
                 for s, weight in zip(s_grids, weights)]

        def integrals(r):
            B = _barycentric(x, r)
            return [B @ v for v in nodes]

    def convolve(r):
        *coarse, out = integrals(np.atleast_1d(np.asarray(r, dtype=float)))
        # composite Simpson errs like h^4, so halving h leaves 1/16 of the
        # coarse error: the doubled grid's move is 15/16 of it
        bound = _REFINE_TOL * float(np.max(np.abs(out), initial=0.0))
        if any(16.0 / 15.0 * float(np.max(np.abs(out - c), initial=0.0)) > bound
               for c in coarse):
            raise ResolutionError("spherical convolution did not converge under "
                                  "s-grid doubling", reason="insufficient resolution")
        return out
    return convolve


def spherical_mean_convolve(f, rho, dim, r):
    """(f * rho)(r) for radial f and rho.

    Reduces the volume convolution to

        sigma_d int rho(s) s^(d-1) mean_(|y|=s) f(|x - y|) ds,   |x| = r,

    with composite Simpson on a uniform grid of 1025 points over the
    support, 512 whole panels (the refinement check uses 2049).  The sphere
    mean of a smooth f is analytic in (r, s), so it is read from a p x p
    Chebyshev-Lobatto grid over [0, max r] x [0, s_max] of the angular rule,
    certified by its half-node interpolant (``_lowrank_kernel``): with
    barycentric matrices B_r and B_s, the result is
    sigma_d B_r C simpson(weight B_s^T, s).  When no p up to 257 certifies
    (a kernel too narrow for the grid), the pointwise kernel runs at every
    (r, s) pair: in d = 3 the identity (G(r+s) - G(|r-s|)) / (2 r s),
    G' = t f(t), elsewhere the angular rule.  The result is the 2049-point
    one; the 1025-point one estimates the Simpson error, 16/15 of their
    difference by the h^4 law, which must stay below 1e-6 of the largest
    |result| over r, else a resolution error is raised.  The check decides
    pass or fail and changes no value.
    """
    return _convolution(f, rho, dim, float(np.max(r, initial=0.0)))(r)


@dataclass
class SmallnessReport:
    """Verbatim evaluation of the two sufficient smallness conditions."""

    epsilon: float
    d: int
    supp_measure: float
    R_inf: float
    lhs1: float
    rhs1: float
    cond1_ok: bool
    lhs2: float
    rhs2: float
    cond2_ok: bool
    eps_star: float

    @property
    def passed(self):
        return self.cond1_ok and self.cond2_ok


def _smallness_sides(eps, dim, c_d_prime):
    d = dim.d
    c_lem = edge_repulsion_bound(dim, 1.0)
    rhs2 = c_lem * (2 ** d - 1) / 2 ** d
    if eps >= 1.0:    # both estimates are unbounded
        return np.inf, 0.0, np.inf, rhs2, np.inf, np.inf
    S = 1.0 / (1.0 - eps)
    R = c_d_prime / (1.0 - eps) ** (1.0 / d)
    rhs1 = c_lem / (2.0 * R) ** d
    if 1.0 - 2.0 * eps * S <= 0.0:
        return np.inf, rhs1, np.inf, rhs2, S, R
    bracket = (1.0 + 4.0 * eps * S) / (1.0 - 2.0 * eps * S) + 2.0
    lhs1 = 2.0 * eps * (1.0 + eps) / (1.0 - eps) / d * bracket
    lhs2 = 2.0 * eps * (1.0 + eps) / (1.0 - eps) ** 2 / d * bracket
    return lhs1, rhs1, lhs2, rhs2, S, R


def check_smallness(epsilon, dim):
    """Evaluate both sufficient conditions on eps = sup |Lap w|.

    |supp| and R_inf follow the closing estimates |supp| <= 1/(1-eps) and
    R_inf <= c_d'/(1-eps)^(1/d), with c_d' the w = 0 support radius
    omega_d^(-1/d), so the report depends on the dimension alone.
    ``eps_star`` is the largest eps at which both conditions still hold,
    found by bisection on the monotone left-hand sides.
    """
    if dim.d < 2:
        raise ConfigError("smallness conditions need d >= 2", reason="invalid dimension")
    c_d_prime = dim.ball_volume ** (-1.0 / dim.d)
    lhs1, rhs1, lhs2, rhs2, S, R = _smallness_sides(epsilon, dim, c_d_prime)

    def both_hold(eps):
        l1, r1, l2, r2, _, _ = _smallness_sides(float(eps), dim, c_d_prime)
        return l1 < r1 and l2 < r2

    eps_star, _ = bisect(both_hold, 0.0, 0.49)
    return SmallnessReport(epsilon=float(epsilon), d=dim.d, supp_measure=float(S),
                           R_inf=float(R), lhs1=float(lhs1), rhs1=float(rhs1),
                           cond1_ok=bool(lhs1 < rhs1), lhs2=float(lhs2),
                           rhs2=float(rhs2), cond2_ok=bool(lhs2 < rhs2),
                           eps_star=float(eps_star))


def _smallness_gate(W, dim, allow_unproven):
    """W's smallness report; a failure is refused, or only warned of if allow_unproven."""
    report = check_smallness(W.epsilon, dim)
    if not report.passed:
        if not allow_unproven:
            raise ConfigError(
                f"eps = {W.epsilon:g} violates the sufficient smallness conditions "
                f"(eps* = {report.eps_star:.4g}); pass allow_unproven=True to "
                "iterate anyway", reason="smallness violated")
        warnings.warn(f"eps = {W.epsilon:g} beyond the provable range "
                      f"(eps* = {report.eps_star:.4g}); contraction is checked "
                      "empirically", ResolutionWarning)
    return report


@dataclass
class SelfConsistentField:
    """Converged attraction field with its iteration history."""

    V_tilde: RadialPotential
    laplacian_bounds: tuple
    iteration: int
    residual: float
    residual_history: np.ndarray
    radius_history: np.ndarray


def _radius_from_laplacian(grid, lap_vals, dim, m0):
    """Ball radius enclosing exactly m0 of the field's Laplacian."""
    profile = RadialDensity(grid, np.clip(lap_vals, 0.0, None), dim,
                            support_radius=grid[-1])
    total = profile.enclosed_mass(grid[-1])
    if total <= m0:
        raise NumericsError("field Laplacian holds too little mass on the "
                            "search grid", reason="numerics failure")
    lo, hi = bisect(lambda r: profile.enclosed_mass(r) < m0, 0.0, grid[-1])
    return float(0.5 * (lo + hi))


def _field_tables(grid, lap_vals, dim):
    """Slope and curvature of a radial field from its Laplacian values.

    Uses r^(d-1) V'(r) = int_0^r Lap V s^(d-1) ds and
    V'' = Lap V - (d-1) V'/r (with V''(0) = Lap V(0)/d).
    """
    carrier = RadialDensity(grid, np.clip(lap_vals, 0.0, None), dim,
                            support_radius=grid[-1])
    cum = carrier.cumulative_mass()
    slope = np.zeros_like(grid)
    slope[1:] = cum[1:] / (dim.sphere_area * grid[1:] ** (dim.d - 1))
    second = np.empty_like(grid)
    second[0] = lap_vals[0] / dim.d
    second[1:] = lap_vals[1:] - (dim.d - 1) * slope[1:] / grid[1:]
    return slope, second


def _field_and_energy(density, W, r):
    """(W * density)(r) at radii r that begin with the density's grid, the
    quadratic part in closed form, and the energy that field gives,
    E = 1/2 int Phi_N rho + 1/2 int (W * rho) rho."""
    grid = density.grid
    second_moment = float(density._quadrature(density.values * grid * grid))
    w = _convolution(W.perturbation.value, density, density.dim, float(np.max(r)))
    field = (density.mass * r * r + second_moment) / (2.0 * density.dim.d) + w(r)
    phi = newtonian_radial_potential(density)
    return field, float(density._quadrature(
        (0.5 * phi + 0.5 * field[:grid.size]) * density.values))


def solve_attraction_steady(W, dim, m0, tol=1e-9, max_iter=60, n_grid=1025,
                            allow_unproven=False):
    """Fixed-point iteration for the attraction steady state.

    Returns (SteadyState, SelfConsistentField).  The final velocity check
    recomputes the convolution from the converged density from scratch, so
    it is not a tautology of the iteration's own bookkeeping.

    Every density the iteration builds has mass m0, and since
    |Lap w| <= eps its values m0 + Lap w * rho are at least m0 (1 - eps): its
    radius is at most R_bar = omega_d^(-1/d) (1 - eps)^(-1/d), the
    ``R_inf`` estimate of ``check_smallness``.  So one Lap w grid, certified
    on [0, 2 R_bar] x [0, R_bar], serves every iteration's operator and the
    converged field's; with the w grid of the energy a solve certifies two.
    A density reaching past the kept box by more than rounding (eps >= 1,
    where R_bar is infinite, or a declared eps below sup |Lap w|) certifies
    a grid on its own box [0, 2 R_k] x [0, R_k], which is kept instead.
    """
    if n_grid < MIN_GRID:
        raise ConfigError(f"n_grid must be at least {MIN_GRID}",
                          reason="invalid solver config")
    if max_iter < 1 or not tol > 0.0:
        raise ConfigError(f"need tol > 0 and max_iter >= 1, got {tol!r} and {max_iter!r}",
                          reason="invalid solver config")
    R_bar = _smallness_gate(W, dim, allow_unproven).R_inf

    def dw(r):
        return W.perturbation.laplacian(r, dim)

    lap_w_grid = _KeptBox(R_bar)

    R = dim.ball_volume ** (-1.0 / dim.d) * 1.0
    # w = 0 closed form: rho = m0 on the ball of unit volume scaled by mass
    # equation sigma_d int_0^R m0 s^(d-1) ds = m0 => |B_R| = 1
    grid = np.linspace(0.0, R, n_grid)
    lap = np.full(n_grid, m0)
    rho = RadialDensity(grid, lap, dim, support_radius=R)
    residuals, radii = [], [float(R)]
    damping = 1.0
    converged = False

    for _ in range(max_iter):
        lap_w = _convolution(dw, rho, dim, 2.0 * rho.support_radius,
                             refine_check=False, kernel_grid=lap_w_grid)
        search = np.linspace(0.0, 2.0 * rho.support_radius, 2 * n_grid - 1)
        R_new = _radius_from_laplacian(search, m0 + lap_w(search), dim, m0)
        grid_new = np.linspace(0.0, R_new, n_grid)
        lap_new = m0 + lap_w(grid_new)
        old_on_new = np.interp(grid_new, rho.grid, rho.values)
        residual = float(np.max(np.abs(lap_new - old_on_new)))
        if len(residuals) >= 2 and residual > residuals[-1] > residuals[-2]:
            damping = 0.5
        lap_mix = (1.0 - damping) * old_on_new + damping * lap_new
        rho = RadialDensity(grid_new, lap_mix, dim, support_radius=R_new)
        rho = rho.renormalized(m0)
        residuals.append(residual)
        radii.append(float(R_new))
        if residual <= tol * m0:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"attraction iteration did not reach {tol:g} m0 in {max_iter} steps",
            reason="did not converge", residual_history=residuals)

    R_inf = rho.support_radius
    lo_b, hi_b = m0 * (1.0 - W.epsilon), m0 * (1.0 + W.epsilon)
    slack = 1e-9 * m0
    if np.any(rho.values < lo_b - slack) or np.any(rho.values > hi_b + slack):
        raise NumericsError("converged profile violates the m0 (1 +- eps) band",
                            reason="numerics failure")

    # fresh field from the converged density, for the honest velocity check;
    # its knots begin with the density's grid, where E_inf reads the field
    field_grid = np.concatenate([rho.grid, R_inf + rho.grid[1:]])
    lap_field = m0 + _convolution(dw, rho, dim, 2.0 * R_inf,
                                  kernel_grid=lap_w_grid)(field_grid)
    slope, second = _field_tables(field_grid, lap_field, dim)
    value, E_inf = _field_and_energy(rho, W, field_grid)
    V_tilde = table_potential(field_grid, value, slope, second, name="attraction field")

    state = SteadyState(density=rho, R_inf=float(R_inf), E_inf=float(E_inf),
                        potential_plateau=float(value[0]), m0=float(m0))
    check = verify_steady(state, V_tilde, tol=1e-6 * m0 * R_inf)
    if not check.passed:
        raise NumericsError(
            f"converged state moves: sup |u| = {check.max_speed:.3e} "
            f"> {check.tol:.3e}", reason="numerics failure",
            velocity_report=check)
    field = SelfConsistentField(V_tilde=V_tilde,
                                laplacian_bounds=(lo_b, hi_b),
                                iteration=len(residuals),
                                residual=residuals[-1],
                                residual_history=np.asarray(residuals),
                                radius_history=np.asarray(radii))
    return state, field


def effective_attraction_potential(state, W):
    """Field W * rho of a quantile state, for attraction-mode dynamics.

    The quadratic part is exact (m0 r^2/(2d) plus the second moment); the
    perturbation is summed over shells at the quantile radii and tabulated
    on a coarse grid of 48 radii over [0, 2 R_N], cheap enough to refresh
    every accepted step.  The shell sums of Lap w and of w each read a
    certified kernel grid that W keeps for d: on [0, 2 R_bar] x [0, R_bar]
    (``check_smallness``' R_inf, which bounds the steady radius) when the
    first state fits in it, else on that state's own box, and certified
    again only when a state reaches past the kept box (``_KeptBox``).  A
    kernel without a grid sums the pointwise sphere mean.
    """
    dim = state.dim
    if dim.d < 2:
        raise ConfigError("attraction dynamics needs d >= 2", reason="invalid dimension")
    m = state.cell_masses
    R = state.radii
    m0 = state.m0
    r_hi = 2.0 * float(R[-1]) + 1e-9
    grid = np.linspace(0.0, r_hi, _FIELD_KNOTS)
    second_moment = float(np.sum(m * R * R))
    pert = W.perturbation
    kernels = (lambda z: pert.laplacian(z, dim), pert.value)
    kept = W._shell_grids
    if dim.d not in kept:
        # the fixed point's a-priori radius bound: states relaxing to it stay inside
        R_bar = check_smallness(W.epsilon, dim).R_inf
        kept[dim.d] = (_KeptBox(R_bar), _KeptBox(R_bar))
    kernel_grids = [box(f, dim, r_hi, float(R[-1])) for box, f in zip(kept[dim.d], kernels)]
    pointwise = [f for f, kernel in zip(kernels, kernel_grids) if kernel is None]
    # one pointwise call, so the d = 3 table of G is built once for both fields
    shells = iter(_sphere_mean(pointwise, dim, r_hi + float(R[-1]))(grid[:, None], R[None, :]) @ m
                  if pointwise else ())
    sums = [next(shells) if kernel is None
            else _barycentric(kernel[0], grid) @ (kernel[2] @ (_barycentric(kernel[1], R).T @ m))
            for kernel in kernel_grids]
    lap = m0 + sums[0]
    value = (m0 * grid ** 2 + second_moment) / (2.0 * dim.d) + sums[1]
    slope, second = _field_tables(grid, lap, dim)
    return table_potential(grid, value, slope, second, name="attraction field")
