"""Direct-summation particle solver for d = 2, 3.

The empirical measure sum w_j delta_{x_j} moves by the regularized field

    u_i = sum_{j != i} w_j z_ij / (sigma_d max(|z_ij|, delta)^(d-1) |z_ij|)
          - grad V(x_i)                                   [confinement]
    u_i = same Newtonian sum - sum_{j != i} w_j grad W(x_i - x_j)
                                                          [attraction]

with z_ij = x_i - x_j.  The kernel magnitude is clipped at the blob scale
delta while the direction is kept, so close encounters stay bounded.  The
quadratic part of W telescopes to -m0 (x_i - c0)/d around the conserved
center of mass c0, leaving only the small perturbation to pairwise work.

Direct O(N^2) summation throughout: the solver's job is to cross-check the
radial code with minimal approximation error, not to scale.  One blocked
pair sum serves velocities and energies.  Each block of rows builds the
strip of distances to itself and the later particles only, so every
unordered pair is visited once; its coefficient depends on r_ij alone and
serves both orders.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._table import read_table, write_table
from .errors import ConfigError, DivergenceError, ResolutionWarning, StiffnessError
from .lagrangian import DT_MIN, _check_rk_order, _march, _rk
from .steady import bisect

__all__ = [
    "ParticleCloud",
    "default_regularization",
    "sample_radial",
    "velocity_field",
    "advance",
    "run_particles",
    "discrete_energy",
    "cloud_support_radius",
    "save_cloud",
    "load_cloud",
]


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted point cloud; weights are fixed for the cloud's lifetime."""

    positions: np.ndarray     # (N, d)
    weights: np.ndarray       # (N,), positive, sums to m0
    delta_reg: float
    dim: "Dimension"
    time: float = 0.0

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def m0(self):
        return float(np.sum(self.weights))

    def validate(self):
        if self.dim.d not in (2, 3):
            raise ConfigError("particle clouds live in d = 2, 3 only", reason="invalid dimension")
        if self.positions.ndim != 2 or self.positions.shape[1] != self.dim.d:
            raise ConfigError("positions must be (N, d)", reason="invalid cloud")
        if not np.all(np.isfinite(self.positions)):
            raise ConfigError("positions must be finite", reason="invalid cloud")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0.0)):
            raise ConfigError("weights must be finite and positive", reason="invalid cloud")
        if not 0.0 < self.delta_reg < np.inf:
            raise ConfigError("regularization length must be finite and positive",
                              reason="invalid cloud")


def default_regularization(m0, N, dim, rho_ref):
    """Blob scale 0.5 (m0 / (N rho_ref))^(1/d), the steady spacing scale."""
    if rho_ref <= 0.0:
        raise ConfigError("reference density must be positive", reason="invalid cloud")
    return 0.5 * (m0 / (N * rho_ref)) ** (1.0 / dim.d)


def sample_radial(density, N, rng, rho_ref):
    """Stratified sampling of a radial profile: inverse-CDF radii at the
    quantile midpoints (i - 1/2)/N, independent random angles."""
    dim = density.dim
    if N < 1:
        raise ConfigError(f"need at least one particle, got N = {N}",
                          reason="invalid cloud")
    if dim.d not in (2, 3):
        raise ConfigError("particle sampling supports d = 2, 3 only",
                          reason="invalid dimension")
    rng = np.random.default_rng(rng)
    m0 = density.mass
    targets = (np.arange(1, N + 1) - 0.5) * (m0 / N)
    lo, hi = bisect(lambda r: density.enclosed_mass(r) < targets,
                    density.grid[0], density.grid[-1])
    radii = 0.5 * (lo + hi)
    if dim.d == 2:
        theta = rng.uniform(0.0, 2.0 * np.pi, N)
        pos = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        vec = rng.normal(size=(N, 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        pos = radii[:, None] * vec
    delta = default_regularization(m0, N, dim, rho_ref)
    cloud = ParticleCloud(positions=pos, weights=np.full(N, m0 / N),
                          delta_reg=delta, dim=dim)
    cloud.validate()
    return cloud


# rows of a strip per coef call: its temporaries then stay in cache, and
# the strip stays the only strip-sized array, so freeing them does not
# make glibc trim the heap and fault it back in on every call
_COEF_ROWS = 16


def _chunk_size(n):
    # rows per strip: at most 4M distances, and at most 128 rows, so the
    # in-place coefficient passes stay in cache and the square blocks,
    # whose pairs are visited in both orders, stay a small share
    return max(16, min(128, (1 << 22) // max(n, 1)))


def _pair_sum(pos, coef, rhs):
    """Row sums sum_j c_ij rhs_j over all pairs, each unordered pair once.

    Block a of rows builds the strip r_ij = |x_i - x_j| for j >= a only.
    coef(r, apart), called on slices of _COEF_ROWS rows, overwrites them
    in place with the symmetric pair coefficients c_ij wherever the mask
    apart holds; the rest of the strip, self and coincident pairs
    (r < 1e-14, no direction), is then set to 0.  The strip adds C rhs to
    its own rows and, by symmetry, C^T rhs to the later rows; its leading
    square block already holds both orders of its pairs.  Every strip and
    mask is a view of one buffer each, allocated once per call, so the
    heap does not shrink and regrow (and fault its pages back in) per block.
    Returns the sums and the number of coincident ordered pairs.
    """
    # only particle runs need scipy.spatial, which takes about 0.4 s to import
    from scipy.spatial.distance import cdist

    n = pos.shape[0]
    out = np.zeros((n,) + rhs.shape[1:])
    coincident = 0
    step = _chunk_size(n)
    strip = np.empty(step * n)
    mask = np.empty(step * n, dtype=bool)
    for a in range(0, n, step):
        b = min(a + step, n)
        shape = (b - a, n - a)
        size = shape[0] * shape[1]
        r = cdist(pos[a:b], pos[a:], out=strip[:size].reshape(shape))
        apart = np.greater_equal(r, 1e-14, out=mask[:size].reshape(shape))
        # pairs beyond the square block count in both orders
        near = r.size - np.count_nonzero(apart)
        near_square = (b - a) ** 2 - np.count_nonzero(apart[:, :b - a])
        coincident += 2 * near - near_square - (b - a)
        for lo in range(0, b - a, _COEF_ROWS):
            coef(r[lo:lo + _COEF_ROWS], apart[lo:lo + _COEF_ROWS])
        r[~apart] = 0.0
        out[a:b] += r @ rhs[a:]
        out[b:] += r[:, b - a:].T @ rhs[a:b]
    return out, coincident


def velocity_field(cloud, V=None, W=None):
    """Velocities of every particle under confinement (V) or attraction (W)."""
    if (V is None) == (W is None):
        raise ConfigError("exactly one of V (confinement) or W (attraction) "
                          "must be given", reason="invalid solver config")
    pos, w = cloud.positions, cloud.weights
    d, delta = cloud.dim.d, cloud.delta_reg
    sigma_d = cloud.dim.sphere_area
    # the pairwise part of W beyond the telescoped r^2/(2d)
    pert = None if W is None else W.perturbation

    def coef(r, apart):
        # pair speed over r: regularized Newton repulsion, minus the
        # perturbation's slope in attraction mode
        g = np.maximum(r, delta)
        g **= d - 1
        g *= sigma_d
        np.reciprocal(g, out=g)
        if pert is not None:
            g -= pert.slope(r)
        np.divide(g, r, out=r, where=apart)

    # u_i = sum_j c_ij w_j (x_i - x_j): both sums from one product with [w x, w]
    sums, coincident = _pair_sum(pos, coef, np.column_stack([w[:, None] * pos, w]))
    if coincident > 0:
        warnings.warn(f"{coincident // 2} coincident particle pairs inside the "
                      "regularization floor", ResolutionWarning)
    u = sums[:, d:] * pos - sums[:, :d]
    if V is not None:
        r = np.linalg.norm(pos, axis=1)
        safe = np.maximum(r, 1e-300)
        pull = np.where(r > 0.0, V.slope(safe) / safe, 0.0)
        u -= pull[:, None] * pos
        return u
    # attraction: quadratic part telescopes around the center of mass
    S = w @ pos
    u -= (cloud.m0 * pos - S[None, :]) / d
    return u


def advance(cloud, dt, V=None, W=None, rk_order=2, k1=None):
    """One ``_rk`` step of size dt of the positions, k1 their velocities if
    known; weights untouched.  |x| > 1e6 raises DivergenceError."""
    _check_rk_order(rk_order)

    def f(pos):
        return velocity_field(replace(cloud, positions=pos), V=V, W=W)

    new_pos = _rk(f, cloud.positions, dt, rk_order, k1)
    if np.max(np.abs(new_pos)) > 1e6:
        raise DivergenceError(f"particle left |x| <= 1e6 at t={cloud.time:g}",
                              reason="trajectory divergence")
    return replace(cloud, positions=new_pos, time=cloud.time + dt)


def run_particles(cloud, t_end, V=None, W=None, dt_max=0.05, safety=0.1,
                  rk_order=2, snapshot_stride=10):
    """Advance to t_end with dt capped so max |u| dt <= safety * delta_reg.

    Each step is one ``advance`` from the velocities that set its dt.
    Returns (final cloud, snapshots) at t = 0, every snapshot_stride-th step and t_end.
    A cap below DT_MIN raises StiffnessError, as no run could end.
    """
    if not (dt_max > 0.0 and safety > 0.0):
        raise ConfigError("dt_max and safety must be positive",
                          reason="invalid solver config")
    if snapshot_stride < 1:
        raise ConfigError("snapshot_stride must be at least 1",
                          reason="invalid solver config")

    def one_step(cloud, remaining):
        k1 = velocity_field(cloud, V=V, W=W)
        vmax = float(np.max(np.linalg.norm(k1, axis=1)))
        dt = dt_max if vmax == 0.0 else min(dt_max, safety * cloud.delta_reg / vmax)
        if dt < DT_MIN:
            raise StiffnessError(f"particle dt fell below {DT_MIN:g} at t={cloud.time:g}",
                                 reason="dt underflow")
        return advance(cloud, min(dt, remaining), V=V, W=W, rk_order=rk_order, k1=k1)

    return _march(cloud, t_end, snapshot_stride, one_step)


def discrete_energy(cloud, V=None, W=None):
    """Pairwise energy with the regularized kernel, skipping self and
    coincident pairs as velocity_field does."""
    if (V is None) == (W is None):
        raise ConfigError("exactly one of V (confinement) or W (attraction) "
                          "must be given", reason="invalid solver config")
    pos, w = cloud.positions, cloud.weights
    d, delta = cloud.dim.d, cloud.delta_reg
    coeff = cloud.dim.newton_coeff if d >= 3 else 0.0
    pert = None if W is None else W.perturbation

    def coef(r, apart):
        # pair energy: regularized Newton kernel, plus the perturbation in
        # attraction mode
        extra = pert.value(r) if pert is not None else None
        np.maximum(r, delta, out=r)
        if d == 2:
            np.log(r, out=r)
            r /= -2.0 * np.pi
        else:
            r **= 2 - d
            r *= coeff
        if extra is not None:
            r += extra

    rows, _ = _pair_sum(pos, coef, w)
    E = 0.5 * float(w @ rows)
    if V is not None:
        r = np.linalg.norm(pos, axis=1)
        return float(E + np.sum(w * V.value(r)))
    # attraction: 1/2 sum_{i != j} w_i w_j W(r_ij); quadratic part in closed form
    S = w @ pos
    Q = float(np.sum(w * np.sum(pos * pos, axis=1)))
    E += (cloud.m0 * Q - float(S @ S)) / (2.0 * d)
    return float(E)


def cloud_support_radius(cloud):
    """Largest particle radius plus half the gap to the next order statistic."""
    r = np.sort(np.linalg.norm(cloud.positions, axis=1))
    if len(r) < 2:
        return float(r[-1])
    return float(r[-1] + 0.5 * (r[-1] - r[-2]))


def _cloud_header(d):
    """Column names of a cloud table: t, id, x1..xd, w."""
    return ("t", "id") + tuple(f"x{k + 1}" for k in range(d)) + ("w",)


def _cloud_columns(cloud):
    """The columns _cloud_header names, one row per particle."""
    return (np.full(cloud.n, cloud.time), np.arange(cloud.n, dtype=float),
            *cloud.positions.T, cloud.weights)


def save_cloud(cloud, path):
    """Table of _cloud_columns; regularization and dimension as parameters."""
    write_table(path, _cloud_header(cloud.dim.d), _cloud_columns(cloud),
                {"delta_reg": cloud.delta_reg, "d": cloud.dim.d})


def load_cloud(path):
    """The cloud save_cloud wrote; a malformed file is a ConfigError."""
    from .geometry import Dimension
    params, rows = read_table(path, "cloud file", "invalid cloud",
                              lambda n: _cloud_header(n - 3))
    d, delta = params.get("d"), params.get("delta_reg")
    if type(d) is not int or type(delta) not in (int, float) or rows.shape[1] != d + 3:
        raise ConfigError(f"malformed cloud file {path}", reason="invalid cloud")
    cloud = ParticleCloud(positions=rows[:, 2:-1], weights=rows[:, -1],
                          delta_reg=float(delta), dim=Dimension(d), time=float(rows[0, 0]))
    cloud.validate()
    return cloud
