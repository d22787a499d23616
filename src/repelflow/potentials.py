"""Radial confinement and attraction potentials.

A confinement V enters the dynamics only through V', and through the radial
Laplacian

    Lap V(r) = V''(r) + (d - 1) V'(r) / r ,   Lap V(0) = d V''(0) if V'(0) = 0,

which is the steady density value inside the support.  A confinement is
given by exact closures for V, V' and V''.

Attraction kernels are written as W(r) = r^2 / (2d) + w(r); the size of the
perturbation is measured by eps = sup |Lap w|, the quantity that controls
how far the self-consistent steady state can drift from the unperturbed one.
A perturbation is given together with its eps.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._cubic import hermite, pchip
from .errors import ConfigError

__all__ = [
    "RadialPotential",
    "quadratic",
    "quartic",
    "log_tail",
    "double_well",
    "zero_potential",
    "table_potential",
    "AttractionPotential",
    "TailReport",
    "CompactTailReport",
    "check_pareto_tail",
    "check_compact_support_tail",
]


class RadialPotential:
    """Confinement given by closures for V, V' and V''.

    Closures must accept numpy arrays.  An optional exact
    ``laplacian(r, d)`` closure replaces V'' + (d - 1) V'/r and its origin
    limit in every d.
    """

    def __init__(self, value, slope, second, r_scale=1.0, name="", laplacian=None):
        self._value = value
        self._slope = slope
        self._second = second
        self._laplacian = laplacian
        self.r_scale = float(r_scale)
        self.name = name or "custom"
        # below this radius slope/r is replaced by its limit
        self._r_origin = 1e-12 * max(1.0, self.r_scale)

    def value(self, r):
        return self._value(np.asarray(r, dtype=float))

    def slope(self, r):
        return self._slope(np.asarray(r, dtype=float))

    def second(self, r):
        return self._second(np.asarray(r, dtype=float))

    def laplacian(self, r, dim):
        """Radial Laplacian: the exact closure if one was given, else
        V'' + (d - 1) V'/r, with the limit d V''(0) below r = 1e-12 max(1, r_scale),
        which holds only when V'(0) = 0 (else Lap V is unbounded at the origin)."""
        if self._laplacian is not None:
            r = np.asarray(r, dtype=float)
            out = self._laplacian(r, dim.d)
            return float(out) if r.ndim == 0 else out
        if dim.d == 1:
            return self.second(r)
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        away = np.abs(r) > self._r_origin
        if away.all():
            out = self.second(r) + (dim.d - 1) * self.slope(r) / r
            return float(out[0]) if scalar else out
        out = np.empty_like(r)
        if np.any(away):
            ra = r[away]
            out[away] = self.second(ra) + (dim.d - 1) * self.slope(ra) / ra
        if np.any(~away):
            out[~away] = dim.d * float(self.second(np.asarray(0.0)))
        return float(out[0]) if scalar else out


def quadratic(k=1.0):
    """V(r) = k r^2 / 2, the harmonic confinement."""
    return RadialPotential(
        lambda r: 0.5 * k * r * r,
        slope=lambda r: k * r,
        second=lambda r: k * np.ones_like(np.asarray(r, dtype=float)),
        name=f"quadratic(k={k:g})",
    )


def quartic(k=1.0):
    """V(r) = k r^4 / 4; its steady densities grow like r^2."""
    return RadialPotential(
        lambda r: 0.25 * k * r ** 4,
        slope=lambda r: k * r ** 3,
        second=lambda r: 3.0 * k * r * r,
        name=f"quartic(k={k:g})",
    )


def log_tail(s=1.0):
    """V(r) = s log(1 + r): slope decays like s/r, a borderline tail."""
    return RadialPotential(
        lambda r: s * np.log1p(r),
        slope=lambda r: s / (1.0 + r),
        second=lambda r: -s / (1.0 + r) ** 2,
        name=f"log_tail(s={s:g})",
    )


def double_well(a=1.0):
    """V(x) = (x^2 - a^2)^2 / (4 a^2), two wells at x = +-a (for d = 1)."""
    a2 = a * a
    if not a2 > 0.0:
        raise ConfigError(f"double well needs a nonzero square a^2, got a = {a!r}",
                          reason="invalid potential")
    return RadialPotential(
        lambda x: (x * x - a2) ** 2 / (4.0 * a2),
        slope=lambda x: x * (x * x - a2) / a2,
        second=lambda x: (3.0 * x * x - a2) / a2,
        r_scale=a,
        name=f"double_well(a={a:g})",
    )


def zero_potential():
    """V = 0: no confinement, pure Newtonian spreading."""
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialPotential(zero, slope=zero, second=zero, name="zero")


def table_potential(r, v, vp, vpp, name="table"):
    """Confinement from sampled columns (r, V, V', V'').

    Hermite interpolation keeps the supplied derivatives exact at the
    knots.  The table must cover the radii the solver will visit; beyond
    it the cubics extrapolate.  V is extended evenly and V' oddly to x < 0;
    V'(0) is the table's own, so a nonzero one reaches the steady
    solver's V'(0) refusal.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or len(r) < 4 or np.any(np.diff(r) <= 0):
        raise ConfigError("potential table needs >= 4 strictly increasing radii",
                          reason="invalid potential table")
    v, vp, vpp = (np.asarray(c, dtype=float) for c in (v, vp, vpp))
    if not all(np.all(np.isfinite(c)) for c in (r, v, vp, vpp)):
        raise ConfigError("potential table values must be finite",
                          reason="invalid potential table")
    val = hermite(r, v, vp)
    slo = hermite(r, vp, vpp)
    sec = pchip(r, vpp)

    def slope(x):
        # the odd extension, which keeps the table's V'(0)
        out = slo(np.abs(x))
        return np.where(x < 0.0, -out, out)

    return RadialPotential(
        lambda x: val(np.abs(x)),
        slope=slope,
        second=lambda x: sec(np.abs(x)),
        r_scale=float(r[-1]),
        name=name,
    )


class AttractionPotential:
    """Attraction kernel W(r) = r^2 / (2d) + w(r) with eps = sup |Lap w|.

    The quadratic part is normalized so that w = 0 reproduces the exactly
    solvable kernel whose steady state is the density m0 on the ball of
    unit volume.  No perturbation means w = 0 and eps = 0; a perturbation
    must come with its ``epsilon``.
    """

    def __init__(self, dim, perturbation=None, epsilon=None):
        self.dim = dim
        if perturbation is None:
            perturbation = zero_potential()
        elif epsilon is None:
            raise ConfigError(f"perturbation {perturbation.name} needs its "
                              "epsilon = sup |Lap w|", reason="invalid potential")
        self.perturbation = perturbation
        self.epsilon = float(epsilon or 0.0)
        # the kept (Lap w, w) kernel grids of the shell flow's field, per d,
        # which attraction.effective_attraction_potential fills
        self._shell_grids = {}

    @classmethod
    def gaussian_bump(cls, dim, epsilon, width=1.0, sign=1):
        """w(r) = beta r^2 exp(-(r/width)^2) with sup |Lap w| = |epsilon|.

        The sup is attained at the origin where Lap w = 2 d beta, so
        beta = sign * epsilon / (2 d).  Its Laplacian is given in closed
        form, beta e^(-u) (2 d - (8 + 2 d) u + 4 u^2) with u = (r/width)^2:
        one exponential, and no division by r.
        """
        if sign not in (1, -1):
            raise ConfigError(f"bump sign must be 1 or -1, got {sign!r}",
                              reason="invalid solver config")
        s2 = width * width
        if not (width > 0.0 and s2 > 0.0):
            raise ConfigError(f"bump width must be positive, with a nonzero square, "
                              f"got {width!r}", reason="invalid solver config")
        beta = sign * epsilon / (2.0 * dim.d)
        reach = 28.0 * width     # exp(-(r/width)^2) is 0 in double beyond

        def near(f):
            # f is 0 beyond the reach, so clipping r there keeps every value
            # and keeps r^2 / s2 and u^2 from overflowing for narrow bumps;
            # the bare ufuncs skip np.clip's Python-level wrapper, and NaN
            # stays NaN
            def clipped(r, *args):
                return f(np.minimum(np.maximum(np.asarray(r, dtype=float), -reach), reach), *args)
            return clipped

        @near
        def val(r):
            return beta * r * r * np.exp(-r * r / s2)

        @near
        def slo(r):
            # 2 beta r e^(-u) (1 - u): no general pow per pair
            u = r * r / s2
            return (2.0 * beta) * r * np.exp(-u) * (1.0 - u)

        @near
        def sec(r):
            u = r * r / s2
            return beta * np.exp(-u) * (2.0 - 10.0 * u + 4.0 * u * u)

        @near
        def lap(r, d):
            u = r * r / s2
            return beta * np.exp(-u) * (2.0 * d - (8.0 + 2.0 * d) * u + 4.0 * u * u)

        w = RadialPotential(val, slope=slo, second=sec, r_scale=width,
                            name=f"gaussian_bump(eps={sign * epsilon:g})", laplacian=lap)
        return cls(dim, perturbation=w, epsilon=abs(epsilon))


@dataclass
class TailReport:
    """Sampled check that r^(d-1) V'(r) keeps growing past every mass level."""

    radii: np.ndarray
    enclosed_slope: np.ndarray  # sigma_d r^(d-1) V'(r)
    increasing: bool
    growth_ratio: float
    mass_reach: float
    passed: bool
    note: str = ""


def check_pareto_tail(V, dim):
    """Trend test for sigma_d r^(d-1) V'(r) -> infinity.

    Passes when the sampled values are strictly increasing, positive at the
    far end, and still growing by at least 20% over the last octave.  This
    is what guarantees the mass equation has a root for every m0.
    """
    radii = np.geomspace(1.0, 1e4, 200) * max(1.0, V.r_scale)
    g = dim.sphere_area * radii ** (dim.d - 1) * V.slope(radii)
    increasing = bool(np.all(np.diff(g) > 0.0))
    half = np.searchsorted(radii, radii[-1] / 2.0)
    half = min(max(half, 0), len(g) - 2)
    growth_ratio = float(g[-1] / g[half]) if g[half] > 0 else math.inf if g[-1] > 0 else 0.0
    passed = increasing and g[-1] > 0.0 and growth_ratio >= 1.2
    if not increasing:
        note = "enclosed slope r^(d-1) V' is not increasing on the sampled range"
    elif g[-1] <= 0.0:
        note = "confinement slope is not positive at large radii"
    elif growth_ratio < 1.2:
        note = "enclosed slope saturates: tail looks too weak to hold arbitrary mass"
    else:
        note = "tail keeps growing on the sampled range"
    return TailReport(radii, g, increasing, growth_ratio, float(g[-1]), passed, note)


@dataclass
class CompactTailReport:
    """Sampled check of the compact-support sufficient conditions."""

    radii: np.ndarray
    slope_ok: bool
    laplacian_nonneg: bool
    laplacian_sup: float
    passed: bool
    note: str = ""


def check_compact_support_tail(V, dim, c_V, R0):
    """Sufficient tail condition for supports to stay bounded.

    Requires V'(r) >= c_V r^(-(d-1)/(d+1)) for all sampled r >= R0,
    together with Lap V >= 0 and a finite sampled sup of Lap V.
    """
    if not 0.0 < R0 < np.inf:
        raise ConfigError(f"tail check needs a finite R0 > 0, got {R0!r}",
                          reason="invalid radius")
    radii = np.geomspace(R0, 1e3 * R0, 200)
    alpha = (dim.d - 1) / (dim.d + 1)
    floor = c_V * radii ** (-alpha)
    slope_ok = bool(np.all(V.slope(radii) >= floor * (1.0 - 1e-12)))
    lap_grid = np.geomspace(max(R0, 1.0) * 1e-3, radii[-1], 400)
    lap = V.laplacian(lap_grid, dim)
    laplacian_nonneg = bool(np.all(lap >= -1e-12))
    laplacian_sup = float(np.max(lap))
    passed = slope_ok and laplacian_nonneg and np.isfinite(laplacian_sup)
    if not slope_ok:
        note = f"V' drops below c_V r^(-{alpha:.3g}) on the sampled range"
    elif not laplacian_nonneg:
        note = "Lap V takes negative values"
    else:
        note = "tail strong enough for compactly supported evolution"
    return CompactTailReport(radii, slope_ok, laplacian_nonneg, laplacian_sup, passed, note)
