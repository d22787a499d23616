"""Cubic Hermite and PCHIP interpolants and composite Simpson, in numpy.

The arithmetic follows scipy's ``CubicHermiteSpline``, ``PchipInterpolator``
and ``simpson`` (odd sample counts, x given) operation for operation, so
results agree with them bit for bit; importing this module costs nothing.
"""

import numpy as np

from .errors import NumericsError


def _checked(x, *cols):
    x = np.asarray(x, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in cols]
    if x.ndim != 1 or x.size < 2:
        raise NumericsError("interpolation needs a 1-D x with at least 2 knots")
    if any(c.ndim == 0 or c.shape[0] != x.size or c.shape != cols[0].shape
           for c in cols):
        raise NumericsError("interpolation data must hold one row per knot")
    if not all(np.all(np.isfinite(a)) for a in (x, *cols)):
        raise NumericsError("interpolation data must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise NumericsError("interpolation knots must be strictly increasing")
    return (x, *cols)


def hermite(x, y, dydx):
    """Cubic Hermite interpolant through (x, y) with slopes dydx, a callable.

    y and dydx hold one row per knot (shape (n,) or (n, k)); the callable
    takes any array of points and returns their shape plus y's trailing
    shape.  Each piece is c3 + c2 s + c1 s^2 + c0 s^3 in s = x - x_i, summed
    in that order; points beyond the knots read the end cubics and NaN
    reads NaN.
    """
    x, y, dydx = _checked(x, y, dydx)
    dx = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1, c2 = t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1]
    # scipy starts each sum at 0.0, which turns a -0.0 value into +0.0
    c3 = y[:-1] + 0.0
    inner = x[1:-1]

    def interpolant(xv):
        xv = np.asarray(xv, dtype=float)
        # piece i holds x_i <= xv < x_(i+1); the end pieces extend outward
        i = np.searchsorted(inner, xv, "right")
        s = xv - x.take(i)
        if y.ndim > 1:
            s = s[..., None]
        z2 = s * s
        return np.asarray(c3.take(i, axis=0) + c2.take(i, axis=0) * s
                          + c1.take(i, axis=0) * z2 + c0.take(i, axis=0) * (z2 * s))
    return interpolant


def _pchip_end(h0, h1, m0, m1):
    # one-sided three-point slope, zeroed or capped to keep the end monotone
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    same = np.sign(d) == np.sign(m0)
    overshoot = same & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(overshoot, 3.0 * m0, np.where(same, d, 0.0))


def pchip(x, y):
    """Monotone piecewise cubic interpolant (Fritsch-Carlson), a callable.

    Interior slopes are the weighted harmonic mean of the adjacent secants,
    0 where they change sign or vanish; the ends use the three-point rule.
    Two knots give the straight line.
    """
    x, y = _checked(x, y)
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    dk = np.zeros_like(y)
    if x.size == 2:
        dk[:] = m
        return hermite(x, y, dk)
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # a secant of 0 or a harmonic mean past the float range gives the slope 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    dk[0] = _pchip_end(h[0], h[1], m[0], m[1])
    dk[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return hermite(x, y, dk)


def simpson(y, x, axis=-1):
    """Composite Simpson's rule of samples y at the points x along ``axis``.

    Needs an odd number of samples; the parabola weights allow uneven x.
    """
    y = np.asarray(y)
    n = y.shape[axis]
    if n % 2 == 0:
        raise NumericsError(f"Simpson's rule needs an odd sample count, got {n}")
    shape = [1] * y.ndim
    shape[axis] = n
    h = np.diff(np.reshape(x, shape), axis=axis)

    def take(a, start, stop):
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, stop, 2)
        return a[tuple(index)]

    h0, h1 = take(h, 0, n - 2), take(h, 1, n - 1)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    inv = np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1), where=h0divh1 != 0)
    mid = hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0)
    tmp = hsum / 6.0 * (take(y, 0, n - 2) * (2.0 - inv)
                        + take(y, 1, n - 1) * mid
                        + take(y, 2, n) * (2.0 - h0divh1))
    return np.sum(tmp, axis=axis)
