"""Cubic Hermite and PCHIP interpolants and composite Simpson, in numpy.

The arithmetic follows scipy's ``CubicHermiteSpline``, ``PchipInterpolator``
and ``simpson`` (odd sample counts, x given) operation for operation, so
results agree with them bit for bit; importing this module costs nothing.
"""

import numpy as np

from .errors import NumericsError


def _checked(x, *cols):
    """Float arrays of knots x and data with one row per knot, refused unless
    finite with strictly increasing knots.  x is 1-D, or holds one column
    of knots per column of 2-D data."""
    x = np.asarray(x, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in cols]
    if x.ndim not in (1, 2) or x.shape[0] < 2 or (x.ndim == 2 and x.shape != cols[0].shape):
        raise NumericsError("interpolation needs x with at least 2 knots, one column "
                            "per data column if 2-D")
    if any(c.ndim == 0 or c.shape[0] != x.shape[0] or c.shape != cols[0].shape
           for c in cols):
        raise NumericsError("interpolation data must hold one row per knot")
    if not all(np.all(np.isfinite(a)) for a in (x, *cols)):
        raise NumericsError("interpolation data must be finite")
    if np.any(np.diff(x, axis=0) <= 0.0):
        raise NumericsError("interpolation knots must be strictly increasing")
    return (x, *cols)


def _widths(x, y):
    """Knot spacings along axis 0, shaped to broadcast against y's rows."""
    h = np.diff(x, axis=0)
    return h if x.ndim == y.ndim else h.reshape((-1,) + (1,) * (y.ndim - 1))


def _coefficients(x, y, dydx):
    """(c0, c1, c2, c3) of each Hermite piece, one row per piece."""
    dx = _widths(x, y)
    slope = np.diff(y, axis=0) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    # scipy starts each sum at 0.0, which turns a -0.0 value into +0.0
    return t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1] + 0.0


def cubic_at(coefficients, s):
    """c3 + c2 s + c1 s^2 + c0 s^3 of pieces (c0, c1, c2, c3) at offsets s
    from their left knots, summed in that order."""
    c0, c1, c2, c3 = coefficients
    z2 = s * s
    return c3 + c2 * s + c1 * z2 + c0 * (z2 * s)


def hermite(x, y, dydx):
    """Cubic Hermite interpolant through (x, y) with slopes dydx, a callable.

    y and dydx hold one row per knot (shape (n,) or (n, k)); the callable
    takes any array of points and returns their shape plus y's trailing
    shape.  Each piece is c3 + c2 s + c1 s^2 + c0 s^3 in s = x - x_i, summed
    in that order; points beyond the knots read the end cubics and NaN
    reads NaN.
    """
    x, y, dydx = _checked(x, y, dydx)
    coefficients = _coefficients(x, y, dydx)
    inner = x[1:-1]

    def interpolant(xv):
        xv = np.asarray(xv, dtype=float)
        # piece i holds x_i <= xv < x_(i+1); the end pieces extend outward
        i = np.searchsorted(inner, xv, "right")
        s = xv - x.take(i)
        if y.ndim > 1:
            s = s[..., None]
        return np.asarray(cubic_at([c.take(i, axis=0) for c in coefficients], s))
    return interpolant


def _pchip_end(h0, h1, m0, m1):
    # one-sided three-point slope, zeroed or capped to keep the end monotone
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    same = np.sign(d) == np.sign(m0)
    overshoot = same & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(overshoot, 3.0 * m0, np.where(same, d, 0.0))


def _pchip_slopes(x, y):
    """Fritsch-Carlson knot slopes of checked data."""
    h = _widths(x, y)
    m = np.diff(y, axis=0) / h
    dk = np.zeros_like(y)
    if x.shape[0] == 2:
        dk[:] = m
        return dk
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # a secant of 0 or a harmonic mean past the float range gives the slope 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    dk[0] = _pchip_end(h[0], h[1], m[0], m[1])
    dk[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return dk


def pchip(x, y):
    """Monotone piecewise cubic interpolant (Fritsch-Carlson), a callable.

    Interior slopes are the weighted harmonic mean of the adjacent secants,
    0 where they change sign or vanish; the ends use the three-point rule.
    Two knots give the straight line.
    """
    x, y = _checked(x, y)
    return hermite(x, y, _pchip_slopes(x, y))


def pchip_pieces(x, y):
    """(c0, c1, c2, c3) of the pieces of ``pchip`` through each column of
    knots x and values y, both (n, k); row i is piece i of every column,
    to be evaluated by ``cubic_at`` with the same arithmetic as ``pchip``."""
    x, y = _checked(x, y)
    return _coefficients(x, y, _pchip_slopes(x, y))


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
