"""numpy cubic interpolants and Simpson's rule: bit for bit against scipy.

scipy is a reference here only; the library itself imports ``scipy.spatial``
on its first particle pair sum and no other scipy module.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from repelflow._cubic import hermite, pchip, simpson
from repelflow.errors import NumericsError


def _same(a, b):
    """Equal bits: values, NaN positions, signed zeros, shape and type."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and type(a) is type(b)
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _queries(x, rng):
    # every knot, the right end again, both sides beyond, NaN, and the inside
    return np.concatenate([x, [x[-1], x[0] - 0.7, x[-1] + 0.7, np.nan],
                           rng.uniform(x[0] - 1.0, x[-1] + 1.0, 97)])


def _profiles(x, rng):
    n = x.size
    return {"random": rng.normal(size=n),
            "flat": np.round(rng.normal(size=n)),          # repeated values
            "monotone": np.cumsum(rng.uniform(0.0, 1.0, n)),
            "sign changes": np.sin(5.0 * x),
            "zeros": np.zeros(n),
            # a -0.0 knot value reads +0.0 in scipy, whose sums start at 0.0
            "signed zeros": np.where(rng.random(n) < 0.5, -0.0, rng.normal(size=n))}


@pytest.mark.parametrize("n", [2, 3, 4, 9, 64, 600])
def test_interpolants_match_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        x = np.sort(rng.uniform(-2.0, 3.0, n))
        q = _queries(x, rng)
        for name, y in _profiles(x, rng).items():
            dy = rng.normal(size=n)
            assert _same(pchip(x, y)(q), PchipInterpolator(x, y)(q)), name
            assert _same(hermite(x, y, dy)(q),
                         CubicHermiteSpline(x, y, dy)(q)), name
            # scalar and 2-D queries keep scipy's shapes
            assert _same(pchip(x, y)(q[5]), PchipInterpolator(x, y)(q[5]))
            grid = q[:100].reshape(10, 10)
            assert _same(pchip(x, y)(grid), PchipInterpolator(x, y)(grid))
        # two columns, as the d = 3 sphere-mean table holds
        Y, D = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        grid = q[:100].reshape(4, 25)
        assert _same(hermite(x, Y, D)(grid), CubicHermiteSpline(x, Y, D)(grid))
        assert _same(hermite(x, Y, D)(q[3]), CubicHermiteSpline(x, Y, D)(q[3]))
        assert _same(pchip(x, Y)(grid), PchipInterpolator(x, Y)(grid))


def test_two_knot_pchip_is_the_line():
    f = pchip([1.0, 3.0], [2.0, -2.0])
    assert _same(f(np.array([0.0, 1.0, 2.0, 3.0, 4.0])),
                 np.array([4.0, 2.0, 0.0, -2.0, -4.0]))


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0]),
    ([0.0], [1.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0]),
], ids=["repeated", "decreasing", "nan-x", "inf-y", "one-knot", "short-y"])
def test_interpolants_refuse_what_scipy_refuses(x, y):
    with pytest.raises(NumericsError):
        pchip(x, y)
    with pytest.raises(NumericsError):
        hermite(x, y, np.zeros_like(np.asarray(y, dtype=float)))


@pytest.mark.parametrize("n", [3, 5, 1025, 2049])
def test_simpson_matches_scipy_on_both_axes(n):
    rng = np.random.default_rng(n)
    s = np.linspace(0.0, 1.3, n)
    y = rng.normal(size=(6, n))
    assert _same(simpson(y, x=s), scipy_simpson(y, x=s))
    assert _same(simpson(y, x=s, axis=1), scipy_simpson(y, x=s, axis=1))
    assert _same(simpson(y.T, x=s, axis=0), scipy_simpson(y.T, x=s, axis=0))
    assert _same(simpson(y[0], x=s), scipy_simpson(y[0], x=s))
    # uneven spacing, and a zero-length interval (all spacings zero)
    uneven = np.sort(rng.uniform(0.0, 2.0, n))
    assert _same(simpson(y, x=uneven), scipy_simpson(y, x=uneven))
    assert _same(simpson(y, x=np.zeros(n)), scipy_simpson(y, x=np.zeros(n)))


def test_simpson_refuses_even_counts():
    with pytest.raises(NumericsError):
        simpson(np.ones(4), x=np.arange(4.0))


_PROBE = """
import sys
import numpy as np
import repelflow as rf
loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
print("import", loaded())
dim = rf.Dimension(3)
V = rf.quadratic()
rho0 = rf.uniform_ball(dim, 1.5, 1.5).renormalized(dim.sphere_area)
state = rf.init_lagrangian(rho0, 64, dim)
final, snaps = rf.evolve(state, V, rf.EvolutionConfig(t_end=0.2))
steady = rf.build_steady_state(V, dim, dim.sphere_area)
rf.collect_series(snaps, V, steady)
for d in (2, 3):
    rho = rf.uniform_ball(rf.Dimension(d), 1.0, 1.0)
    rf.spherical_mean_convolve(np.exp, rho, rf.Dimension(d), np.array([0.0, 0.5]))
r = np.linspace(0.0, 2.0, 16)
rf.table_potential(r, 0.5 * r * r, r, np.ones_like(r)).value(0.7)
print("radial", loaded())
cloud = rf.sample_radial(rho0, 50, 0, rho_ref=float(max(rho0.values)))
rf.velocity_field(cloud, V=V)
print("particles", loaded())
"""


def test_scipy_is_imported_by_the_first_pair_sum_only():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    stages = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    assert stages["import"] == "[]"
    assert "scipy.interpolate" not in stages["radial"]
    assert "scipy.integrate" not in stages["radial"]
    assert "'scipy.spatial.distance'" in stages["particles"]
