"""Closed-form steady profiles and the mass equation that selects them.

The confined swarm settles on the profile rho = Lap V cut off at the radius
R solving sigma_d R^(d-1) V'(R) = m0.  For quadratic V = r^2/2 that radius
is (m0 d / sigma_d)^(1/d) and the plateau equals d; for quartic V = r^4/4
in the plane the profile is 4 r^2.  This script builds those profiles and
confirms, by quadrature, that the induced velocity vanishes on the support.
"""

import math

import numpy as np

from repelflow import (Dimension, build_steady_state, quadratic, quartic,
                       verify_steady)


def show(tag, V, dim, m0):
    st = build_steady_state(V, dim, m0)
    rep = verify_steady(st, V, tol=1e-6 * max(1.0, abs(float(V.slope(st.R_inf)))))
    mid = st.density.values[st.density.values.size // 2]
    print(f"{tag:28s} R = {st.R_inf:.10f}  rho(mid) = {mid:.8f}  "
          f"E = {st.E_inf:+.8f}")
    print(f"{'':28s} sup |velocity| on support = {rep.max_speed:.3e} "
          f"({'ok' if rep.passed else 'MOVING'})")
    return st


if __name__ == "__main__":
    show("quadratic, d=2, m0=2pi", quadratic(), Dimension(2), 2 * math.pi)
    show("quadratic, d=3, m0=4pi", quadratic(), Dimension(3), 4 * math.pi)
    st = show("quartic,   d=2, m0=2pi", quartic(), Dimension(2), 2 * math.pi)

    # the quartic plateau is not flat: rho(r) = Lap V = 4 r^2
    r = st.density.grid
    err = float(np.max(np.abs(st.density.values - 4.0 * r * r)))
    print(f"\nquartic profile vs 4 r^2: sup error {err:.3e}")

    # doubling the mass pushes the edge out by 2^(1/d)
    for d in (2, 3):
        dim = Dimension(d)
        r1 = build_steady_state(quadratic(), dim, dim.sphere_area).R_inf
        r2 = build_steady_state(quadratic(), dim, 2 * dim.sphere_area).R_inf
        print(f"d={d}: R(2 m0) / R(m0) = {r2 / r1:.6f}  "
              f"(expect {2 ** (1 / d):.6f})")
