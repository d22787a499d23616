"""Relaxation of a confined swarm and the algebraic decay of its energy.

A ball of mass 4pi in d = 3 is released under quadratic confinement.  The
energy decreases at every accepted step, the dissipation integral accounts
for the drop, and the gap E(t) - E_inf decays at least like (1+t)^(-5/4).
The L1 distance to the limit profile decays with half that exponent.
"""

import numpy as np

from repelflow import (Dimension, EvolutionConfig, build_steady_state,
                       collect_series, evolve, fit_rate, init_lagrangian,
                       l1_to_steady, quadratic, uniform_ball)

if __name__ == "__main__":
    dim = Dimension(3)
    m0 = dim.sphere_area
    V = quadratic()
    steady = build_steady_state(V, dim, m0)

    rho0 = uniform_ball(dim, 1.5, 1.5).renormalized(m0)
    state = init_lagrangian(rho0, 512, dim, dt_init=0.01)
    final, snaps = evolve(state, V, EvolutionConfig(dt_init=0.01, t_end=20.0,
                                                    snapshot_stride=1))
    series = collect_series(snaps, V, steady=steady)

    print(f"steps accepted: {len(snaps) - 1}")
    print(f"terminal L1 gap to the constructed profile: "
          f"{l1_to_steady(final, steady):.3e}")

    E, t = series.energy, series.times
    worst_rise = float(np.max(np.diff(E) / np.abs(E[:-1])))
    print(f"worst relative energy rise per step: {worst_rise:.2e}")

    m = t <= 2.0
    drop = E[m][0] - E[m][-1]
    integral = float(np.trapezoid(series.dissipation[m], t[m]))
    print(f"dissipation integral vs energy drop on [0, 2]: "
          f"{integral:.6f} vs {drop:.6f} "
          f"({abs(integral - drop) / drop:.2%} apart)")

    for quantity in ("energy_gap", "l1"):
        fit = fit_rate(series, quantity, (1.0, 5.0), dim=dim)
        need = f" (floor {fit.gamma_theory})" if fit.gamma_theory else ""
        print(f"{quantity:10s} exponent on [1, 5]: {fit.gamma_hat:7.3f}{need}  "
              f"super-algebraic: {fit.super_algebraic}  verdict: {fit.verdict}")
