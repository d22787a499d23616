"""Steady states and relaxation dynamics for aggregation flows.

The model is the continuity equation with velocity u = -grad Phi, where
Phi collects Newtonian repulsion, an optional attraction kernel, and a
radial confinement.  The package constructs steady states, runs radial
quantile dynamics and a weighted particle method, and fits relaxation
rates from the recorded diagnostics.
"""

from .geometry import Dimension, edge_repulsion_bound, newton_grad, newton_kernel
from .potentials import (RadialPotential, quadratic, quartic, log_tail,
                         double_well, table_potential, zero_potential,
                         AttractionPotential, check_pareto_tail,
                         check_compact_support_tail)
from .density import (RadialDensity, uniform_ball, annulus, line_interval,
                      newtonian_radial_potential,
                      radial_energy, l1_distance)
from .steady import (SteadyState, solve_support_radius, build_steady_state,
                     radial_velocity, verify_steady)
from .lagrangian import (LagrangianState, EvolutionConfig, init_lagrangian,
                         evolve, reconstruct_density, steady_quantile_state,
                         support_radius)
from .particles import (ParticleCloud, sample_radial, velocity_field,
                        run_particles, discrete_energy, save_cloud,
                        load_cloud, cloud_support_radius,
                        default_regularization)
from .attraction import (spherical_mean_convolve, solve_attraction_steady,
                         check_smallness, SelfConsistentField, SmallnessReport,
                         effective_attraction_potential)
from .diagnostics import (DiagnosticSeries, collect_series, shell_energy,
                          dissipation, discrepancy, lyapunov,
                          l1_to_steady, fit_rate, RateFit, gamma_theory,
                          density_bounds_onset)
from .errors import (SolverError, ConfigError, PotentialError,
                     TailTooWeakError, NumericsError, StiffnessError,
                     DivergenceError, ResolutionError, ConvergenceError,
                     ResolutionWarning)

__version__ = "0.1.0"
