"""Deterministic-equivalent rate analysis and two-timescale optimization
for fluid-antenna + RIS multi-user downlinks."""

from .channel import (ChannelSample, ChannelSampler, CorrelationSet,
                      DegenerateGridError, Dimensions, DomainError,
                      PathLossParams, PlanarFasGeometry, RisAngularProfile,
                      Scenario, db2lin, effective_ris_correlation,
                      fas_correlation_matrix, path_loss, phase_matrix,
                      ris_correlation_matrices, ris_correlation_matrix,
                      select_submatrix, trial_rng)
from .fixed_point import (CommonSolution, ConvergenceError, FeasibilityError,
                          IidSolution, SolverSettings, UncommonSolution,
                          backsubstitution_residual, solve_iid_zf,
                          solve_rzf_common, solve_rzf_uncommon,
                          solve_zf_common, solve_zf_uncommon)
from .rates import (NumericalError, RateReport, SecondOrderCommon,
                    SecondOrderUncommon, esr_iid_mrt, esr_iid_zf, min_ports,
                    second_order_common, second_order_uncommon,
                    sinr_rzf_common, sinr_rzf_uncommon, sinr_zf)
from .montecarlo import (EsrEstimate, ResolventProbe, build_precoder,
                         empirical_esr, instantaneous_sinr, resolvent_probe)
from .gradients import (esr_gradient_phases_common,
                        esr_gradient_phases_uncommon,
                        esr_gradient_ports_uncommon,
                        esr_gradient_ports_zf_common, esr_gradient_z,
                        fd_gradient, phase_perturbation)
from .optimize import (OptimizationTrace, OptimizerSettings, PhaseShifts,
                       alternating_optimization, deterministic_esr,
                       fw_linear_oracle, fw_port_selection,
                       gradient_ascent_phases, joint_optimize,
                       search_regularization, z_search_profile)

__version__ = "0.1.0"
