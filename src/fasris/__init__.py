"""Deterministic-equivalent rate analysis and two-timescale optimization
for fluid-antenna + RIS multi-user downlinks."""

from .channel import (ChannelSample, ChannelSampler, CorrelationSet,
                      DegenerateGridError, Dimensions, DomainError,
                      PathLossParams, PlanarFasGeometry, RisAngularProfile,
                      Scenario, db2lin, effective_ris_correlation,
                      embed_selection, fas_correlation_matrix, lin2db,
                      path_loss, phase_matrix, ris_correlation_matrix,
                      sample_channel, select_submatrix, trial_rng)
from .fixed_point import (CommonSolution, ConvergenceError, FeasibilityError,
                          IidSolution, SolverSettings, UncommonSolution,
                          backsubstitution_residual, solve_iid_zf,
                          solve_rzf_common, solve_rzf_uncommon,
                          solve_zf_common, solve_zf_uncommon)
from .rates import (NumericalError, RateReport, SecondOrderCommon,
                    SecondOrderUncommon, esr_iid_mrt, esr_iid_zf, min_ports,
                    second_order_common, second_order_uncommon,
                    sinr_rzf_common, sinr_rzf_uncommon, sinr_zf_common,
                    sinr_zf_uncommon)
from .montecarlo import (EsrEstimate, ResolventProbe, build_precoder,
                         empirical_esr, instantaneous_sinr, resolvent_probe)
from .gradients import (esr_gradient_phases_common,
                        esr_gradient_phases_uncommon,
                        esr_gradient_phases_zf_common,
                        esr_gradient_ports_zf_common,
                        esr_gradient_ports_zf_uncommon, fd_gradient,
                        gradient_G_l, phase_perturbation)
from .optimize import (OptimizationTrace, OptimizerSettings, PhaseShifts,
                       PortSelection, alternating_optimization,
                       deterministic_esr, fw_linear_oracle, fw_port_selection,
                       gradient_ascent_phases, joint_optimize,
                       search_regularization, z_search_profile)

__version__ = "0.1.0"
