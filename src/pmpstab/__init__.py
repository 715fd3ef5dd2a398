"""Feedback synthesis from Pontryagin-type Lagrangian manifolds.

Pipeline: describe a control system and a local Lyapunov function,
integrate the reversed extremal flow from a level set to build a
manifold of (state, covector) samples, assemble a piecewise feedback
law from it, and verify stabilization by Filippov closed-loop
simulation.  An output-feedback variant replaces the unmeasured
velocity of manipulator systems with a high-gain observer estimate.
"""

from .exprs import (Expr, ExprDomainError, ExprError, ExprSyntaxError,
                    compile_batch, compile_scalar, diff, evaluate, parse,
                    to_source)
from .systems import (ControlSet, ControlSystem, LyapunovSpec, SystemError,
                      equilibrium_residual, lie_bracket_adfb, rank_condition)
from .hamiltonian import (MinimizerResult, branch_control, hamiltonian_value,
                          minimize_hamiltonian, switching_values)
from .manifold import (Bicharacteristic, BranchEvent, IlluminationReport,
                       LagrangianManifold, NotCoveredError, Seed,
                       SwitchPoint, build_manifold, cross_path_integral,
                       export_manifold_csv, flow_forward, illumination_check,
                       illumination_grid, integrate_bicharacteristic,
                       jacobian_info, seed_manifold, switching_curve, switching_polylines,
                       two_path_generating_values)
from .synthesis import (BoundReport, DecreaseViolation, FeedbackLaw,
                        assemble_feedback, double_integrator_lyapunov,
                        double_integrator_system, export_law_csv,
                        reference_switching_curve, verify_bound)
from .simulate import (BlowupError, GridReport, StaticSwitchingLaw, Trajectory,
                       TrajectoryEvent, Verdict, export_trajectory_csv,
                       filippov_step, simulate_closed_loop, simulate_grid,
                       stabilization_verdict)
from .observer import (ObserverGains, OutputFeedbackResult, error_lyapunov,
                       error_lyapunov_matrix, estimator_step, export_error_log,
                       gain_inequalities, gamma_margin, is_manipulator,
                       manipulator_system, select_gains,
                       simulate_output_feedback)

__version__ = "0.1.0"
