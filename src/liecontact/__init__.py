"""Exact computation and verification engine for contact-graded orthogonal
algebras, their embedding into a path-geometry grading of sl(2n+2), and the
chain geometry of the homogeneous model.

Everything asserted is exact rational arithmetic; floats appear only in
sampling helpers, derivative cross-checks and trajectory export. The
`liecontact` console script runs the verification suites and emits
machine-readable reports.
"""

from .chains import (ChainCurve, ModelPoint, STensorEval, act, chain_eval,
                     chain_matrix, chain_transversality, emit_trajectory,
                     fit_pipeline_constant, flow_transversality, origin,
                     pipeline_s, rank_one_by_S, reconstruct_cone, s_tensor)
from .extension import (Cochain1, Cochain2, alpha, alpha_restriction_matrix,
                        build_psi_cochain, check_pair_conditions,
                        codifferential, curvature_report,
                        fit_trilinear_constant, hat_lift, i_map, i_map_float,
                        i_prime, i_prime_float, i_product_defect,
                        i_product_rule, is_normal, psi_alpha,
                        psi_equivariance_check, psi_gq, psi_support_report,
                        psi_trilinear, symmetrized_reference)
from .linalg import (Mat, det, exp_float, exp_nilpotent, invert, rank_kernel,
                     rat, rat_sqrt, solve_linear)
from .path_sl import SlElement, sl_bracket, sl_neg_coordinates, w0
from .report import SUITE_NAMES, SuiteConfig, run
from .so_contact import (QGroupElement, Signature, SoElement, bracket,
                         bracket_gm1, grading_check, inner, jacobi_check,
                         orthogonal_residual, scaling_residual, segre_rank,
                         so_basis)
from .split_quat import (QuatStructureOnH, SplitQuaternion,
                         eigenspace_decompose, max_subspace_for_line,
                         norm_sq, quat_mul, rank_one_witness, stack_columns,
                         unstack_columns)

__version__ = "0.1.0"
