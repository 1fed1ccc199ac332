"""Brute-force verification lab for horizontal Kakeya maximal operators
over finite Heisenberg groups H_n(F_q)."""

from .field import BUILTIN_MODULI, DomainError, Field
from .heisenberg import (Census, census, enumerate_projective_directions,
                         enumerate_refined_directions, lines_through_point,
                         lines_with_refined_direction)
from .maximal import (BoundSpec, Domain, GridFunction, LineFamily,
                      VerifyReport, affine_max_op, apply_linearized, exponent,
                      exponent_A, exponent_Ard, grid_from_json,
                      heis_max_op, l2_operator_norm, linearize, lp_norm,
                      project_aggregate, random_complex_grid, refined_max_op,
                      ttstar_spectrum, verify_bound)
from .fourier import (CentralFourierTable, UTable, central_fourier,
                      key_counting_check, quadratic_fiber_count,
                      split_bound_check, u_tables)
from .constructions import (KakeyaReport, LowerBoundReport, PointSet,
                            example_affine_not_refined,
                            example_refined_not_affine, extremal_set,
                            is_affine_kakeya, is_full_refined_kakeya,
                            kakeya_bound_report,
                            lower_bound_ratio, moment_report, mu_parameter,
                            omega_partition, straighten)

__version__ = "0.1.0"
