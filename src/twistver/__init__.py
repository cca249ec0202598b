"""Twisted Veronese point sets over finite fields and their linear codes."""

from .ff import Field
from .linalg import IncrementalElim, det, is_independent, kernel_basis, rank
from .pg import (canonicalize, enum_points, is_collinear, line_through,
                 on_common_subline, point_count, subline_through,
                 sublines_of_line)
from .veronese import (MonomialBasis, ScrollFrame, Twist, VarietyMatrix,
                       build_variety, embed_point, monomial_basis,
                       scroll_plucker_check)
from .codes import (BudgetExceeded, Code, CodeReport, DependencyInvariantError,
                    SearchPlan, build_code, classify_min_words, mds_status,
                    min_distance, oracle_min_distance,
                    verify_dep_classification, verify_general_position,
                    verify_oracle_equivalence)

__version__ = "0.1.0"
