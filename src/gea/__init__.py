"""Finite generalized effect algebras: axiom checking, exact generalized-state
witnesses via rational linear programming, and verified diagonal operator
representations, with concrete finite-dimensional Hilbert-space models."""

from .algebra import (AlgebraTable, AxiomReport, CheckedGEA, MorphismReport, MorphismSpec,
                      Violation, check_ea_axioms, check_gea_axioms, classify_morphism,
                      induced_order, is_sub_gea, require_gea, scan_gea)
from .errors import ContractError, InputError
from .lp import LinearProgram, lp_feasible
from .represent import (DiagonalRep, build_representation, operator_norm, verify_injective,
                        verify_morphism, verify_order_reflecting)
from .states import GeneralizedState, StateWitnessSet, order_determining_set, separating_set

__version__ = "0.1.0"

__all__ = [
    "AlgebraTable", "AxiomReport", "CheckedGEA", "MorphismReport", "MorphismSpec",
    "Violation", "check_ea_axioms", "check_gea_axioms", "classify_morphism",
    "induced_order", "is_sub_gea", "require_gea", "scan_gea",
    "ContractError", "InputError",
    "LinearProgram", "lp_feasible",
    "DiagonalRep", "build_representation", "operator_norm",
    "verify_injective", "verify_morphism", "verify_order_reflecting",
    "GeneralizedState", "StateWitnessSet", "order_determining_set", "separating_set",
    "__version__",
]
