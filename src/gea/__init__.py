"""Finite generalized effect algebras: axiom checking, exact generalized-state
witnesses via rational linear programming, and verified diagonal operator
representations, with concrete finite-dimensional Hilbert-space models."""

from .algebra import (AlgebraTable, AxiomReport, CheckedGEA, MorphismReport, MorphismSpec,
                      OrderRelation, Violation, check_ea_axioms, check_gea_axioms,
                      classify_morphism, induced_order, is_sub_gea, require_gea, scan_gea)
from .errors import ContractError, InputError
from .lp import LinearProgram, basic_solution_feasible, lp_feasible
from .represent import (DiagonalRep, FiniteVector, build_representation,
                        extract_states, operator_norm, vector_state,
                        verify_injective, verify_morphism, verify_order_reflecting)
from .states import (GeneralizedState, StateWitnessSet, bound_constant,
                     find_order_witness, find_separating_state, normalize_state,
                     order_determining_set, separating_set)

__version__ = "0.1.0"

__all__ = [
    "AlgebraTable", "AxiomReport", "CheckedGEA", "MorphismReport", "MorphismSpec",
    "OrderRelation", "Violation", "check_ea_axioms", "check_gea_axioms",
    "classify_morphism", "induced_order", "is_sub_gea", "require_gea", "scan_gea",
    "ContractError", "InputError",
    "LinearProgram", "basic_solution_feasible", "lp_feasible",
    "DiagonalRep", "FiniteVector", "build_representation", "extract_states",
    "operator_norm", "vector_state", "verify_injective", "verify_morphism",
    "verify_order_reflecting",
    "GeneralizedState", "StateWitnessSet", "bound_constant",
    "find_order_witness", "find_separating_state", "normalize_state",
    "order_determining_set", "separating_set",
    "__version__",
]
