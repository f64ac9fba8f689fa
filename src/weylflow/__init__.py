"""Coupled Painleve-type Hamiltonian systems: exact verification and numerics.

Subpackages by layer: symkernel (exact polynomial/rational arithmetic),
catalog (the systems), weyl (Backlund transformations), holomorphy (charts
and the degree-6 ansatz), flows (vector fields and the scalar reduction),
numerics (integration and the numerical test battery), cli (command line).
"""

from .catalog import (SPECS, HamiltonianSystem, ParameterValues, SYSTEM_IDS,
                      SystemSpec, build_system, evaluate_hamiltonian,
                      serialize_system)
from .exprtext import ParseError, expr_text, parse, parse_polynomial, poly_text
from .flows import (VariableMap, VectorField, divisor_invariance,
                    hamiltonian_vector_field, lie_bracket, pushforward_field,
                    reduction_map, scalar_reduction_identity, serialize_field,
                    time_derivative_along)
from .holomorphy import (AnsatzReport, Chart, ansatz_solve, charts,
                         check_polynomiality, transform_hamiltonian,
                         verify_chart_roundtrip)
from .numerics import (Evaluator, Trajectory, backlund_solution_check,
                       scalar_residual_check, first_integral_drift, integrate,
                       path_commutation_check, trajectory_to_csv,
                       trajectory_to_json)
from .symkernel import (AffineRelation, CanonicalStructure, DegreeLimitError,
                        Polynomial, RationalExpr, SamplingError, SymbolError,
                        TableMismatchError, VarTable, ZeroDenominatorError,
                        exact_divide, divide_with_remainder,
                        is_identically_equal, poisson_bracket,
                        reduce_parameters, substitute)
from .weyl import (EXCEEDS_MAX, BirationalMap, ParameterAction, apply_map,
                   apply_to_state, compose, exponential_formula_check,
                   generators, named_maps, relation_order, serialize_map,
                   translation_offset, verify_symmetry, word_map)

__version__ = "0.1.0"
