"""tld-forge: typed logic descriptions to analyzed Prolog and Mercury."""

from .ast import (And, Atom, Call, Clause, Eq, Exists, FALSE, FalseF, Forall,
                  Formula, Iff, Implies, LogicDescription, NafNot, Not, Or,
                  Program, Struct, Term, TRUE, TrueF, TypeCheck,
                  TypedLogicDescription, Unify, Var, free_variables,
                  substitute)
from .analysis import (AbstractState, Registry, ReorderFailure, abstract_step,
                       analyze_determinism, analyze_procedure, eliminate_checks,
                       reorder)
from .codegen import (emit_mercury, emit_prolog, flatten_arithmetic,
                      mult_to_mercury_determinism)
from .derive import NormalizedBody, derive_clauses, normalize
from .modes import (Directionality, Mode, Multiplicity, Spec,
                    check_directionality)
from .parser import (parse_formula, parse_spec, parse_specs, parse_term,
                     parse_tld, parse_tlds, parse_types)
from .semantics import (EvalContext, Truth, check_agreement, check_equivalence,
                        evaluate, evaluate_reference)
from .transform import (check_of, simplify_checks, transform_formula,
                        transform_tld)
from .typesys import TypeDef, TypeEnv, check_env
from .workspace import (Workspace, load_workspace, run_oracle, run_pipeline,
                        suggest_skeleton)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "Call", "Clause", "Eq", "Exists", "FALSE", "FalseF",
    "Forall", "Formula", "Iff", "Implies", "LogicDescription", "NafNot",
    "Not", "Or", "Program", "Struct", "Term", "TRUE", "TrueF", "TypeCheck",
    "TypedLogicDescription", "Unify", "Var", "free_variables", "substitute",
    "AbstractState", "Registry", "ReorderFailure", "abstract_step",
    "analyze_determinism", "analyze_procedure", "eliminate_checks", "reorder",
    "emit_mercury", "emit_prolog", "flatten_arithmetic",
    "mult_to_mercury_determinism", "NormalizedBody", "derive_clauses",
    "normalize", "Directionality", "Mode", "Multiplicity", "Spec",
    "check_directionality", "parse_formula", "parse_spec", "parse_specs",
    "parse_term", "parse_tld", "parse_tlds", "parse_types", "EvalContext",
    "Truth", "check_agreement", "check_equivalence", "evaluate",
    "evaluate_reference", "check_of", "simplify_checks", "transform_formula",
    "transform_tld", "TypeDef", "TypeEnv", "check_env", "Workspace",
    "load_workspace", "run_oracle", "run_pipeline", "suggest_skeleton",
]
