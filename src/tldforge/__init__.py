"""tld-forge: typed logic descriptions to analyzed Prolog and Mercury.

Each public name is imported from its module on first access (PEP 562), so
importing the package, or only the CLI, compiles no stage it does not run.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it provides
    "ast": ("And", "Atom", "Call", "Clause", "Eq", "Exists", "FALSE", "FalseF",
            "Forall", "Formula", "Iff", "Implies", "LogicDescription", "NafNot",
            "Not", "Or", "Program", "Struct", "Term", "TRUE", "TrueF", "TypeCheck",
            "TypedLogicDescription", "Unify", "Var", "free_variables", "substitute"),
    "analysis": ("AbstractState", "Registry", "ReorderFailure", "abstract_step",
                 "analyze_determinism", "analyze_procedure", "eliminate_checks",
                 "reorder"),
    "codegen": ("emit_mercury", "emit_prolog", "flatten_arithmetic",
                "mult_to_mercury_determinism"),
    "derive": ("NormalizedBody", "derive_clauses", "normalize"),
    "modes": ("Directionality", "Mode", "Multiplicity", "Spec", "check_directionality"),
    "parser": ("parse_formula", "parse_spec", "parse_specs", "parse_term", "parse_tld",
               "parse_tlds", "parse_types"),
    "semantics": ("EvalContext", "Truth", "check_agreement", "check_equivalence",
                  "evaluate", "evaluate_reference"),
    "transform": ("check_of", "simplify_checks", "transform_formula", "transform_tld"),
    "typesys": ("TypeDef", "TypeEnv", "check_env"),
    "workspace": ("Workspace", "load_workspace", "run_oracle", "run_pipeline",
                  "suggest_skeleton"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
