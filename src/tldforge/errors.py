"""Exception types raised across the toolchain."""


class ForgeError(Exception):
    """Base class for all toolchain errors."""


class UnboundVariableError(ForgeError):
    """A free variable has no type entry in the supplied environment."""


class NonGroundSubstituteError(ForgeError):
    """A substitution tried to insert a term containing variables."""


class NonGroundTermError(ForgeError):
    """A ground term was required."""


class UnknownTypeError(ForgeError):
    """A type name is not defined in the environment."""


class NotStructuralError(ForgeError):
    """The type does not resolve to a constructor-union definition."""


class MissingBindingError(ForgeError):
    """A free variable of the evaluated formula has no ground binding."""


class UnknownPredicateError(ForgeError):
    """Evaluation reached a predicate with no stored description."""


class NotDerivableError(ForgeError):
    """The formula falls outside the derivable fragment."""


class NotCallableError(ForgeError):
    """A literal cannot execute in the current abstract state."""


class ReorderLimitError(ForgeError):
    """A reorder search passed its step limit without deciding the clause."""


class UnknownCalleeError(ForgeError):
    """A called predicate has no registered specification."""


class MultipleOrdersError(ForgeError):
    """Directionalities demand incompatible literal orders."""


class WorkspaceError(ForgeError):
    """The workspace could not be loaded or used."""
