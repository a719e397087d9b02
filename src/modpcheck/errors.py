"""Shared exception types.

Every failure mode that callers are expected to catch gets its own class;
check functions never raise these for *finding* counterexamples (a found
counterexample is report content, not an error).
"""


class ConfigInvalid(ValueError):
    """Run configuration is structurally unusable."""


class GenericityViolation(ConfigInvalid):
    """Parameter tuple leaves the generic window, a config error too.

    Carries the offending component index (or None for global conditions)
    and a human-readable bound description.
    """

    def __init__(self, j, bound):
        self.j = j
        self.bound = bound
        where = "global" if j is None else f"component {j}"
        super().__init__(f"genericity violated ({where}): requires {bound}")


class RangeViolation(ValueError):
    """Input vector outside the documented hypothesis window."""


class HypothesisViolation(ValueError):
    """Structured hypothesis (not a plain range) fails for the given input."""


class InadmissibleS(ValueError):
    """Weight family is not shift-stable / downward-closed as required."""


class PairNotDefined(KeyError):
    """Scalar pair accessor queried outside its domain of definition."""


class NotAUnit(ArithmeticError):
    """Inversion/decomposition requested for a non-unit."""


class PrecisionExhausted(ArithmeticError):
    """A question was asked below the tracked cutoff of a truncated object."""


class SingularJacobian(ArithmeticError):
    """Coordinate change has a non-invertible linear part."""


class ExponentPrecisionTooLow(ArithmeticError):
    """p-adic exponent known to too few digits for the requested cutoff."""


class NotInvertible(ArithmeticError):
    """Matrix has no right inverse in the truncated ring."""


class NonConvergence(RuntimeError):
    """Iterative solver failed to stabilize within its iteration budget."""


# What a check's own arithmetic can raise: a failed check, not a crashed run.
PACKAGE_ERRORS = (
    RangeViolation, HypothesisViolation, InadmissibleS, PairNotDefined, NotAUnit,
    PrecisionExhausted, SingularJacobian, ExponentPrecisionTooLow, NotInvertible,
    NonConvergence,
)
