"""Exception taxonomy shared across the package.

Two broad families matter for exit codes: ``InputError`` covers everything a
user can cause (malformed documents, bad polynomials, violated preconditions),
while ``ConsistencyViolation`` flags an internal invariant breach and is never
the user's fault.
"""


class GpwError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GpwError):
    """A problem with user-supplied input (document, expression, or flags)."""


# -- group construction -------------------------------------------------

class NotLatinSquare(InputError):
    """A multiplication table row or column repeats an element."""


class NoIdentity(InputError):
    """The declared (or searched-for) identity element does not act as one."""


class NonAssociativeTable(InputError):
    """Some triple violates (ab)c == a(bc)."""


# -- algebra documents and construction ---------------------------------

class SchemaError(InputError):
    """An algebra document is structurally malformed."""


class HomogeneityViolation(InputError):
    """A structure constant lands outside the grade forced by the grading."""


class AssociativityViolation(InputError):
    """Some basis triple violates associativity of the product."""


class InvolutionViolation(InputError):
    """The declared involution is not a grade-preserving anti-automorphism
    of order two."""


class NonAbelianSupportWithStar(InputError):
    """An involution was declared but the grading support does not commute."""


class ElementNotOrderTwo(InputError):
    """A builtin requires a group element of order exactly two."""


class PreconditionViolation(InputError):
    """A documented precondition of an operation does not hold."""


class StarRequired(InputError):
    """A star-mode operation was invoked on an algebra without involution."""


class ModeMismatch(InputError):
    """An operation received an algebra in the wrong mode."""


# -- polynomial parsing and construction --------------------------------

class ParseError(InputError):
    """Syntax error in a polynomial or shape expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownGradeLabel(InputError):
    """A variable or shape references a grade label the group does not have."""


class KindInWrongMode(InputError):
    """Plain variables in star mode, or symmetric/skew variables in graded
    mode."""


class NotMultihomogeneous(InputError):
    """Multilinearization was asked of a polynomial whose monomials do not
    share one multidegree."""


# -- evaluation ----------------------------------------------------------

class GradeMismatch(InputError):
    """A substituted element is not homogeneous of the variable's grade."""


class KindMismatch(InputError):
    """A substituted element is not symmetric/skew as the variable demands."""


class CapExceeded(InputError):
    """A degree or enumeration cap was exceeded."""


class ConsistencyViolation(GpwError):
    """An internal cross-check failed; results must not be trusted."""
