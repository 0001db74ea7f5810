"""Exception classes shared across the package."""

import math


class LieIdealsError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(LieIdealsError):
    """Operands belong to different fields."""


class AmbientMismatchError(LieIdealsError):
    """Subspaces or vectors live in coordinate spaces of different dimension."""


class EnumerationUnsupportedError(LieIdealsError):
    """An exhaustive search the artifact cannot run: enumeration over an
    infinite field, or a rational root search past its divisor cap."""


def _count_text(n):
    """n in decimal, or as the bound 10^k <= n < 10^(k+1) when n is past
    Python's integer-to-string limit."""
    try:
        return str(n)
    except ValueError:
        k = int(math.log10(n))  # a float, so k may be off by one
        k += (10 ** (k + 1) <= n) - (10**k > n)
        return f"at least 10^{k}"


class BudgetExceededError(LieIdealsError):
    """An enumeration would emit more subspaces than the configured budget."""

    def __init__(self, needed, budget):
        super().__init__(
            f"enumeration needs {_count_text(needed)} subspaces, "
            f"budget is {_count_text(budget)}"
        )
        self.needed = needed
        self.budget = budget


class JacobiError(LieIdealsError):
    """Structure constants violate the Jacobi identity.

    Carries the 1-based basis triple and the nonzero Jacobi sum.
    """

    def __init__(self, triple, residual):
        i, j, k = triple
        super().__init__(
            f"Jacobi identity fails at basis triple ({i},{j},{k}); residual {residual}"
        )
        self.triple = triple
        self.residual = residual


class NotASubalgebraError(LieIdealsError):
    """A subspace that must be closed under the bracket is not."""


class NotAnIdealError(LieIdealsError):
    """A subspace that must be an ideal is not."""


class NotContainedError(LieIdealsError):
    """A required containment between subspaces does not hold."""


class PresetError(LieIdealsError):
    """Invalid parameters passed to a named algebra builder."""


class ParseError(LieIdealsError):
    """Syntax or semantic error in an algebra definition document."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", col {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class UnknownLabelError(ParseError):
    """A bracket or span expression references an undeclared basis label."""


class DuplicateBracketError(ParseError):
    """The same basis pair is given two bracket definitions."""
