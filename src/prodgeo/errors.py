"""Exception types shared across the package."""


class ProdGeoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ProdGeoError):
    """Evaluation requested outside the mathematical domain of a function."""


class NonPositiveInputError(DomainError):
    """An input quantity that must be strictly positive was not."""


class NonFiniteError(ProdGeoError):
    """A computation produced (or received) a NaN or infinity."""


class ConstraintViolation(ProdGeoError):
    """A parameter record violates its constraint set.

    The message names the violated clause.
    """

    def __init__(self, clause, message=None):
        self.clause = clause
        super().__init__(message or f"constraint violated: {clause}")


class SingularPointError(ProdGeoError):
    """A derivative-based quantity is undefined because a denominator vanishes."""


class InvalidSpecError(ProdGeoError):
    """A grid specification is malformed."""
