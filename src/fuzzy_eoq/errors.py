"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an input violates a documented invariant."""


class QuadratureError(ArithmeticError):
    """Raised when adaptive quadrature cannot reach the requested tolerance
    within its evaluation budget, or meets a non-finite estimate."""
