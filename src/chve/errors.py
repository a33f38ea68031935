"""Exception types shared across the solver modules."""


# Relative residual every linear solve must reach (Stokes momentum, transport).
TOL_LIN = 1e-10


class SolverError(RuntimeError):
    """A linear solve failed or did not reach TOL_LIN."""


class NewtonError(RuntimeError):
    """Newton iteration did not converge; carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ValidationError(ValueError):
    """A run configuration violates the model assumptions."""
