"""2-D simulator for an incompressible phase-field / finite-viscoelasticity
system: quasi-static Stokes flow, regularized deformation-gradient
transport and a Cahn-Hilliard equation with elastic coupling, discretized
on a MAC staggered grid so that energy dissipation, mass conservation and
incompressibility are testable discrete identities."""

from .grid import (GridSpec, ModelParams, PreconditionError, ScalarField,
                   SimState, StaggeredVectorField, TensorField, cofactor,
                   determinant, frobenius)
from .errors import NewtonError, SolverError, ValidationError

__all__ = [
    "GridSpec", "ModelParams", "PreconditionError", "ScalarField", "SimState",
    "StaggeredVectorField", "TensorField", "cofactor", "determinant",
    "frobenius", "NewtonError", "SolverError", "ValidationError",
]

__version__ = "0.1.0"
