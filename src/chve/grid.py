"""Grid description, field containers and pointwise tensor algebra.

The solver works on a fixed rectangular box discretized with uniform
Cartesian cells in a MAC (marker-and-cell) staggering:

* scalars (phase field, chemical potential, pressure) live at cell centers,
  array shape ``(nx, ny)`` with ``[i, j]`` at ``x=(i+1/2)hx, y=(j+1/2)hy``;
* velocity components live on faces: ``u`` on vertical faces, shape
  ``(nx+1, ny)``; ``w`` on horizontal faces, shape ``(nx, ny+1)``;
* tensors (deformation gradient) live at cell centers, shape
  ``(nx, ny, d, d)``.

Field containers freeze their arrays after construction: once a field has
been handed to another module it is never mutated, so reads are safe from
anywhere and a step that gets rejected leaves its inputs untouched.

The tensor helpers (``frobenius``, ``determinant``, ``cofactor``) accept
either a single ``(d, d)`` matrix or a stack ``(..., d, d)`` and support
d = 2, 3 independently of the spatial dimension of the PDE solver, so the
3-D constitutive laws remain testable without a 3-D grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np


class PreconditionError(ValueError):
    """An operation was called with inputs violating its contract."""


def require(checks, error: type[Exception] = PreconditionError) -> None:
    """Raise error(message) for the first (ok, message) pair that is not ok."""
    for ok, msg in checks:
        if not ok:
            raise error(msg)


def finite_check(obj) -> tuple[bool, str]:
    """(ok, message): every float field of the dataclass obj is finite; the
    message names each offender by its ``key`` metadata, else its name."""
    bad = [f.metadata.get("key", f.name) for f in fields(obj)
           if f.type == "float" and not math.isfinite(getattr(obj, f.name))]
    return not bad, f"values must be finite: {', '.join(bad)}"


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform Cartesian grid on the box [0, lx] x [0, ly]."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        require([
            finite_check(self),
            (self.nx >= 4 and self.ny >= 4, "grid needs nx, ny >= 4"),
            (self.lx > 0.0 and self.ly > 0.0, "domain lengths must be positive"),
        ])

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return self.lx * self.ly

    def cell_centers(self):
        """Meshgrid (X, Y) of cell-center coordinates, shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def xface_coords(self):
        """Coordinates of vertical-face midpoints, shape (nx+1, ny)."""
        x = np.arange(self.nx + 1) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def yface_coords(self):
        """Coordinates of horizontal-face midpoints, shape (nx, ny+1)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def node_coords(self):
        """Coordinates of cell corners, shape (nx+1, ny+1)."""
        x = np.arange(self.nx + 1) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise PreconditionError(
                f"scalar field shape {v.shape} != {(self.grid.nx, self.grid.ny)}"
            )
        if not np.isfinite(v).all():
            raise PreconditionError("scalar field has non-finite entries")
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))


@dataclass(frozen=True)
class StaggeredVectorField:
    """Face-staggered velocity; boundary-normal faces are pinned to zero."""

    grid: GridSpec
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        nx, ny = self.grid.nx, self.grid.ny
        u = _frozen(self.u)
        w = _frozen(self.w)
        if u.shape != (nx + 1, ny) or w.shape != (nx, ny + 1):
            raise PreconditionError("staggered field has wrong face shapes")
        if not (np.isfinite(u).all() and np.isfinite(w).all()):
            raise PreconditionError("staggered field has non-finite entries")
        if u[0, :].any() or u[-1, :].any() or w[:, 0].any() or w[:, -1].any():
            raise PreconditionError("no-slip: boundary faces must be exactly 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "StaggeredVectorField":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)),
                   np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def from_stream_function(cls, grid: GridSpec,
                             psi_nodes: np.ndarray) -> "StaggeredVectorField":
        """Exactly divergence-free field from node samples of a stream function.

        u = dpsi/dy on vertical faces, w = -dpsi/dx on horizontal faces; the
        discrete divergence telescopes to zero identically.  psi must be
        constant along the boundary for the no-slip pinning to hold.
        """
        if psi_nodes.shape != (grid.nx + 1, grid.ny + 1):
            raise PreconditionError("stream function must be sampled at nodes")
        u = (psi_nodes[:, 1:] - psi_nodes[:, :-1]) / grid.hy
        w = -(psi_nodes[1:, :] - psi_nodes[:-1, :]) / grid.hx
        u[0, :] = 0.0
        u[-1, :] = 0.0
        w[:, 0] = 0.0
        w[:, -1] = 0.0
        return cls(grid, u, w)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(self.u))), float(np.max(np.abs(self.w))))


@dataclass(frozen=True)
class TensorField:
    """Cell-centered d x d tensor field (d = 2 for the PDE solver)."""

    grid: GridSpec
    comps: np.ndarray

    def __post_init__(self):
        c = _frozen(self.comps)
        nx, ny = self.grid.nx, self.grid.ny
        if c.ndim != 4 or c.shape[:2] != (nx, ny) or c.shape[2] != c.shape[3]:
            raise PreconditionError("tensor field must have shape (nx, ny, d, d)")
        if not np.isfinite(c).all():
            raise PreconditionError("tensor field has non-finite entries")
        object.__setattr__(self, "comps", c)

    @property
    def d(self) -> int:
        return self.comps.shape[2]

    @classmethod
    def identity(cls, grid: GridSpec) -> "TensorField":
        c = np.zeros((grid.nx, grid.ny, 2, 2))
        c[..., 0, 0] = c[..., 1, 1] = 1.0
        return cls(grid, c)


@dataclass(frozen=True)
class ModelParams:
    """Physical and regularization constants of the coupled system.

    nu        viscosity of the quasi-static Stokes balance, > 0
    lam       elliptic regularization of the deformation transport, >= 0
    delta     viscous regularization of the chemical potential, >= 0
    eps       interface parameter of the phase-field energy, > 0
    c_elastic elastic modulus, > 0
    f_min     lower bound of the stiffness profile, in (0, 1]
    b0, b1    mobility bounds, 0 < b0 <= b1: b ramps from b0 to b1 over the
              stiffness window, and b1 = b0 gives constant mobility
    f_lo/f_hi transition window of the stiffness and mobility smoothstep

    Every number must be finite.  A field's ``key`` metadata is its
    config-file key where that differs from its name.
    """

    nu: float = 1.0
    lam: float = field(default=1e-3, metadata={"key": "lambda"})
    delta: float = 0.0
    eps: float = 1.0
    c_elastic: float = 1.0
    f_min: float = 0.05
    b0: float = 1.0
    b1: float = 1.0
    f_lo: float = field(default=-1.0, metadata={"key": "f_window_lo"})
    f_hi: float = field(default=1.0, metadata={"key": "f_window_hi"})

    def __post_init__(self):
        require([
            finite_check(self),
            (self.nu > 0.0, "nu must be > 0"),
            (self.lam >= 0.0, "lambda must be >= 0"),
            (self.delta >= 0.0, "delta must be >= 0"),
            (self.eps > 0.0, "eps must be > 0"),
            (self.c_elastic > 0.0, "c_elastic must be > 0"),
            (0.0 < self.f_min <= 1.0, "f_min must satisfy 0 < f_min <= 1"),
            (0.0 < self.b0 <= self.b1, "mobility bounds must satisfy 0 < b0 <= b1"),
            (self.f_lo < self.f_hi, "stiffness window must satisfy f_lo < f_hi"),
        ])


@dataclass(frozen=True)
class SimState:
    """Snapshot of all unknowns advanced by the driver.

    phi_prev is the accepted phase field of the previous step (seeds the
    Cahn-Hilliard Newton warm start); mu is the chemical potential of the
    step that produced phi, which the next step's first force reads.
    """

    phi: ScalarField
    phi_prev: ScalarField
    mu: ScalarField
    F: TensorField
    v: StaggeredVectorField
    q: ScalarField
    t: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        if self.t < 0.0:
            raise PreconditionError("time must be >= 0")


# ---------------------------------------------------------------------------
# pointwise tensor algebra, d = 2, 3


def frobenius(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Frobenius scalar product sum_ij A_ij B_ij over the last two axes."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[-2:] != B.shape[-2:]:
        raise PreconditionError("frobenius needs matching tensor dimensions")
    return np.einsum("...ij,...ij->...", A, B)


def determinant(F: np.ndarray) -> np.ndarray:
    """Closed-form determinant of a (stack of) 2x2 or 3x3 tensors."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    if d == 2:
        return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    if d == 3:
        return (F[..., 0, 0] * (F[..., 1, 1] * F[..., 2, 2] - F[..., 1, 2] * F[..., 2, 1])
                - F[..., 0, 1] * (F[..., 1, 0] * F[..., 2, 2] - F[..., 1, 2] * F[..., 2, 0])
                + F[..., 0, 2] * (F[..., 1, 0] * F[..., 2, 1] - F[..., 1, 1] * F[..., 2, 0]))
    raise PreconditionError("determinant supports d = 2, 3 only")


def cofactor(F: np.ndarray) -> np.ndarray:
    """Cofactor matrix from closed-form minors (continuous in F).

    For invertible F this equals det(F) F^{-T}; it is also the derivative
    of the determinant with respect to F.
    """
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    C = np.empty_like(F)
    if d == 2:
        C[..., 0, 0] = F[..., 1, 1]
        C[..., 0, 1] = -F[..., 1, 0]
        C[..., 1, 0] = -F[..., 0, 1]
        C[..., 1, 1] = F[..., 0, 0]
        return C
    if d == 3:
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != i]
                c = [k for k in range(3) if k != j]
                minor = (F[..., r[0], c[0]] * F[..., r[1], c[1]]
                         - F[..., r[0], c[1]] * F[..., r[1], c[0]])
                C[..., i, j] = (-1.0) ** (i + j) * minor
        return C
    raise PreconditionError("cofactor supports d = 2, 3 only")
