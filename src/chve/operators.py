"""Staggered-grid finite-difference operators with the solver's boundary
conditions.

Layout conventions follow :mod:`chve.grid`.  The operators trade plain arrays
(face data as an ``(on_xfaces, on_yfaces)`` pair) and take a velocity, which
is state, as its field.  The discrete adjointness

    <face_gradient(p), (u, w)>_faces = -<p, face_divergence(u, w)>_cells

holds exactly (to rounding) for any p and no-slip (u, w), with both inner
products weighted by the cell area hx*hy.  That identity is what turns the
telescoping flux sums into exact mass conservation downstream, so every
reduction here keeps a fixed summation order.

Boundary conditions baked in:

* ``face_gradient`` puts 0 on boundary-normal faces (homogeneous Neumann);
* ``laplacian_matrix`` is a conservative flux form; its rows sum to 0;
* ``node_shear_gradients``, and through it the derivative pass
  :func:`velocity_derivatives`, use reflected ghost values (v = 0 on walls);
* the advection operators use a conservative flux form with a kappa = 1/3
  upwind-biased face reconstruction, falling back to plain upwind on faces
  that lack the second upwind neighbor.  The reconstruction is split in
  two: :func:`upwind_candidates` builds the face values for either sign of
  the face velocity from the cell data alone, and :func:`advect_upwind`
  selects by the sign of v and forms the flux divergence, so a stack of
  fields advected by several velocities (the Picard sweeps of one step)
  builds its candidates once.  :func:`advect_scalar` and
  :func:`advect_tensor` are that pair.  They assume a solenoidal v and do
  not check it: the driver admits each velocity by :func:`solenoidal_residual`.

:func:`velocity_derivatives` forms, once per velocity, du/dx and dw/dy on
cells, du/dy and dw/dx on nodes, and max|u|, max|w|.  Every reader of those
takes the pass, not the velocity: :func:`solenoidal_residual`,
:func:`vector_laplacian` (the Stokes momentum residual),
:func:`velocity_gradient_entries` (the transport stretch) and the viscous
dissipation.

:func:`laplacian_matrix` assembles the zero-flux Laplacian div(coeff grad .),
which for coeff = 1 is ``face_divergence(*face_gradient(.))``,
:func:`laplacian_eigenvalues` gives its eigenvalues on the DCT-II basis, and
:func:`dct_diagonal` applies any function of them (the Cahn-Hilliard
preconditioner and the pressure solve).  On grids of at most
``DENSE_TRANSFORM_MAX`` cells per axis (:func:`dense_transforms`) a
separable eigenbasis is applied as two products with its orthonormal 1-D
factors, which beats pocketfft there; above, pocketfft's O(n^2 log n) wins.
Scalars are flattened C-order, index ``i * ny + j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.fft import dctn, idctn

from .grid import GridSpec, PreconditionError, ScalarField, StaggeredVectorField


# ---------------------------------------------------------------------------
# gradient / divergence / Laplacian


def face_gradient(p: np.ndarray, grid: GridSpec):
    """Two-point gradient of cell data p onto faces as (on_xfaces,
    on_yfaces), boundary faces 0."""
    gu = np.zeros((grid.nx + 1, grid.ny))
    gw = np.zeros((grid.nx, grid.ny + 1))
    gu[1:-1, :] = (p[1:, :] - p[:-1, :]) / grid.hx
    gw[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.hy
    return gu, gw


def face_divergence(fx: np.ndarray, fy: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Conservative flux divergence onto cells of face data (fx, fy)."""
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def face_average(p: np.ndarray, grid: GridSpec):
    """Arithmetic average of cell data p onto interior faces.

    Returns (on_xfaces, on_yfaces) with boundary faces set to 0; used for
    variable coefficients and for face-sampling scalar prefactors.
    """
    ax = np.zeros((grid.nx + 1, grid.ny))
    ay = np.zeros((grid.nx, grid.ny + 1))
    ax[1:-1, :] = 0.5 * (p[1:, :] + p[:-1, :])
    ay[:, 1:-1] = 0.5 * (p[:, 1:] + p[:, :-1])
    return ax, ay


def laplacian_matrix(grid: GridSpec, coeff: np.ndarray | None = None) -> sp.csr_matrix:
    """Assembled zero-flux Laplacian div(coeff grad .), rows summing to 0.

    Each interior face between cells a and b carries the weight
    w = coeff_face / h^2, coeff_face from :func:`face_average`, and adds w
    to (a, b) and (b, a) and -w to both diagonals; boundary faces carry no
    flux.  coeff must be finite and positive.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    coeff = ScalarField(grid, np.ones((nx, ny)) if coeff is None else coeff)
    if np.min(coeff.values) <= 0.0:
        raise PreconditionError("laplacian coefficient must be strictly positive")
    ax, ay = face_average(coeff.values, grid)
    wx = ax[1:-1, :] * (1.0 / (hx * hx))   # face between (i, j) and (i+1, j)
    wy = ay[:, 1:-1] * (1.0 / (hy * hy))   # face between (i, j) and (i, j+1)

    diag = np.zeros((nx, ny))
    diag[:-1, :] -= wx
    diag[1:, :] -= wx
    diag[:, :-1] -= wy
    diag[:, 1:] -= wy

    n = nx * ny
    idx = np.arange(n).reshape(nx, ny)
    rows = np.concatenate([idx[:-1, :].ravel(), idx[1:, :].ravel(),
                           idx[:, :-1].ravel(), idx[:, 1:].ravel(), idx.ravel()])
    cols = np.concatenate([idx[1:, :].ravel(), idx[:-1, :].ravel(),
                           idx[:, 1:].ravel(), idx[:, :-1].ravel(), idx.ravel()])
    vals = np.concatenate([wx.ravel(), wx.ravel(), wy.ravel(), wy.ravel(), diag.ravel()])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of :func:`laplacian_matrix` (no coefficient) on the
    DCT-II basis, shape (nx, ny): the 2-D cosine mode (k, l) has
    -4/hx^2 sin^2(pi k / 2nx) - 4/hy^2 sin^2(pi l / 2ny)."""
    lx = -4.0 / grid.hx ** 2 * np.sin(0.5 * np.pi * np.arange(grid.nx) / grid.nx) ** 2
    ly = -4.0 / grid.hy ** 2 * np.sin(0.5 * np.pi * np.arange(grid.ny) / grid.ny) ** 2
    return lx[:, None] + ly[None, :]


# The largest axis length (cells) whose DCT-II and DST-I eigenbases are
# applied as dense products with the 1-D factors; pocketfft is faster above
# it (crossover table in ROADMAP, one BLAS thread).
DENSE_TRANSFORM_MAX = 96


def dense_transforms(nx: int, ny: int) -> bool:
    """Whether an nx x ny grid applies its eigenbases as dense products."""
    return max(nx, ny) <= DENSE_TRANSFORM_MAX


@lru_cache(maxsize=8)  # a grid uses two lengths
def _dct_factor(n: int) -> np.ndarray:
    """The read-only orthonormal DCT-II matrix of length n, shared by every
    caller, C[k, j] = sqrt((2 - [k = 0]) / n) cos(pi k (2j + 1) / 2n); the
    angle is reduced mod 2 pi in integers, so every entry is correct to
    rounding."""
    k = np.arange(n)
    C = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n)))
    C[0] *= np.sqrt(0.5)
    C.setflags(write=False)
    return C


def dct2d(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The orthonormal 2-D DCT-II of the 2-D array x, or its inverse:
    Cx x Cy^T (Cx^T x Cy) with the 1-D factors C on small grids
    (:func:`dense_transforms`), pocketfft above."""
    nx, ny = x.shape
    if not dense_transforms(nx, ny):
        return (idctn if inverse else dctn)(x, type=2, norm="ortho")
    Cx, Cy = _dct_factor(nx), _dct_factor(ny)
    return (Cx.T @ x) @ Cy if inverse else (Cx @ x) @ Cy.T


def dct_diagonal(r: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply the operator with the given symbol on the orthonormal DCT-II
    basis of :func:`laplacian_eigenvalues` to the 2-D array r: one
    :func:`dct2d` pair around the product with the (nx, ny) symbol."""
    return dct2d(dct2d(r) * symbol, inverse=True)


# ---------------------------------------------------------------------------
# the velocity derivative pass and its readers


def node_shear_gradients(v: StaggeredVectorField) -> tuple[np.ndarray, np.ndarray]:
    """du/dy and dw/dx at the (nx+1, ny+1) nodes; at walls the reflected
    ghost (ghost value = -v) enforces v = 0, giving 2 v / h there."""
    g = v.grid
    dudy = np.zeros((g.nx + 1, g.ny + 1))
    dudy[:, 1:-1] = (v.u[:, 1:] - v.u[:, :-1]) / g.hy
    dudy[:, 0] = 2.0 * v.u[:, 0] / g.hy
    dudy[:, -1] = -2.0 * v.u[:, -1] / g.hy
    dwdx = np.zeros((g.nx + 1, g.ny + 1))
    dwdx[1:-1, :] = (v.w[1:, :] - v.w[:-1, :]) / g.hx
    dwdx[0, :] = 2.0 * v.w[0, :] / g.hx
    dwdx[-1, :] = -2.0 * v.w[-1, :] / g.hx
    return dudy, dwdx


@dataclass(frozen=True)
class VelocityDerivatives:
    """The derivative pass of one no-slip face velocity v, from
    :func:`velocity_derivatives`: du/dx and dw/dy on the (nx, ny) cells
    (native face differences), du/dy and dw/dx on the (nx+1, ny+1) nodes
    (:func:`node_shear_gradients`), and max|u|, max|w|."""
    v: StaggeredVectorField
    dudx: np.ndarray
    dwdy: np.ndarray
    dudy: np.ndarray
    dwdx: np.ndarray
    u_max: float
    w_max: float


def velocity_derivatives(v: StaggeredVectorField) -> VelocityDerivatives:
    """Every derivative of v that a step reads, formed once."""
    g = v.grid
    dudy, dwdx = node_shear_gradients(v)
    return VelocityDerivatives(v, (v.u[1:, :] - v.u[:-1, :]) / g.hx,
                               (v.w[:, 1:] - v.w[:, :-1]) / g.hy, dudy, dwdx,
                               float(np.max(np.abs(v.u))), float(np.max(np.abs(v.w))))


# A velocity counts as solenoidal when max|div v| <= DIV_RTOL max(|v|, 1) / min(h):
# the accuracy of a direct saddle solve, scaled like the divergence stencil.
DIV_RTOL = 1e-10


def solenoidal_residual(dv: VelocityDerivatives) -> tuple[float, float]:
    """(max |div v|, the largest value that still counts as solenoidal);
    du/dx + dw/dy is face_divergence(v.u, v.w) bit for bit."""
    g = dv.v.grid
    return (float(np.max(np.abs(dv.dudx + dv.dwdy))),
            DIV_RTOL * max(dv.u_max, dv.w_max, 1.0) / min(g.hx, g.hy))


def vector_laplacian(dv: VelocityDerivatives):
    """MAC vector Laplacian of a no-slip face field, from its derivative
    pass, as (on_xfaces, on_yfaces) with boundary faces 0: Dirichlet along
    each component's own axis, the reflected wall ghost of
    :func:`node_shear_gradients` (diagonal 3/h^2) across it.  -nu times
    this is the Stokes velocity block."""
    g = dv.v.grid
    dudx, dwdy, dudy, dwdx = dv.dudx, dv.dwdy, dv.dudy, dv.dwdx
    lu = np.zeros((g.nx + 1, g.ny))
    lw = np.zeros((g.nx, g.ny + 1))
    lu[1:-1, :] = (dudx[1:, :] - dudx[:-1, :]) / g.hx + (dudy[1:-1, 1:] - dudy[1:-1, :-1]) / g.hy
    lw[:, 1:-1] = (dwdx[1:, 1:-1] - dwdx[:-1, 1:-1]) / g.hx + (dwdy[:, 1:] - dwdy[:, :-1]) / g.hy
    return lu, lw


def _corner_average(p: np.ndarray) -> np.ndarray:
    """Mean of the four corners of each cell of a (m+1, k+1) array: nodes to
    cells, or cells to nodes once the cell field is edge-padded."""
    return 0.25 * (p[:-1, :-1] + p[1:, :-1] + p[:-1, 1:] + p[1:, 1:])


def velocity_gradient_entries(dv: VelocityDerivatives):
    """The entries (du/dx, du/dy, dw/dx, dw/dy) of grad v at cell centers,
    each (nx, ny), row-major as in (grad v)_ij = d v_i / d x_j.

    Diagonal entries are native face differences; off-diagonal entries are
    corner (node) differences averaged to the cell, with reflected ghost
    values enforcing v = 0 on the walls.  du/dx + dw/dy equals
    face_divergence(v.u, v.w) exactly.
    """
    return dv.dudx, _corner_average(dv.dudy), _corner_average(dv.dwdx), dv.dwdy


def velocity_gradient(dv: VelocityDerivatives) -> np.ndarray:
    """grad v at cell centers as one (nx, ny, 2, 2) array, the entries of
    :func:`velocity_gradient_entries`; its trace equals
    face_divergence(v.u, v.w) exactly."""
    g = dv.v.grid
    return np.stack(velocity_gradient_entries(dv), axis=-1).reshape(g.nx, g.ny, 2, 2)


# ---------------------------------------------------------------------------
# conservative upwind-biased advection


def _kappa_third(out, c, w, d, tmp):
    """out = c + 0.25 ((1 - 1/3)(c - w) + (1 + 1/3)(d - c)), the kappa = 1/3
    face value between the upwind cell c and the downwind cell d, with w
    the cell upwind of c; formed in place, in that order, using tmp."""
    np.subtract(c, w, out=out)
    out *= 1.0 - 1.0 / 3.0
    np.subtract(d, c, out=tmp)
    tmp *= 1.0 + 1.0 / 3.0
    out += tmp
    out *= 0.25
    out += c


def _face_candidates(q, axis):
    """kappa = 1/3 upwind-biased values of cell data q on the n - 1 interior
    faces of ``axis`` (q has n cells there), as (for vel >= 0, for vel < 0).

    They depend on q alone, so one pair serves every velocity.  Faces whose
    far upwind neighbor would leave the grid fall back to first-order
    upwind.
    """
    shape = list(q.shape)
    shape[axis] -= 1
    hi_pos, hi_neg = np.empty(shape), np.empty(shape)
    pos, neg, q = (np.moveaxis(a, axis, 0) for a in (hi_pos, hi_neg, q))
    qc = q[:-1]      # upwind cell when vel >= 0   (faces 1..n-1)
    qd = q[1:]       # downwind cell when vel >= 0
    tmp = np.empty_like(pos[1:])
    # vel >= 0: cells (W, C, D) = q[k-2], q[k-1], q[k] for face k >= 2;
    # face 1 has no W and falls back to first-order upwind
    pos[0] = qc[0]
    _kappa_third(pos[1:], qc[1:], q[:-2], qd[1:], tmp)
    # vel < 0: mirrored, needs q[k+1] so face k <= n-2; face n-1 is upwind
    neg[-1] = qd[-1]
    _kappa_third(neg[:-1], qd[:-1], q[2:], qc[:-1], tmp)
    return hi_pos, hi_neg


def upwind_candidates(q: np.ndarray):
    """The face candidates of :func:`advect_upwind` for a stack of cell
    fields q, shape (nx, ny, ...): ``(x-faces, y-faces)``, each the pair
    of :func:`_face_candidates` along that axis."""
    return _face_candidates(q, 0), _face_candidates(q, 1)


def advect_upwind(v: StaggeredVectorField, faces) -> np.ndarray:
    """div(v q) for the stack q of :func:`upwind_candidates` ``faces``.

    On each interior face the sign of the normal velocity selects the
    candidate (``>=`` takes the vel >= 0 one, for -0.0 too); the two
    boundary faces carry 0, where the normal velocity vanishes anyway.
    """
    g = v.grid
    (xp, xm), (yp, ym) = faces
    extra = xp.shape[2:]
    u = v.u.reshape(v.u.shape + (1,) * len(extra))
    w = v.w.reshape(v.w.shape + (1,) * len(extra))
    fx = np.zeros((g.nx + 1, g.ny) + extra)
    fy = np.zeros((g.nx, g.ny + 1) + extra)
    fx[1:-1] = np.where(u[1:-1] >= 0.0, xp, xm)
    fy[:, 1:-1] = np.where(w[:, 1:-1] >= 0.0, yp, ym)
    fx *= u          # face values to fluxes, in place
    fy *= w
    out = np.subtract(fx[1:, :], fx[:-1, :])
    out /= g.hx
    dy = np.subtract(fy[:, 1:], fy[:, :-1])
    dy /= g.hy
    out += dy
    return out


def advect_scalar(v: StaggeredVectorField, phi: np.ndarray) -> np.ndarray:
    """Conservative approximation of v . grad(phi) for solenoidal v and
    cell data phi.

    Flux form div(v phi), equal to v . grad(phi) only if div v = 0 (not
    checked here); its cell-area sum telescopes to the (zero) boundary
    flux for any no-slip v, regardless of the face reconstruction.
    """
    return advect_upwind(v, upwind_candidates(phi))


def advect_tensor(v: StaggeredVectorField, F: np.ndarray) -> np.ndarray:
    """Componentwise div(v F) of cell tensors F, shape (nx, ny, d, d), i.e.
    (v . grad) F for solenoidal v (unchecked)."""
    return advect_upwind(v, upwind_candidates(F))
