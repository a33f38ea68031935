"""Staggered-grid finite-difference operators with the solver's boundary
conditions.

Layout conventions follow :mod:`chve.grid`: face data is an
``(on_xfaces, on_yfaces)`` pair, and scalars flatten C-order, index
``i * ny + j``.  The discrete adjointness

    <face_gradient(p), (u, w)>_faces = -<p, face_divergence(u, w)>_cells

holds to rounding for any p and no-slip (u, w), both inner products
weighted by the cell area hx*hy.  It makes the telescoping flux sums
conserve mass exactly, so every reduction keeps a fixed summation order.

Boundary conditions:

* ``face_gradient`` puts 0 on boundary-normal faces (homogeneous Neumann);
* ``laplacian_matrix`` is a conservative flux form; its rows sum to 0;
* :func:`node_shear_gradients`, and through it :func:`velocity_derivatives`,
  use reflected ghost values (v = 0 on walls);
* advection is the conservative flux form div(v q) with a kappa = 1/3
  upwind-biased face reconstruction, plain upwind on faces that lack the
  second upwind neighbour.  It assumes a solenoidal v and does not check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

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


def laplacian_matrix(grid: GridSpec, coeff: np.ndarray | None = None) -> sp.dia_matrix:
    """Assembled zero-flux Laplacian div(coeff grad .), rows summing to 0,
    as its five diagonals (offsets -ny, -1, 0, 1, ny).

    Each interior face between cells a and b carries the weight
    w = coeff_face / h^2, coeff_face the arithmetic mean of the two cells,
    and adds w to (a, b) and (b, a) and -w to both diagonals; boundary
    faces carry no flux.  coeff must be finite and positive.  A product
    with a vector is bitwise that of the row-sorted CSR form.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    c = ScalarField(grid, np.ones((nx, ny)) if coeff is None else coeff).values
    if np.min(c) <= 0.0:
        raise PreconditionError("laplacian coefficient must be strictly positive")
    wx = 0.5 * (c[1:, :] + c[:-1, :]) * (1.0 / (hx * hx))   # face (i, j)-(i+1, j)
    wy = 0.5 * (c[:, 1:] + c[:, :-1]) * (1.0 / (hy * hy))   # face (i, j)-(i, j+1)

    # data[k] holds column m of diagonal k: entry (m - offset, m)
    data = np.zeros((5, nx, ny))
    data[0, :-1, :] = wx      # offset -ny: row of cell (i+1, j), column (i, j)
    data[1, :, :-1] = wy      # offset -1: row (i, j+1), column (i, j)
    data[3, :, 1:] = wy       # offset +1: row (i, j-1), column (i, j)
    data[4, 1:, :] = wx       # offset +ny: row (i-1, j), column (i, j)
    diag = data[2]
    diag[:-1, :] -= wx
    diag[1:, :] -= wx
    diag[:, :-1] -= wy
    diag[:, 1:] -= wy
    n = nx * ny
    return sp.dia_matrix((data.reshape(5, n), (-ny, -1, 0, 1, ny)), shape=(n, n))


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
    """The read-only orthonormal DCT-II matrix of length n,
    C[k, j] = sqrt((2 - [k = 0]) / n) cos(pi k (2j + 1) / 2n), each entry
    correct to rounding."""
    k = np.arange(n)
    C = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * (np.outer(k, 2 * k + 1) % (4 * n)))
    C[0] *= np.sqrt(0.5)
    C.setflags(write=False)
    return C


def dct2d(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The orthonormal 2-D DCT-II of the 2-D array x, Cx x Cy^T, or its
    inverse Cx^T x Cy."""
    nx, ny = x.shape
    if not dense_transforms(nx, ny):
        from scipy import fft
        return (fft.idctn if inverse else fft.dctn)(x, type=2, norm="ortho")
    Cx, Cy = _dct_factor(nx), _dct_factor(ny)
    return (Cx.T @ x) @ Cy if inverse else (Cx @ x) @ Cy.T


@lru_cache(maxsize=8)  # a grid uses two lengths
def _dst_factor(n: int) -> np.ndarray:
    """The read-only orthonormal DST-I matrix on the n - 1 interior nodes of
    an axis of n cells: symmetric, its own inverse, each entry correct to
    rounding."""
    m = np.arange(1, n)
    S = np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(m, m) % (2 * n)))
    S.setflags(write=False)
    return S


def dst2d(x: np.ndarray) -> np.ndarray:
    """The orthonormal 2-D DST-I Sx x Sy of the (nx - 1, ny - 1)
    interior-node data x of nx x ny cells, its own inverse."""
    nx, ny = x.shape[0] + 1, x.shape[1] + 1
    if not dense_transforms(nx, ny):
        from scipy import fft
        return fft.dstn(x, type=1, norm="ortho")
    return (_dst_factor(nx) @ x) @ _dst_factor(ny)


def dct_diagonal(r: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply the operator with the (nx, ny) symbol on the orthonormal
    DCT-II basis of :func:`laplacian_eigenvalues` to the 2-D array r."""
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
    """The derivative pass of one no-slip face velocity v: du/dx and dw/dy
    on the (nx, ny) cells, du/dy and dw/dx on the (nx+1, ny+1) nodes
    (:func:`node_shear_gradients`), and max|u|, max|w|."""
    v: StaggeredVectorField
    dudx: np.ndarray
    dwdy: np.ndarray
    dudy: np.ndarray
    dwdx: np.ndarray
    u_max: float
    w_max: float


def velocity_derivatives(v: StaggeredVectorField) -> VelocityDerivatives:
    """The :class:`VelocityDerivatives` of v."""
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
    each component's own axis, the reflected wall ghost (diagonal 3/h^2)
    across it.  -nu times this is the Stokes velocity block."""
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
    each (nx, ny), row-major as in (grad v)_ij = d v_i / d x_j: the node
    shear gradients averaged to cells for the off-diagonal entries.
    du/dx + dw/dy equals face_divergence(v.u, v.w) exactly."""
    return dv.dudx, _corner_average(dv.dudy), _corner_average(dv.dwdx), dv.dwdy


def velocity_gradient(dv: VelocityDerivatives) -> np.ndarray:
    """grad v at cell centers as one (nx, ny, 2, 2) array, the entries of
    :func:`velocity_gradient_entries`."""
    g = dv.v.grid
    return np.stack(velocity_gradient_entries(dv), axis=-1).reshape(g.nx, g.ny, 2, 2)


# ---------------------------------------------------------------------------
# conservative upwind-biased advection


def _axis0_candidates(q):
    """kappa = 1/3 upwind-biased values of cell data q (n cells along axis
    0) on all n + 1 faces of that axis, as (for vel >= 0, for vel < 0),
    with 0 on the two boundary faces.

    Face k lies between cells k - 1 and k.  With the jumps
    d[k] = q[k] - q[k-1], a = (1 - 1/3) d and b = (1 + 1/3) d, the
    vel >= 0 value is q[k-1] + 0.25 (a[k-1] + b[k]) and the vel < 0 value
    q[k] + 0.25 (0 - (a[k+1] + b[k])), both bitwise the direct form
    c + 0.25 ((1 - 1/3)(c - w) + (1 + 1/3)(d - c)) with upwind cell c, far
    upwind cell w and downwind cell d, signed zeros included.  A face whose
    far upwind cell would leave the grid takes plain upwind.
    """
    n = q.shape[0]
    pos = np.empty((n + 1,) + q.shape[1:])
    neg = np.empty_like(pos)
    pos[0] = pos[n] = neg[0] = neg[n] = 0.0
    pos[1] = q[0]
    neg[n - 1] = q[n - 1]
    d = np.subtract(q[1:], q[:-1])   # the jump of face k at index k - 1
    p = np.multiply(d[:-1], 1.0 - 1.0 / 3.0, out=pos[2:n])      # a, faces 2 .. n-1
    m = np.multiply(d[1:], 1.0 - 1.0 / 3.0, out=neg[1:n - 1])   # a, faces 1 .. n-2
    d *= 1.0 + 1.0 / 3.0                                        # b, in place
    p += d[1:]
    p *= 0.25
    p += q[1:-1]
    m += d[:-1]
    np.subtract(0.0, m, out=m)
    m *= 0.25
    m += q[1:-1]
    return pos, neg


def upwind_candidates(q: np.ndarray):
    """The face candidates of :func:`advect_upwind` for a stack of cell
    fields q, shape (nx, ny, ...), as ``(x-faces, y-faces)``, each the pair
    of :func:`_axis0_candidates`: the x faces (nx + 1, ny, ...), the y faces
    formed on the transpose of q, (ny + 1, nx, ...)."""
    return (_axis0_candidates(q),
            _axis0_candidates(np.ascontiguousarray(np.swapaxes(q, 0, 1))))


def _expand(vel: np.ndarray, shape) -> np.ndarray:
    """Face velocity vel, one value per face, repeated over the trailing
    field axes of shape."""
    return np.repeat(vel.ravel(), np.prod(shape[2:], dtype=int)).reshape(shape)


def advect_upwind(v: StaggeredVectorField, faces) -> np.ndarray:
    """div(v q), (nx, ny, ...), for the stack q of :func:`upwind_candidates`
    ``faces``.  The sign of the normal velocity selects the candidate
    (``>=`` takes the vel >= 0 one, for -0.0 too)."""
    g = v.grid
    (xp, xm), (yp, ym) = faces
    u = _expand(v.u, xp.shape)
    w = _expand(v.w.T, yp.shape)
    fx = np.where(u >= 0.0, xp, xm)
    fx *= u          # face values to fluxes, in place
    fy = np.where(w >= 0.0, yp, ym)
    fy *= w
    out = np.subtract(fx[1:], fx[:-1], out=u[:-1])   # over the spent velocities
    out /= g.hx
    dy = np.subtract(fy[1:], fy[:-1], out=w[:-1])
    dy /= g.hy
    out += np.swapaxes(dy, 0, 1)
    return out


def advect_scalar(v: StaggeredVectorField, phi: np.ndarray) -> np.ndarray:
    """div(v phi) of cell data phi, v . grad(phi) for solenoidal v; its
    cell-area sum telescopes to the (zero) boundary flux for any no-slip v."""
    return advect_upwind(v, upwind_candidates(phi))


def advect_tensor(v: StaggeredVectorField, F: np.ndarray) -> np.ndarray:
    """Componentwise div(v F) of cell tensors F, shape (nx, ny, d, d), i.e.
    (v . grad) F for solenoidal v (unchecked)."""
    return advect_upwind(v, upwind_candidates(F))
