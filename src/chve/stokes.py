"""Quasi-static Stokes solve with capillary and elastic forcing.

The momentum balance has no inertia: the velocity is slaved to the current
(phi, mu, F) through

    -nu Lap(v) + grad(q) = mu grad(phi)
                           - (c/2) f'(phi) (F:F - d) grad(phi)
                           + div( c f(phi) F F^T ),
    div(v) = 0,   v = 0 on the boundary.

On the MAC grid the velocity block is A = -nu Delta_h, Delta_h the vector
Laplacian of :mod:`chve.operators`, and the pressure gradient is
G = face_gradient (G^T = -face_divergence).  This module solves
A v + G q = f, G^T v = 0 exactly on face arrays, assembling nothing:

* With no-slip walls the discretely divergence-free fields are exactly the
  curls v = C psi of stream functions on the interior nodes (psi = 0 on the
  boundary), and C^T G = 0.  So psi solves the SPD system
  C^T A C psi = C^T f, and C^T A C = nu (Delta_D^2 + P) holds exactly:
  Delta_D is the Dirichlet node Laplacian, diagonal under DST-I, and P is
  diagonal, 2/h^4 per wall next to a node, nonzero only on the ring of
  nodes along the walls.
* The ring term is removed by the capacitance-matrix method (Buzbee, Dorr,
  George & Golub 1971; Bjorstad 1983).  With B = Delta_D^2,
  (B + P) psi = r is z = B^-1 r, y = K^-1 z[ring], psi = z - B^-1 y, with
  the dense SPD capacitance K = diag(1/P_ring) + (B^-1)[ring, ring], which
  the box's mirror flips split into four sectors
  (:func:`_capacitance_sectors`).
* The pressure solves G q = r, r = f + nu Delta_h v (r lies in the range
  of G), through G^T G = -L, L the zero-flux cell Laplacian, diagonal under
  DCT-II; q has zero mean.

No Galilean-invariance check is meaningful here: the no-slip box pins the
velocity frame, so a uniform velocity shift is not an admissible state.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from . import constitutive as law
from .errors import TOL_LIN, SolverError
from .grid import (GridSpec, ModelParams, PreconditionError, ScalarField,
                   StaggeredVectorField, TensorField)
from .krylov import norm
from .operators import (_corner_average, _dst_factor, dct_diagonal, dst2d,
                        face_average, face_divergence, face_gradient,
                        laplacian_eigenvalues, solenoidal_residual, vector_laplacian,
                        velocity_derivatives)


def _dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the Dirichlet -d^2/dx^2 on the n - 1 interior nodes
    of an axis, on the DST-I basis."""
    return 4.0 / (h * h) * np.sin(0.5 * np.pi * np.arange(1, n) / n) ** 2


def _capacitance_sectors(Sx: np.ndarray, Sy: np.ndarray, W: np.ndarray,
                         hx: float, hy: float):
    """(blocks, gather, scatter): the capacitance K = diag(1/P_ring) +
    (B^-1)[ring, ring] split into the four sectors of the mirror flips
    Jx: i -> nx-2-i and Jy: j -> ny-2-j, without forming K.

    Sx, Sy are the DST-I factors (:func:`chve.operators._dst_factor`) and
    W = B^-1 on their basis.  Both flips commute with K, so K is
    block-diagonal on the sectors s = 2 px + py of the functions with
    parities (-1)^px under Jx and (-1)^py under Jy.  A sector's orthonormal
    basis has one vector per orbit of the flips on the ring, with its
    representative on the row j = 0 (nodes (i, 0), the corner first) or on
    the column i = 0 (nodes (0, j), j > 0): the orbit's nodes, signed by
    the sector's parities, over the square root of the orbit size (4, or 2
    for a centre node fixed by its flip, which lies in the even sectors of
    that flip only).  DST-I row k obeys S[k, m-1-i] = (-1)^k S[k, i], so
    the sector's block is diag(1/P) at the representatives plus, with
    x0 = Sx[px::2, 0], y0 = Sy[py::2, 0] and W_s = W[px::2, py::2], the
    separable products over the modes of the sector's parities only:

        rows, rows:       X^T ((W_s @ y0^2) * X)
        columns, columns: Y^T ((x0^2 @ W_s) * Y)
        rows, columns:    X^T ((x0 * W_s * y0) @ Y)

    X, Y are the x, y factor columns of the representatives, each scaled
    by the square root of its orbit size.  ``blocks[s]`` is Fortran-ordered.

    Ring order is the row lines j = 0 and ny-2 node by node (index
    2 i + (j > 0)), then the columns i = 0 and nx-2 without their corners.
    ``gather`` = (index, weight), both (4, R), R = 2(nx-1) + 2(ny-1) - 4,
    takes ring values z to the stacked sector coordinates
    (weight * z[index]).sum(0); ``scatter`` takes stacked coordinates c
    back to ring values (weight * c[index]).sum(0).
    """
    mx, my = W.shape
    parities = ((0, 0), (0, 1), (1, 0), (1, 1))  # (px, py) of sector s = 2 px + py
    # each sector's orbit representatives: the rows' (i, 0), then the columns' (0, j)
    reps = [(np.arange((mx + 1 - px) // 2), np.arange(1, (my + 1 - py) // 2))
            for px, py in parities]
    sizes = [i.size + j.size for i, j in reps]
    # the representative (ri, rj) of each stacked coordinate, sector by sector
    ri = np.concatenate([a for i, j in reps for a in (i, 0 * j)])
    rj = np.concatenate([a for i, j in reps for a in (0 * i, j)])
    sector = np.repeat(np.arange(4), sizes)
    w = np.where((2 * ri == mx - 1) | (2 * rj == my - 1), np.sqrt(2.0), 2.0)
    P = 2.0 / hy ** 4 * (rj == 0) + 2.0 / hx ** 4 * (ri == 0)

    blocks, start = [], 0
    for (px, py), (i, _), n in zip(parities, reps, sizes):
        r = i.size
        X = Sx[px::2, :r] * w[start:start + r]
        Y = Sy[py::2, 1:n - r + 1] * w[start + r:start + n]
        x0, y0, Ws = Sx[px::2, 0], Sy[py::2, 0], W[px::2, py::2]
        K = np.empty((n, n), order="F")
        K[:r, :r] = X.T @ ((Ws @ (y0 * y0))[:, None] * X)
        K[r:, r:] = Y.T @ (((x0 * x0) @ Ws)[:, None] * Y)
        K[:r, r:] = X.T @ ((x0[:, None] * Ws * y0) @ Y)
        K[r:, :r] = K[:r, r:].T
        K.flat[::n + 1] += 1.0 / P[start:start + n]
        blocks.append(K)
        start += n

    # the representatives' images under Jx^a Jy^b, row g = 2a + b, as ring
    # positions, and each sector's parity sign of that flip
    a, b = np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]])
    ni = np.where(a, mx - 1 - ri, ri)
    nj = np.where(b, my - 1 - rj, rj)
    node = np.where((nj == 0) | (nj == my - 1), 2 * ni + (nj > 0),
                    2 * mx + (ni > 0) * (my - 2) + nj - 1)
    sign = 1.0 - 2.0 * ((a * (sector // 2) + b * (sector % 2)) % 2)
    scatter = np.zeros((4, ri.size), dtype=np.intp), np.zeros((4, ri.size))
    scatter[0][sector, node] = np.arange(ri.size)
    scatter[1][sector, node] = sign / w
    return blocks, (node, sign * w / 4.0), scatter


def _norm(u: np.ndarray, w: np.ndarray) -> float:
    """Euclidean norm of a face field given by its two face arrays."""
    return float(np.hypot(norm(u), norm(w)))


class StokesSolver:
    """Exact MAC Stokes solver for one (grid, nu) pair: the DST-I
    biharmonic symbol, the Cholesky factors of the four capacitance
    sectors and the DCT-II pressure symbol, built once."""

    def __init__(self, grid: GridSpec, nu: float):
        if nu <= 0.0:
            raise PreconditionError("nu must be > 0")
        self.grid = grid
        self.nu = nu
        nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy

        self._Sx = Sx = _dst_factor(nx)
        Sy = _dst_factor(ny)
        lam_x, lam_y = _dirichlet_eigenvalues(nx, hx), _dirichlet_eigenvalues(ny, hy)
        self._B_inv = W = 1.0 / (lam_x[:, None] + lam_y[None, :]) ** 2  # B^-1, DST-I basis
        # the basis rows of the ring's lines: rows j = 0, ny-2, columns
        # i = 0, nx-2, and the columns' inner nodes
        self._Sy_rows, self._Sx_cols, self._Sy_inner = Sy[[0, -1]], Sx[:, [0, -1]], Sy[1:-1]
        blocks, self._gather, self._scatter = _capacitance_sectors(Sx, Sy, W, hx, hy)
        self._sectors, start = [], 0
        for K in blocks:
            cap, info = lapack.dpotrf(K, overwrite_a=True)
            if info != 0:
                raise SolverError(f"capacitance factorization failed (potrf info {info})")
            self._sectors.append((slice(start, start + len(cap)), cap))
            start += len(cap)

        eig = laplacian_eigenvalues(grid)
        eig[0, 0] = -np.inf  # the constant pressure mode is set to zero
        self._q_inv = -1.0 / eig

    # -- solve ------------------------------------------------------------

    def _velocity(self, force: StaggeredVectorField) -> StaggeredVectorField:
        """The curl of the stream function that solves (B + P) psi = C^T f / nu.

        With S the 2-D DST-I (its own inverse), W = B^-1 on its basis and
        r_hat = S r, psi = z - B^-1 y is S W (r_hat - S y), z = S W r_hat,
        y = K^-1 z[ring].  A row line j of z is Sx (W r_hat) Sy[j], a column
        line i is (Sx[i] W r_hat) Sy."""
        g = self.grid
        Sx, Sy_rows, Sx_cols, Sy_inner = self._Sx, self._Sy_rows, self._Sx_cols, self._Sy_inner
        u, w = force.u, force.w
        curl = (w[1:, 1:-1] - w[:-1, 1:-1]) / g.hx - (u[1:-1, 1:] - u[1:-1, :-1]) / g.hy
        r_hat = dst2d(curl / self.nu)
        Wr = self._B_inv * r_hat
        z = np.concatenate(((Sx @ (Wr @ Sy_rows.T)).ravel(),
                            ((Sx_cols.T @ Wr) @ Sy_inner.T).ravel()))  # ring order
        index, weight = self._gather
        c = (weight * z[index]).sum(axis=0)
        for part, cap in self._sectors:
            # LAPACK potrs, which scipy.linalg.cho_solve reaches through its
            # batching wrapper, on the sector's Fortran-ordered factor; it may
            # solve in place, and the copy back is then onto itself
            x, info = lapack.dpotrs(cap, c[part], overwrite_b=True)
            if info != 0:
                raise SolverError(f"capacitance back-solve failed (potrs info {info})")
            c[part] = x
        index, weight = self._scatter
        y = (weight * c[index]).sum(axis=0)
        mx = g.nx - 1
        y_hat = ((Sx @ y[:2 * mx].reshape(mx, 2)) @ Sy_rows
                 + Sx_cols @ (y[2 * mx:].reshape(2, -1) @ Sy_inner))
        psi = np.zeros((g.nx + 1, g.ny + 1))
        psi[1:-1, 1:-1] = dst2d(self._B_inv * (r_hat - y_hat))
        if not np.isfinite(psi).all():
            raise SolverError("stream function is not finite")
        return StaggeredVectorField.from_stream_function(g, psi)

    def solve(self, force: StaggeredVectorField):
        """(v, q, dv): v a stream-function curl with zero boundary faces, q
        of zero mean, and dv the derivative pass of v
        (:func:`chve.operators.velocity_derivatives`).  Raises SolverError
        if the momentum residual exceeds TOL_LIN relative to the force, or
        if v is not solenoidal: dv.div_max above the bound of
        :func:`chve.operators.solenoidal_residual`."""
        g = self.grid
        dv = velocity_derivatives(self._velocity(force))
        lu, lw = vector_laplacian(dv)
        ru, rw = force.u + self.nu * lu, force.w + self.nu * lw
        q = dct_diagonal(-face_divergence(ru, rw, g), self._q_inv)
        q = ScalarField(g, q - q.sum() / q.size)  # bitwise q.mean()

        gu, gw = face_gradient(q.values, g)
        res = _norm(ru - gu, rw - gw)
        bound = TOL_LIN * _norm(force.u, force.w)
        if not res <= bound:
            raise SolverError(f"stokes residual {res:.3e} > {TOL_LIN:.1e} * |f| "
                              f"= {bound:.3e}")
        div_v, bound = solenoidal_residual(dv)
        if not div_v <= bound:
            raise SolverError(f"div residual {div_v:.3e} > {bound:.3e}")
        return dv.v, q, dv


def elastic_force(f: np.ndarray, F: TensorField, params: ModelParams):
    """Conservative face divergence of the cell stress c f F F^T, f = f(phi),
    as (on_xfaces, on_yfaces) with boundary faces 0; the shear component
    is averaged to nodes (the cell plane edge-padded) so that the
    divergence telescopes."""
    g = F.grid
    S = law.eulerian_elastic_stress(f, F.comps, params)
    # the shear plane edge-padded by slicing: np.pad(mode="edge")'s values
    Sxy = np.empty((g.nx + 2, g.ny + 2))
    Sxy[1:-1, 1:-1] = S[:, :, 0, 1]
    Sxy[1:-1, 0] = Sxy[1:-1, 1]
    Sxy[1:-1, -1] = Sxy[1:-1, -2]
    Sxy[0] = Sxy[1]
    Sxy[-1] = Sxy[-2]
    Sxy_n = _corner_average(Sxy)
    fu = np.zeros((g.nx + 1, g.ny))
    fw = np.zeros((g.nx, g.ny + 1))
    fu[1:-1, :] = ((S[1:, :, 0, 0] - S[:-1, :, 0, 0]) / g.hx
                   + (Sxy_n[1:-1, 1:] - Sxy_n[1:-1, :-1]) / g.hy)
    fw[:, 1:-1] = ((Sxy_n[1:, 1:-1] - Sxy_n[:-1, 1:-1]) / g.hx
                   + (S[:, 1:, 1, 1] - S[:, :-1, 1, 1]) / g.hy)
    return fu, fw


def assemble_force(f: np.ndarray, grad_phi, mu: ScalarField,
                   dw_dphi: np.ndarray, F: TensorField,
                   params: ModelParams) -> StaggeredVectorField:
    """Right-hand side of the momentum balance on faces, boundary faces 0:
    (mu - dw/dphi) face-averaged times grad_phi = face_gradient(phi), plus
    :func:`elastic_force`.  dw_dphi is the elastic term of mu
    (:func:`chve.constitutive.elastic_response`).  The returned field is
    the one check that the force is finite.
    """
    if mu.grid != F.grid:
        raise PreconditionError("force inputs must share one grid")
    g = mu.grid
    cx, cy = face_average(mu.values - dw_dphi, g)
    eu, ew = elastic_force(f, F, params)
    return StaggeredVectorField(g, cx * grad_phi[0] + eu, cy * grad_phi[1] + ew)
