"""Quasi-static Stokes solve with capillary and elastic forcing.

The momentum balance has no inertia: the velocity is slaved to the current
(phi, mu, F) through

    -nu Lap(v) + grad(q) = mu grad(phi)
                           - (c/2) f'(phi) (F:F - d) grad(phi)
                           + div( c f(phi) F F^T ),
    div(v) = 0,   v = 0 on the boundary.

Discretely the saddle system couples the SPD velocity Laplacian block (MAC
no-slip: Dirichlet on boundary-normal faces, reflected ghosts for the
tangential component) with gradient/divergence blocks that are exact
negative transposes of each other, so the full matrix is symmetric
indefinite.  The pressure null space (constants) is removed by pinning the
pressure unknown of cell (0, 0) to zero, i.e. deleting its column of the
gradient block and the matching divergence row; the matrix stays symmetric
and keeps the sparsity of the stencils.  The deleted row is implied by the
others, because with no-slip walls the cell divergences sum to zero.  The
solution's pressure is then shifted to zero mean.  One sparse LU
factorization per (grid, nu) serves every solve.

No Galilean-invariance check is meaningful here: the no-slip box pins the
velocity frame, so a uniform velocity shift is not an admissible state.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import constitutive as law
from .errors import SolverError
from .grid import (GridSpec, ModelParams, PreconditionError, ScalarField,
                   StaggeredVectorField, TensorField, frobenius)
from .operators import face_average, grad_cc, solenoidal_residual

TOL_LIN = 1e-10


def cell_to_node(c: np.ndarray) -> np.ndarray:
    """Average a cell field onto nodes; one-sided at boundary nodes."""
    p = np.pad(c, 1, mode="edge")
    return 0.25 * (p[:-1, :-1] + p[1:, :-1] + p[:-1, 1:] + p[1:, 1:])


def _tridiag(n: int, h: float, wall_ghost: bool) -> sp.csr_matrix:
    """1-D -d^2/dx^2 on n points; ends see a Dirichlet value (0) or a
    reflected ghost (diagonal 3/h^2) depending on wall_ghost."""
    s = 1.0 / (h * h)
    main = np.full(n, 2.0 * s)
    if wall_ghost:
        main[0] = 3.0 * s
        main[-1] = 3.0 * s
    off = np.full(n - 1, -s)
    return sp.diags([off, main, off], (-1, 0, 1), format="csr")


class StokesSolver:
    """Factorized MAC saddle-point solver for one (grid, nu) pair.

    ``matrix`` is the symmetric system [[A, G_1], [G_1^T, 0]] where ``A`` is
    the velocity block, ``G`` the full pressure gradient and G_1 = G without
    the column of the pinned cell (0, 0)."""

    def __init__(self, grid: GridSpec, nu: float):
        if nu <= 0.0:
            raise PreconditionError("nu must be > 0")
        self.grid = grid
        self.nu = nu
        nx, ny = grid.nx, grid.ny
        self.n_u = (nx - 1) * ny
        self.n_w = nx * (ny - 1)
        self.n_p = nx * ny
        self._assemble()
        self._lu = None

    # -- assembly ---------------------------------------------------------

    def _assemble(self):
        g, nu = self.grid, self.nu
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy

        A_u = nu * (sp.kron(_tridiag(nx - 1, hx, False), sp.eye(ny))
                    + sp.kron(sp.eye(nx - 1), _tridiag(ny, hy, True)))
        A_w = nu * (sp.kron(_tridiag(nx, hx, True), sp.eye(ny - 1))
                    + sp.kron(sp.eye(nx), _tridiag(ny - 1, hy, False)))
        A = sp.block_diag((A_u, A_w), format="csr")

        # pressure gradient onto interior faces; cell index = i*ny + j
        ii, jj = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        rows = ((ii - 1) * ny + jj).ravel()
        east = (ii * ny + jj).ravel()
        west = ((ii - 1) * ny + jj).ravel()
        Gx = sp.csr_matrix(
            (np.concatenate([np.full(rows.size, 1.0 / hx), np.full(rows.size, -1.0 / hx)]),
             (np.concatenate([rows, rows]), np.concatenate([east, west]))),
            shape=(self.n_u, self.n_p))

        ii, jj = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        rows = (ii * (ny - 1) + (jj - 1)).ravel()
        north = (ii * ny + jj).ravel()
        south = (ii * ny + jj - 1).ravel()
        Gy = sp.csr_matrix(
            (np.concatenate([np.full(rows.size, 1.0 / hy), np.full(rows.size, -1.0 / hy)]),
             (np.concatenate([rows, rows]), np.concatenate([north, south]))),
            shape=(self.n_w, self.n_p))

        G = sp.vstack([Gx, Gy], format="csr")
        G1 = G[:, 1:]  # pin the pressure of cell (0, 0)
        M = sp.bmat([[A, G1], [G1.T, None]], format="csc")

        self.A = A
        self.G = G
        self.matrix = M

    def _factorize(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix)
            except RuntimeError as exc:  # singular assembly
                raise SolverError(f"saddle factorization failed: {exc}") from exc
        return self._lu

    # -- packing ----------------------------------------------------------

    def _pack_force(self, force: StaggeredVectorField) -> np.ndarray:
        fu = force.u[1:-1, :].ravel()
        fw = force.w[:, 1:-1].ravel()
        return np.concatenate([fu, fw, np.zeros(self.n_p - 1)])

    def _unpack(self, x: np.ndarray):
        g = self.grid
        nx, ny = g.nx, g.ny
        u = np.zeros((nx + 1, ny))
        w = np.zeros((nx, ny + 1))
        u[1:-1, :] = x[:self.n_u].reshape(nx - 1, ny)
        w[:, 1:-1] = x[self.n_u:self.n_u + self.n_w].reshape(nx, ny - 1)
        p = np.concatenate([[0.0], x[self.n_u + self.n_w:]]).reshape(nx, ny)
        p = p - p.mean()
        return StaggeredVectorField(g, u, w), ScalarField(g, p)

    # -- solve ------------------------------------------------------------

    def solve(self, force: StaggeredVectorField):
        """Solve for (v, q); v has exactly zero boundary faces and q exactly
        zero mean.  Raises SolverError if the residual exceeds TOL_LIN."""
        b = self._pack_force(force)
        lu = self._factorize()
        x = lu.solve(b)
        r = b - self.matrix @ x
        fscale = float(np.linalg.norm(b))
        if float(np.linalg.norm(r)) > 0.01 * TOL_LIN * fscale:
            x += lu.solve(r)  # one refinement pass

        res = float(np.linalg.norm(b - self.matrix @ x))
        if fscale > 0.0 and res > TOL_LIN * fscale:
            raise SolverError(f"stokes residual {res:.3e} > {TOL_LIN:.1e} * |f| "
                              f"= {TOL_LIN * fscale:.3e}")
        v, q = self._unpack(x)
        dres, bound = solenoidal_residual(v)
        if not dres <= bound:
            raise SolverError(f"continuity residual {dres:.3e} > {bound:.3e}")
        return v, q


def elastic_force(phi: ScalarField, F: TensorField, params: ModelParams) -> StaggeredVectorField:
    """Conservative face divergence of the cell stress c f(phi) F F^T.

    Diagonal stress components difference natively onto faces; the shear
    component is averaged to nodes first (one-sided at walls) so that the
    divergence telescopes.
    """
    g = phi.grid
    S = law.eulerian_elastic_stress(phi.values, F.comps, params)
    Sxy_n = cell_to_node(S[:, :, 0, 1])
    fu = np.zeros((g.nx + 1, g.ny))
    fw = np.zeros((g.nx, g.ny + 1))
    fu[1:-1, :] = ((S[1:, :, 0, 0] - S[:-1, :, 0, 0]) / g.hx
                   + (Sxy_n[1:-1, 1:] - Sxy_n[1:-1, :-1]) / g.hy)
    fw[:, 1:-1] = ((Sxy_n[1:, 1:-1] - Sxy_n[:-1, 1:-1]) / g.hx
                   + (S[:, 1:, 1, 1] - S[:, :-1, 1, 1]) / g.hy)
    return StaggeredVectorField(g, fu, fw)


def assemble_force(phi: ScalarField, mu: ScalarField, F: TensorField,
                   params: ModelParams) -> StaggeredVectorField:
    """Right-hand side of the momentum balance sampled on faces.

    The capillary part mu grad(phi) and the coupling part
    -(c/2) f'(phi)(F:F-d) grad(phi) multiply face-averaged cell scalars
    with grad_cc(phi); the elastic part is the conservative divergence of
    the cell-centered stress.  Boundary faces carry 0.
    """
    if not (phi.grid == mu.grid == F.grid):
        raise PreconditionError("force inputs must share one grid")
    g = phi.grid
    d = F.d
    gphi = grad_cc(phi)
    coupling = mu.values - 0.5 * params.c_elastic * law.stiffness_f_prime(
        phi.values, params) * (frobenius(F.comps, F.comps) - d)
    cx, cy = face_average(ScalarField(g, coupling))
    el = elastic_force(phi, F, params)
    fu = cx * gphi.u + el.u
    fw = cy * gphi.w + el.w
    fu[0, :] = 0.0
    fu[-1, :] = 0.0
    fw[:, 0] = 0.0
    fw[:, -1] = 0.0
    return StaggeredVectorField(g, fu, fw)
