"""Quasi-static Stokes solve with capillary and elastic forcing.

The momentum balance has no inertia: the velocity is slaved to the current
(phi, mu, F) through

    -nu Lap(v) + grad(q) = mu grad(phi)
                           - (c/2) f'(phi) (F:F - d) grad(phi)
                           + div( c f(phi) F F^T ),
    div(v) = 0,   v = 0 on the boundary.

On the MAC grid the velocity block is A = -nu Delta_h, Delta_h the vector
Laplacian of :mod:`chve.operators` (Dirichlet on boundary-normal faces,
reflected ghosts for the tangential component), and the pressure gradient
is G = face_gradient (G^T = -face_divergence).  Every stencil comes from
there; this module solves A v + G q = f, G^T v = 0 exactly on face arrays,
assembling nothing:

* With no-slip walls the discretely divergence-free fields are exactly the
  curls v = C psi of stream functions on the interior nodes (psi = 0 on the
  boundary, see StaggeredVectorField.from_stream_function), and C^T G = 0.
  So psi solves the SPD system C^T A C psi = C^T f, where C^T f is the node
  curl of the force and C^T A C = nu (Delta_D^2 + P) holds exactly.
  Delta_D is the Dirichlet node Laplacian, diagonal under DST-I.  P is
  diagonal: the reflected-ghost rows (diagonal 3/h^2) add 2/h^4 per wall
  next to a node, so it is nonzero only on the ring of nodes along the walls.
* The ring term is removed by the capacitance-matrix method (Buzbee, Dorr,
  George & Golub 1971; Bjorstad 1983).  With B = Delta_D^2,
  (B + P) psi = r is z = B^-1 r, y = K^-1 z[ring], psi = z - B^-1 y, where
  the dense SPD capacitance K = diag(1/P_ring) + (B^-1)[ring, ring] is
  Cholesky-factored once per (grid, nu).  The ring is four node lines, and
  B^-1 between two lines is a closed-form product of the separable 1-D
  DST-I factors (:func:`_ring_capacitance`): O(n^3) flops for all of K,
  with no einsum over the 2-D basis.
* The pressure solves G q = r, r = f + nu Delta_h v (r lies in the range
  of G), through G^T G = -L, L the zero-flux cell Laplacian, diagonal under
  DCT-II; its constant mode is set to zero, so q has zero mean.

A solve costs one DST-I pair (the forward transform r_hat of the curl and
the inverse transform of B^-1 (r_hat - S y), S the DST-I), O(n^2) thin
products with the 1-D DST-I factors that form z on the ring lines and S y
from them, one capacitance back-solve (the ring has 2(nx-1) + 2(ny-1) - 4
nodes), one DCT-II pair and the residual check.  :func:`chve.operators.dst2d`
and :func:`chve.operators.dct2d` apply each pair as two products with the
1-D factors (the DST-I ones are the ring's) on grids of at most
``operators.DENSE_TRANSFORM_MAX`` cells per axis, and by pocketfft above.
The curl of the force is formed directly on the interior nodes.  The
residual check forms the velocity's derivative pass
(:func:`chve.operators.velocity_derivatives`), and :meth:`StokesSolver.solve`
returns it with (v, q): the driver's solenoidal and CFL admission, the
transport stretch and the viscous dissipation read it, so each velocity is
differentiated once.

A solve's small calls take their direct forms, each bitwise the library
call it replaces: the capacitance back-solve is LAPACK potrs
(``scipy.linalg.lapack.dpotrs``) on the factor ``cho_factor`` returns,
without the batching wrapper of ``cho_solve``; the pressure's mean is
``q.sum() / q.size`` (``np.mean``'s own formula); the residual check's
norms are :func:`chve.krylov.norm`.  :func:`elastic_force` edge-pads the
shear plane by slicing into one array, the values of
``np.pad(mode="edge")``.

No Galilean-invariance check is meaningful here: the no-slip box pins the
velocity frame, so a uniform velocity shift is not an admissible state.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import constitutive as law
from .errors import TOL_LIN, SolverError
from .grid import (GridSpec, ModelParams, PreconditionError, ScalarField,
                   StaggeredVectorField, TensorField)
from .krylov import norm
from .operators import (_corner_average, _dst_factor, dct_diagonal, dst2d,
                        face_average, face_divergence, face_gradient,
                        laplacian_eigenvalues, vector_laplacian,
                        velocity_derivatives)


def _dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the Dirichlet -d^2/dx^2 on the n - 1 interior nodes
    of an axis, on the DST-I basis of :func:`chve.operators._dst_factor`."""
    return 4.0 / (h * h) * np.sin(0.5 * np.pi * np.arange(1, n) / n) ** 2


def _ring_capacitance(Sx: np.ndarray, Sy: np.ndarray, W: np.ndarray,
                      hx: float, hy: float):
    """(ring, K): the flat indices i*(ny-1) + j of the interior nodes next to
    a wall, and the capacitance K = diag(1/P_ring) + (B^-1)[ring, ring].

    Sx, Sy are the DST-I factors (:func:`chve.operators._dst_factor`) and
    W = B^-1 on their basis.  The ring is four node lines: the rows j = 0,
    ny-2 and the columns i = 0, nx-2.  A line's nodes are products of one
    basis row of one axis with the whole basis of the other, so each block
    of (B^-1) between two lines is a product of 1-D factors, O(n^3) flops:

        row j, row j':       (Sx * (W @ (Sy[j] * Sy[j']))) @ Sx
        column i, column i': (Sy * ((Sx[i] * Sx[i']) @ W)) @ Sy
        row j, column i:     ((Sx * Sx[i]) @ (W * Sy[j])) @ Sy

    and a column-row block is the transpose of its row-column block.
    """
    nx, m = Sx.shape[0] + 1, Sy.shape[0]
    P = np.zeros((nx - 1, m))
    P[:, [0, -1]] += 2.0 / hy ** 4  # corner nodes get both terms
    P[[0, -1], :] += 2.0 / hx ** 4

    # (x factor, y factor) of each line; None stands for the whole basis
    factors = ([(None, Sy[j]) for j in (0, m - 1)]
               + [(Sx[i], None) for i in (0, nx - 2)])

    def block(a, b):
        (xa, ya), (xb, yb) = factors[a], factors[b]
        if xa is None and xb is None:
            return (Sx * (W @ (ya * yb))) @ Sx
        if ya is None and yb is None:
            return (Sy * ((xa * xb) @ W)) @ Sy
        return ((Sx * xb) @ (W * ya)) @ Sy  # a is a row, b a column

    blocks = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):  # lines 0, 1 are the rows, 2, 3 the columns
            blocks[a][b] = blocks[b][a].T if b < 2 <= a else block(a, b)
    K = np.block(blocks)
    lines = ([np.arange(nx - 1) * m + j for j in (0, m - 1)]
             + [i * m + np.arange(m) for i in (0, nx - 2)])
    ring, first = np.unique(np.concatenate(lines), return_index=True)
    return ring, K[np.ix_(first, first)] + np.diag(1.0 / P.ravel()[ring])


def _norm(u: np.ndarray, w: np.ndarray) -> float:
    """Euclidean norm of a face field given by its two face arrays."""
    return float(np.hypot(norm(u), norm(w)))


class StokesSolver:
    """Exact fast MAC Stokes solver for one (grid, nu) pair.

    ``__init__`` builds the DST-I biharmonic symbol, the 1-D DST-I factors,
    the Cholesky factor of the ring capacitance (whose blocks are separable
    products of those factors, O(n^3) flops, no einsum) and the DCT-II
    pressure symbol; a solve applies only the two eigenbases, thin products
    with the 1-D factors on the ring lines, that Cholesky factor and the
    stencils of :mod:`chve.operators`, and checks its own momentum
    residual."""

    def __init__(self, grid: GridSpec, nu: float):
        if nu <= 0.0:
            raise PreconditionError("nu must be > 0")
        self.grid = grid
        self.nu = nu
        nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy

        self._Sx, self._Sy = Sx, Sy = _dst_factor(nx), _dst_factor(ny)
        lam_x, lam_y = _dirichlet_eigenvalues(nx, hx), _dirichlet_eigenvalues(ny, hy)
        self._B_inv = W = 1.0 / (lam_x[:, None] + lam_y[None, :]) ** 2  # B^-1, DST-I basis
        self._ring, K = _ring_capacitance(Sx, Sy, W, hx, hy)
        self._rows, self._cols = [0, ny - 2], [0, nx - 2]  # the ring's lines
        try:
            self._cap = sla.cho_factor(K)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"capacitance factorization failed: {exc}") from exc

        eig = laplacian_eigenvalues(grid)
        eig[0, 0] = -np.inf  # the constant pressure mode is set to zero
        self._q_inv = -1.0 / eig

    # -- solve ------------------------------------------------------------

    def _velocity(self, force: StaggeredVectorField) -> StaggeredVectorField:
        """The curl of the stream function that solves (B + P) psi = C^T f / nu.

        With S the 2-D DST-I (its own inverse), W = B^-1 on its basis and
        r_hat = S r, psi = z - B^-1 y is S W (r_hat - S y): z = S W r_hat
        is needed on the ring only, and y = K^-1 z[ring] lives there.  Both
        are thin products with the 1-D factors: a row line j of z is
        Sx (W r_hat) Sy[j], a column line i is (Sx[i] W r_hat) Sy, and S y
        is the sum over the lines of outer products of a transformed line
        with a basis row."""
        g = self.grid
        Sx, Sy, rows, cols = self._Sx, self._Sy, self._rows, self._cols
        u, w = force.u, force.w
        curl = (w[1:, 1:-1] - w[:-1, 1:-1]) / g.hx - (u[1:-1, 1:] - u[1:-1, :-1]) / g.hy
        r_hat = dst2d(curl / self.nu)
        Wr = self._B_inv * r_hat
        z = np.zeros_like(r_hat)
        z[:, rows] = Sx @ (Wr @ Sy[rows].T)
        z[cols, :] = (Sx[cols] @ Wr) @ Sy
        # LAPACK potrs, which sla.cho_solve reaches through its batching
        # wrapper, on cho_factor's Fortran-ordered factor (no copy) and the
        # gathered ring values (a copy, so potrs may overwrite it)
        c, lower = self._cap
        y_ring, info = lapack.dpotrs(c, z.flat[self._ring], lower=lower, overwrite_b=True)
        if info != 0:
            raise SolverError(f"capacitance back-solve failed (potrs info {info})")
        y = np.zeros_like(z)
        y.flat[self._ring] = y_ring
        y_cols = y[cols, :]
        y_cols[:, rows] = 0.0  # a copy: the corners count on the row lines
        y_hat = (Sx @ y[:, rows]) @ Sy[rows] + Sx[:, cols] @ (y_cols @ Sy)
        psi = np.zeros((g.nx + 1, g.ny + 1))
        psi[1:-1, 1:-1] = dst2d(self._B_inv * (r_hat - y_hat))
        if not np.isfinite(psi).all():
            raise SolverError("stream function is not finite")
        return StaggeredVectorField.from_stream_function(g, psi)

    def solve(self, force: StaggeredVectorField):
        """(v, q, dv): v, a stream-function curl (its div v is measured by
        the driver), has zero boundary faces, q zero mean, and dv is the
        derivative pass of v (:func:`chve.operators.velocity_derivatives`)
        that the momentum residual check forms.  Raises SolverError if that
        residual exceeds TOL_LIN relative to the force."""
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
        return dv.v, q, dv


def elastic_force(f: np.ndarray, F: TensorField, params: ModelParams):
    """Conservative face divergence of the cell stress c f F F^T, f = f(phi),
    as (on_xfaces, on_yfaces) with boundary faces 0.

    Diagonal stress components difference natively onto faces; the shear
    component is averaged to nodes first (one-sided at walls: the cell
    plane edge-padded, by slicing) so that the divergence telescopes.
    """
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
    """Right-hand side of the momentum balance sampled on faces.

    The capillary part mu grad(phi) and the coupling part
    -(c/2) f'(phi)(F:F-d) grad(phi) multiply face-averaged cell scalars
    with the face pair grad_phi = face_gradient(phi); dw_dphi is
    (c/2) f'(phi)(F:F-d) (:func:`chve.constitutive.neo_hookean_dphi`).
    The elastic part is the conservative divergence of the cell stress
    c f F F^T, f = f(phi).  The caller computes grad_phi, f and dw_dphi
    once and shares them: grad_phi and f with every force of a step,
    dw_dphi with the chemical potential of the same F.  Boundary faces
    carry 0, because face_average, face_gradient and elastic_force all
    leave them at 0.  The returned field is the one check that the force
    is finite.
    """
    if mu.grid != F.grid:
        raise PreconditionError("force inputs must share one grid")
    g = mu.grid
    cx, cy = face_average(mu.values - dw_dphi, g)
    eu, ew = elastic_force(f, F, params)
    return StaggeredVectorField(g, cx * grad_phi[0] + eu, cy * grad_phi[1] + ew)
