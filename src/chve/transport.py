"""One time step of the regularized deformation-gradient transport

    dF/dt + (v . grad) F - (grad v) F - lam * Lap( f(phi) F ) = 0,

with zero-flux boundary on the product G = f(phi) F.  The splitting is
semi-implicit: advection and the stretching term (grad v) F are explicit
(they carry no stiffness at quasi-static velocities), the lam-diffusion
acts implicitly on G, which is the combination the energy estimate
controls.  With phi frozen at the old time level the four tensor
components decouple:

    (I/dt - lam * L M_f) F_new = F_old/dt - advect + stretch,

where L is the zero-flux Laplacian and M_f multiplies by f(phi) cellwise.
In the unknown G = M_f F_new the operator D/dt - lam L, D = 1/f(phi), is
symmetric positive definite for dt > 0, lam >= 0, f >= f_min > 0.  All d^2
components share it, so they are stacked into one block-diagonal system on
an (n, d^2) block, where each operator product is one sparse matmul by the
lam L that the system keeps, and solved by one matrix-free CG
(:func:`chve.krylov.pcg`) on that block, preconditioned by the operator's
own diagonal; then F_new = G / f.  At lam = 0 that diagonal is the
operator and the start G = f dt rhs is the solution, so CG returns at its
first residual test: the step is explicit.

phi_n and F_n are fixed within a time step, so :meth:`TransportSystem.prepare`
builds f dt, D/dt, that diagonal, F_n/dt and F_n's four components once
per step, from f(phi_n) as the driver's constitutive pass of the accepted
state formed it.  f, f dt, D/dt and the diagonal are held at the block's
full (n, d^2) shape, so no CG, start-vector or F-recovery operation
broadcasts over the component axis.  Each Picard sweep's
:meth:`TransportSystem.step` takes that level, the derivative pass of the
sweep's velocity (:func:`chve.operators.velocity_derivatives`, the one the
Stokes solve formed) and advect(v, F_n), which the driver forms once per
sweep together with advect(v, phi_n); it writes the stretch (grad v) F_n
out entrywise from the four velocity-gradient entries of that pass.  Only
the right-hand side b changes between the sweeps of a step, so a sweep
starts its CG from the previous sweep's solution G' moved by f dt times
the change of b: at the velocities of a converging Picard iteration that
start already meets the CG tolerance.  A CG that ends at its first test
has formed b - A G' explicitly and found it below CG_RTOL |b|, a bound
100 times tighter than TOL_LIN, so the step skips the residual
measurement in F there and such a sweep applies lam L once; after a CG
that iterated, the step measures the residual in F at one more product
with lam L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import krylov
from .errors import TOL_LIN, SolverError
from .grid import GridSpec, ModelParams, PreconditionError, TensorField
from .operators import VelocityDerivatives, velocity_gradient_entries

# One CG on the stacked tensor components; the residual test against TOL_LIN decides.
CG_RTOL = 1e-12
CG_MAXITER = 500


@dataclass(frozen=True)
class TransportLevel:
    """The old time level of one transport step, from
    :meth:`TransportSystem.prepare`: F_n, dt, F_n / dt, F_n's four
    components as contiguous (nx, ny) arrays, and at the CG block's
    (n, d^2) shape the stiffness f(phi_n), f dt, D/dt (D = 1/f) and the
    diagonal D/dt - lam diag(L) of the CG operator."""
    F_n: TensorField
    dt: float
    F_dt: np.ndarray
    F_entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    f: np.ndarray
    f_dt: np.ndarray
    D_dt: np.ndarray
    diag: np.ndarray


class TransportSystem:
    """Per-(grid, params) transport stepper; it keeps lam L, L the grid's
    zero-flux Laplacian (:func:`chve.operators.laplacian_matrix`, shared
    with the Cahn-Hilliard system), and its diagonal.  L comes as its five
    diagonals; the system keeps one CSR copy of lam L, because every
    product here is with the whole (n, d^2) block, where the diagonal
    form measured no faster at 64^2 and 5 % slower at 256^2, and where
    scipy releases inside the supported range may convert it to CSR on
    every product.  The copy's entries and their order per row are those
    of the diagonal form, so each product is bitwise the same.

    The CG preconditioner divides by the diagonal of D/dt - lam L.  Where
    lam dt / h^2 is small the operator is diagonally dominant and CG takes
    few iterations; their number grows with lam dt / h^2, and a solve that
    runs out of them fails the residual test, which rejects the step.
    """

    def __init__(self, grid: GridSpec, params: ModelParams, L: sp.dia_matrix):
        self.grid = grid
        self.params = params
        self._lamL = params.lam * L.tocsr()
        self._diag_lamL = self._lamL.diagonal().reshape(-1, 1)

    def prepare(self, F_n: TensorField, f_n: np.ndarray, dt: float) -> TransportLevel:
        """The parts of a step that no velocity changes; f_n is the cell
        array f(phi_n) of the stiffness."""
        if dt <= 0.0:
            raise PreconditionError("dt must be > 0")
        g = self.grid
        f = np.repeat(f_n.reshape(g.nx * g.ny, 1), F_n.d * F_n.d, axis=1)
        f_dt = f * dt
        D_dt = 1.0 / f_dt
        c = F_n.comps
        entries = tuple(np.ascontiguousarray(c[..., i, j]) for i in (0, 1) for j in (0, 1))
        return TransportLevel(F_n, dt, c / dt, entries, f, f_dt, D_dt,
                              D_dt - self._diag_lamL)

    def step(self, level: TransportLevel, dv: VelocityDerivatives, adv: np.ndarray,
             start: tuple[np.ndarray, np.ndarray] | None = None):
        """Advance the deformation gradient one time step; returns
        (F_new, (G, b), cg_iters): (G, b) the solution and right-hand side
        of the CG, which a later Picard sweep of the same level passes back
        as ``start``, and cg_iters its number of iterations, one
        preconditioner application each.

        dv is the derivative pass of the velocity v and adv is
        advect(v, F_n), shaped like F_n.comps.  Solves, for every
        tensor component at once,

            (F_new - F_n)/dt + advect(v, F_n) - (grad v) F_n
                - lam * Lap( f(phi_n) F_new ) = 0

        with zero-flux boundary imposed on f(phi_n) F_new.  The CG starts
        from f dt b, or, given ``start = (G', b')`` from an earlier velocity
        on this level, from G' + f dt (b - b'): the operator is the same,
        so only the change of the right-hand side is left to solve.  Raises
        SolverError if the residual in F, b - (F_new/dt - lam L f F_new),
        exceeds TOL_LIN relative to the right-hand side or is not finite;
        the message carries the CG info when CG did not converge.  That
        residual costs one more product with lam L and is measured only
        after a CG that iterated: a CG that ended at its first test has
        already met CG_RTOL on the explicit b - A G, 100 times tighter than
        TOL_LIN, so that solve passes without it.
        """
        g = self.grid
        F_n, dt = level.F_n, level.dt
        n, k = g.nx * g.ny, F_n.d * F_n.d
        # rhs = F_n/dt - adv + (grad v) F_n, the stretch written out entrywise
        gxx, gxy, gyx, gyy = velocity_gradient_entries(dv)
        a, b, c, d = level.F_entries
        rhs = level.F_dt - adv
        rhs[..., 0, 0] += gxx * a + gxy * c
        rhs[..., 0, 1] += gxx * b + gxy * d
        rhs[..., 1, 0] += gyx * a + gyy * c
        rhs[..., 1, 1] += gyx * b + gyy * d
        rhs = rhs.reshape(n, k)
        f, D_dt, diag, lamL = level.f, level.D_dt, level.diag, self._lamL

        if start is None:
            x0 = level.f_dt * rhs
        else:
            G_prev, b_prev = start
            x0 = G_prev + level.f_dt * (rhs - b_prev)
        cg_iters = 0

        def precondition(r):
            nonlocal cg_iters
            cg_iters += 1
            return r / diag

        G, info, res = krylov.pcg(lambda X: D_dt * X - lamL @ X, rhs, x0=x0,
                                  M=precondition, rtol=CG_RTOL, atol=0.0,
                                  maxiter=CG_MAXITER)

        x = G / f
        if res is None:  # CG iterated; otherwise res < CG_RTOL |b| already
            res = krylov.norm(rhs - (x / dt - lamL @ (f * x)))
        bound = TOL_LIN * krylov.norm(rhs)
        if not res <= bound:
            why = f", CG did not converge (info {info})" if info else ""
            raise SolverError(f"transport residual {res:.3e} > {bound:.3e}{why}")
        return TensorField(g, x.reshape(F_n.comps.shape)), (G, rhs), cg_iters
