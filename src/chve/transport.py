"""One time step of the regularized deformation-gradient transport

    dF/dt + (v . grad) F - (grad v) F - lam * Lap( f(phi) F ) = 0,

with zero-flux boundary on G = f(phi) F.  Advection and the stretching
(grad v) F are explicit, the lam-diffusion implicit in G; with phi at the
old level the d^2 components decouple:

    (I/dt - lam * L M_f) F_new = F_old/dt - advect + stretch,

L the zero-flux Laplacian, M_f multiplication by f(phi).  In the unknown
G = M_f F_new the operator becomes D/dt - lam L, D = 1/f(phi): L is
symmetric negative semidefinite and D/dt positive diagonal, so the
operator is symmetric positive definite for dt > 0, lam >= 0, f >= f_min
> 0, and one Jacobi-preconditioned CG (:func:`chve.krylov.pcg`) solves all
components at once; then F_new = G / f.  At lam = 0 the start G = f dt b
is the solution, and the step is explicit.
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
    """The old time level of one transport step: F_n, dt, F_n / dt, F_n's
    components, and at the CG block's (n, d^2) shape f(phi_n), f dt, D/dt
    and the CG operator's diagonal D/dt - lam diag(L)."""
    F_n: TensorField
    dt: float
    F_dt: np.ndarray
    F_entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    f: np.ndarray
    f_dt: np.ndarray
    D_dt: np.ndarray
    diag: np.ndarray


class TransportSystem:
    """Per-(grid, params) transport stepper; it keeps lam L (L the zero-flux
    Laplacian) as CSR, since every product is with a whole (n, d^2) block,
    and the diagonal of lam L.  The CG iteration count grows with
    lam dt / h^2; a solve that runs out of iterations fails the residual
    test."""

    def __init__(self, grid: GridSpec, params: ModelParams, L: sp.dia_matrix):
        self.grid = grid
        self.params = params
        self._lamL = params.lam * L.tocsr()
        self._diag_lamL = self._lamL.diagonal().reshape(-1, 1)

    def prepare(self, F_n: TensorField, f_n: np.ndarray, dt: float) -> TransportLevel:
        """The parts of a step that no velocity changes; f_n is f(phi_n)."""
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
        """Advance F one step with the velocity whose derivative pass is dv;
        adv is advect(v, F_n).  Returns (F_new, (G, b), cg_iters), (G, b)
        the CG solution and right-hand side.

        Warm start: the CG starts from f dt b, or, given ``start = (G', b')``
        from an earlier velocity on this level, from G' + f dt (b - b'),
        since only the right-hand side changes.

        Raises SolverError if the residual in F, b - (F_new/dt - lam L f
        F_new), exceeds TOL_LIN |b| or is not finite.  A CG that ended at
        its first test met CG_RTOL |b| on the explicit b - A G, 100 times
        tighter, so only a CG that iterated measures that residual.
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
