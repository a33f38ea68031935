"""Semi-implicit Cahn-Hilliard step with convex splitting and the viscous
delta term.

One step solves the coupled pair

    (phi_new - phi_n)/dt + advect(v, phi_n) - div( b(phi_n) grad(mu_new) ) = 0
    mu_new = psi_plus'(phi_new)/eps + psi_minus'(phi_n)/eps
             - eps * Lap(phi_new)
             + (c/2) f'(phi_n) (F:F - d)
             + delta * (phi_new - phi_n)/dt

mu_new is a function of phi_new alone, so Newton runs on phi_new only, with
the first equation as its residual.  For v = 0 and frozen coupling the
convex splitting makes the step well posed and dissipative in the
phase-field energy for any dt.  Every operator row sums to zero, so the
cell sum of phi is conserved to rounding.  Each Newton update is solved
matrix-free by right-preconditioned flexible GMRES
(:func:`chve.krylov.gmres`), preconditioned by the constant-coefficient
splitting operator, which the DCT-II diagonalizes; the mean of each
update is set exactly, whatever the GMRES tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import constitutive as law
from . import krylov
from .errors import NewtonError
from .grid import ModelParams, PreconditionError, ScalarField
from .operators import (dct_diagonal, face_divergence, face_gradient,
                        laplacian_eigenvalues, laplacian_matrix)

TOL_NEWTON = 1e-11
MAX_NEWTON = 50
# Krylov solve of each Newton update: relative tolerance (inexact Newton;
# the Newton residual test decides convergence), restart length and number
# of restart cycles.
GMRES_RTOL = 1e-6
GMRES_RESTART = 30
GMRES_MAXITER = 5


def static_chemical_potential(phi: ScalarField, dw_dphi: np.ndarray,
                              params: ModelParams) -> ScalarField:
    """Chemical potential of given fields, psi'(phi)/eps - eps Lap(phi) +
    dw/dphi, with dw_dphi the elastic term of the deformation at hand
    (:func:`chve.constitutive.elastic_response`): the exact gradient of the
    discrete free energy with respect to the cell values, scaled by the
    cell area."""
    g = phi.grid
    return ScalarField(g, law.psi_prime(phi.values) / params.eps
                       - params.eps * face_divergence(*face_gradient(phi.values, g), g)
                       + dw_dphi)


@dataclass(frozen=True)
class CHLevel:
    """The old time level of one step, flattened: phi_n, the warm start
    2 phi_n - phi_prev, psi_minus'(phi_n)/eps, the mobility operator L_b of
    b(phi_n), dt, and (dt mean(b)) eig, eig the DCT-II eigenvalues of L."""
    phi_n: np.ndarray
    warm: np.ndarray
    mu_minus: np.ndarray
    Lb: sp.dia_matrix
    dt: float
    dtb_eig: np.ndarray


class CHSystem:
    """Newton-Krylov solver of the Cahn-Hilliard step on phi_new alone.

    mu is kept on the split formula of the current iterate, and Newton
    drives r = (phi - phi_n) + dt (advect(v, phi_n) - L_b mu) to zero.
    Each update solves

        (I + dt L_b (eps L - D)) dphi = -r,   D = psi_plus''(phi)/eps + delta/dt,

    by GMRES on the mean-zero complement, right-preconditioned by the same
    operator with D replaced by its mean and L_b by mean(b) L, and mu then
    moves by its exact increment.  The mean of dphi is fixed exactly by the
    k = 0 row (1^T L_b = 0).  L is the grid's zero-flux Laplacian
    (:func:`chve.operators.laplacian_matrix`).
    """

    def __init__(self, grid, params: ModelParams, L: sp.dia_matrix):
        self.grid = grid
        self.params = params
        self.L = L
        eig = laplacian_eigenvalues(grid)  # L on the DCT-II basis
        self._eig, self._eps_eig = eig, params.eps * eig
        self._Lb = params.b0 * self.L if params.b0 == params.b1 else None

    def prepare(self, phi_n: ScalarField, phi_prev: ScalarField, b: np.ndarray,
                dt: float) -> CHLevel:
        """The level of a step from phi_n; b is the cell array b(phi_n)
        (:func:`chve.constitutive.mobility_b`).  phi_prev, the previous
        accepted field, only seeds the warm start."""
        if dt <= 0.0:
            raise PreconditionError("dt must be > 0")
        p = self.params
        Lb = self._Lb if self._Lb is not None else laplacian_matrix(self.grid, b)
        b_mean = float(b.sum() / b.size)  # bitwise np.mean(b)
        return CHLevel(phi_n=phi_n.values.ravel(),
                       warm=(2.0 * phi_n.values - phi_prev.values).ravel(),
                       mu_minus=law.psi_minus_prime(phi_n.values).ravel() / p.eps,
                       Lb=Lb, dt=dt, dtb_eig=(dt * b_mean) * self._eig)

    def step(self, level: CHLevel, dw_dphi: np.ndarray, adv: np.ndarray,
             start: tuple[ScalarField, ScalarField, np.ndarray] | None = None):
        """Advance (phi, mu) one step; returns (phi_new, mu_new,
        newton_iters, gmres_iters).

        dw_dphi is dw/dphi(phi_n, F) and adv is advect(v, phi_n), both cell
        arrays.  Newton starts from the level's warm start, or, given
        ``start = (phi', mu', dw')`` of an earlier solve on this level, from
        phi' with mu' + (dw_dphi - dw'), the split mu at phi' to rounding
        (mu is linear in dw/dphi).  newton_iters counts the updates (1 when
        none is needed), gmres_iters the GMRES iterations of all of them.
        Raises NewtonError if MAX_NEWTON iterations do not reach TOL_NEWTON
        (naming the last GMRES info if it is not 0) or the residual turns
        non-finite.
        """
        p = self.params
        dt, pn, Lb = level.dt, level.phi_n, level.Lb
        adv = adv.ravel()
        coupling = dw_dphi.ravel()
        shape = (self.grid.nx, self.grid.ny)

        # the split chemical potential at phi_new = phi, formed once here and
        # then moved by its exact increment, so it holds at every iterate;
        # pp = psi_plus'(phi), which a warm start forms only if it updates
        if start is None:
            phi = level.warm
            pp = law.psi_plus_prime(phi)
            mu = (pp / p.eps + level.mu_minus
                  - p.eps * (self.L @ phi) + coupling + (p.delta / dt) * (phi - pn))
        else:
            phi_s, mu_s, coupling_s = start
            phi = phi_s.values.ravel()
            pp = None
            mu = mu_s.values.ravel() + (coupling - coupling_s.ravel())

        gmres_iters = 0

        def precondition(x):
            nonlocal gmres_iters
            gmres_iters += 1
            return dct_diagonal(x.reshape(shape), inv).ravel()

        # After an update r is the GMRES residual of the Newton system plus
        # dt L_b times the second-order remainder of psi_plus', so a loose
        # relative Krylov tolerance gives an inexact Newton method whose
        # outer test still enforces TOL_NEWTON.
        info = 0  # the last GMRES solve's; named if Newton stalls
        for iters in range(MAX_NEWTON + 1):
            # the mass-balance residual, scaled by dt so it is O(field) in size
            r = (phi - pn) + dt * (adv - Lb @ mu)
            res = float(np.max(np.abs(r)))
            if not np.isfinite(res):
                raise NewtonError("phase-field Newton residual is not finite",
                                  residual=res, iterations=iters)
            if res <= (TOL_NEWTON if iters else 1e-2 * TOL_NEWTON):
                break
            if iters == MAX_NEWTON:
                why = f", GMRES did not converge (info {info})" if info else ""
                raise NewtonError(
                    f"phase-field Newton stalled at residual {res:.3e} "
                    f"after {MAX_NEWTON} iterations{why}",
                    residual=res, iterations=MAX_NEWTON)
            if pp is None:
                pp = law.psi_plus_prime(phi)
            D = law.psi_plus_second(phi) / p.eps + p.delta / dt
            # exact inverse of I + dt b_mean L (eps L - mean(D)) on
            # mean-zero vectors, from the factors (dt b_mean) eig and
            # eps eig kept on the level and the system; the k = 0 mode is
            # mapped to zero.  Each mean is sum / size, bitwise np.mean.
            inv = 1.0 / (1.0 + level.dtb_eig * (self._eps_eig - D.sum() / D.size))
            inv[0, 0] = 0.0
            # k = 0 row: the mean of dphi is the mean of -r, exactly;
            # the operator maps the constant m to m - dt m L_b D, as L 1 = 0
            m = -float(r.sum() / r.size)
            rhs0 = -r - (m - dt * m * (Lb @ D))
            rhs0 -= rhs0.sum() / rhs0.size
            z, info = krylov.gmres(
                lambda x: x + dt * (Lb @ (p.eps * (self.L @ x) - D * x)), rhs0,
                M=precondition, rtol=GMRES_RTOL, atol=0.1 * TOL_NEWTON,
                restart=GMRES_RESTART, maxiter=GMRES_MAXITER)
            dphi = m + (z - z.sum() / z.size)
            phi = phi + dphi
            pp, pp_old = law.psi_plus_prime(phi), pp
            mu += ((pp - pp_old) / p.eps - p.eps * (self.L @ dphi)
                   + (p.delta / dt) * dphi)

        return (ScalarField(self.grid, phi.reshape(shape)),
                ScalarField(self.grid, mu.reshape(shape)), max(iters, 1), gmres_iters)
