"""Semi-implicit Cahn-Hilliard step with convex splitting and the viscous
delta term.

One step solves the coupled pair

    (phi_new - phi_n)/dt + advect(v, phi_n) - div( b(phi_n) grad(mu_new) ) = 0
    mu_new = psi_plus'(phi_new)/eps + psi_minus'(phi_n)/eps
             - eps * Lap(phi_new)
             + (c/2) f'(phi_n) (F:F - d)
             + delta * (phi_new - phi_n)/dt

mu_new is a function of phi_new alone, so Newton runs on phi_new only, with
the first equation as its residual.  Treating the convex part of the double
well implicitly and the concave part explicitly makes the step
unconditionally well posed and, for v = 0 and frozen coupling, strictly
dissipative in the phase-field energy for any dt.  Advection is explicit
(conservative flux form of phi_n) and every operator row sums to zero, so
the cell sum of phi is conserved to rounding at every accepted step.

Each Newton update is solved matrix-free (Newton-Krylov): right-
preconditioned flexible GMRES (:func:`chve.krylov.gmres`) on the Jacobian
of the residual, preconditioned by the constant-coefficient splitting
operator, which the DCT diagonalizes exactly, so each GMRES iteration costs
one DCT pair.  The mean (k = 0 mode) of each update is set exactly rather
than by the Krylov solve, which keeps the mass identity independent of the
GMRES tolerance.

Within a time step phi_n and phi_prev are fixed, so :meth:`CHSystem.prepare`
builds the mobility operator, the warm start and the explicit concave part
of mu once per step, from b(phi_n) as the driver's constitutive pass of the
accepted state formed it.  Each Picard sweep's :meth:`CHSystem.step` takes that
level with the sweep's advect(v, phi_n) and dw/dphi(phi_n, F_new), which
the driver forms once per sweep, from the f'(phi_n) of that pass, and
shares with transport and with the next sweep's force.  A later sweep
starts from the previous sweep's (phi, mu) and moves mu by the change of
dw/dphi alone, the counterpart of the transport's warm-started CG, so a
sweep whose start already meets the Newton test forms no mu.  The
accepted step's mu_new, viscous term included, is the mu that the state
stores and the next step's first force reads.  The zero-flux Laplacian L
and a varying mobility's L_b are five-diagonal matrices
(:func:`chve.operators.laplacian_matrix`); the step only multiplies them
with vectors.

A Newton update forms its preconditioner symbol from two factors kept
apart from it: eps eig, eig the DCT-II eigenvalues of L, for the run, and
(dt mean(b)) eig for the level, the products the one-line formula forms
first, so the symbol is bitwise that formula's.  Each mean of the update
is ``x.sum() / x.size``, ``np.mean``'s own formula without its argument
handling, and GMRES takes its norms from :func:`chve.krylov.norm`.
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
    """Chemical potential evaluated on given fields (no time stepping):

        psi'(phi)/eps - eps Lap(phi) + dw/dphi,

    with dw_dphi the elastic term of the deformation F at hand
    (:func:`chve.constitutive.elastic_response`).  This is the exact gradient of the discrete
    free energy with respect to the cell values (scaled by the cell area);
    the finite-difference check in the verification module leans on that
    exactness.  The initial state's mu is this one; each step then stores
    the mu of :meth:`CHSystem.step`.
    """
    g = phi.grid
    return ScalarField(g, law.psi_prime(phi.values) / params.eps
                       - params.eps * face_divergence(*face_gradient(phi.values, g), g)
                       + dw_dphi)


@dataclass(frozen=True)
class CHLevel:
    """The old time level of one Cahn-Hilliard step, from
    :meth:`CHSystem.prepare`, flattened: phi_n, the warm start
    2 phi_n - phi_prev, the explicit concave part psi_minus'(phi_n)/eps of
    mu, the mobility operator L_b of b(phi_n), dt, and (dt mean(b)) eig,
    the preconditioner's mobility factor on the DCT-II eigenvalues eig of
    L."""
    phi_n: np.ndarray
    warm: np.ndarray
    mu_minus: np.ndarray
    Lb: sp.dia_matrix
    dt: float
    dtb_eig: np.ndarray


class CHSystem:
    """Newton-Krylov solver of the Cahn-Hilliard step, on phi_new alone, for
    one grid/params pair.

    mu is kept on the split formula of the current iterate, and Newton
    drives r = (phi - phi_n) + dt (advect(v, phi_n) - L_b mu) to zero.
    Each update solves

        (I + dt L_b (eps L - D)) dphi = -r,   D = psi_plus''(phi)/eps + delta/dt,

    by GMRES, and mu then moves by its exact increment.  GMRES is
    preconditioned on the right by the same operator with D replaced by its
    mean and L_b by (mean mobility) L: the constant-coefficient
    convex-splitting operator, which DCT-II diagonalizes exactly on the
    zero-flux grid, applied once per GMRES iteration.

    The mean of dphi is fixed exactly by the k = 0 row (1^T L_b = 0), and
    the Krylov solve runs on the mean-zero complement only, so every
    iterate conserves the cell sum of phi to rounding whatever the GMRES
    tolerance.  What depends on (phi_n, phi_prev, dt) alone is built once
    per time step by :meth:`prepare` and reused by each Picard sweep's
    :meth:`step`, the preconditioner's factor (dt mean(b)) eig included;
    apart from that its DCT eigenvalues eig, eps eig and, for constant
    mobility (b0 == b1), b0 L are built once.  L is the grid's zero-flux
    Laplacian (:func:`chve.operators.laplacian_matrix`), which the caller
    assembles and shares with the transport system; it and a varying
    mobility's L_b are kept as their five diagonals, whose vector product
    is bitwise the CSR one and cheaper, and a step makes only vector
    products with them.
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
        """The parts of a step that no velocity or deformation changes; b is
        the cell array b(phi_n) (:func:`chve.constitutive.mobility_b`).
        phi_prev (the previous accepted field) only seeds the Newton warm
        start, a linear extrapolation through the two accepted states."""
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

        dw_dphi is dw/dphi(phi_n, F) of this sweep's deformation F and adv
        is advect(v, phi_n), both cell arrays.  The Newton iteration starts
        from the level's warm start, with mu formed from its split formula
        there.  Given ``start = (phi', mu', dw')``, the result of an earlier
        sweep on this level and the dw/dphi it was solved with, it starts
        from phi' instead, with mu' + (dw_dphi - dw'): mu is linear in
        dw/dphi, so that is the split mu at phi' to rounding, without the
        sparse product and the psi_plus' pass of forming it again.  The
        viscous delta term always differences phi_new against phi_n.
        newton_iters counts the Newton updates, and is 1 when none is
        needed; gmres_iters is the total number of GMRES iterations, one
        preconditioner application each.  Raises NewtonError if MAX_NEWTON
        iterations do not reach TOL_NEWTON (naming the last GMRES info if
        it is not 0) or the residual turns non-finite.
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
