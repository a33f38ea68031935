"""Free energy, dissipation, mass and the discrete energy-budget residual.

The total free energy mirrors the integrand the a-priori bound controls:

    E = int (c/2) f(phi)(F:F - d)  +  (eps/2)|grad phi|^2  +  psi(phi)/eps,

with midpoint (cell) quadrature for the bulk/elastic parts and face values
for the gradient part.  The dissipation functional

    D = nu int |grad v|^2 + lam int |grad(f(phi) F)|^2
        + int b(phi)|grad mu|^2 + delta int |dphi/dt|^2

reuses the exact quadratic forms of the discrete step operators, so
(E_new - E_old)/dt + D_new measures the splitting defect of the scheme and
nothing else.  The defect is O(dt + h^2) and is reported, not enforced; no
step is rejected on its value or sign.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import constitutive as law
from .grid import (GridSpec, ModelParams, ScalarField, SimState,
                   StaggeredVectorField, TensorField)
from .operators import face_average, face_gradient, node_shear_gradients


@dataclass(frozen=True)
class EnergyBreakdown:
    elastic: float
    interface: float
    bulk: float

    @property
    def total(self) -> float:
        return self.elastic + self.interface + self.bulk


@dataclass(frozen=True)
class DiagnosticsRow:
    """One row of ``diagnostics.csv``: the fields are its columns, in order,
    and ``CSV_HEADER`` (set below the class) joins their names."""
    step: int
    t: float
    dt: float
    E_total: float
    E_elastic: float
    E_interface: float
    E_bulk: float
    dissipation: float
    mass: float
    div_v_max: float
    picard_iters: int
    newton_iters: int
    budget_residual: float

    def csv_line(self) -> str:
        """The row in field order: ints as written, floats lossless."""
        return ",".join(str(getattr(self, f.name)) if f.type == "int"
                        else f"{getattr(self, f.name):.17g}" for f in fields(self))


DiagnosticsRow.CSV_HEADER = ",".join(f.name for f in fields(DiagnosticsRow))


def _grad_energy(q: np.ndarray, grid: GridSpec) -> float:
    """Face sum of |face_gradient q|^2 for cell data q."""
    gu, gw = face_gradient(q, grid)
    return float(np.sum(gu ** 2)) + float(np.sum(gw ** 2))


def total_energy(phi: ScalarField, F: TensorField, params: ModelParams) -> EnergyBreakdown:
    g = phi.grid
    a = g.cell_area
    elastic = float(np.sum(law.neo_hookean_w(phi.values, F.comps, params))) * a
    interface = 0.5 * params.eps * _grad_energy(phi.values, g) * a
    bulk = float(np.sum(law.psi(phi.values))) / params.eps * a
    return EnergyBreakdown(elastic=elastic, interface=interface, bulk=bulk)


def dissipation(v: StaggeredVectorField, mu: ScalarField, phi: ScalarField,
                F: TensorField, dphi_dt: np.ndarray | None,
                params: ModelParams) -> float:
    """Sum of the four quadratic dissipation forms, each built from the same
    discrete operators the corresponding step uses."""
    g = v.grid
    a = g.cell_area

    # nu |grad v|^2 with the no-slip ghost convention of the Stokes block
    du, dw = node_shear_gradients(v)
    # wall entries carry weight 1/2 so the sum reproduces -<Lap_h v, v>,
    # Lap_h = vector_laplacian (the quadratic form of the velocity block),
    # to rounding
    visc = (float(np.sum(((v.u[1:, :] - v.u[:-1, :]) / g.hx) ** 2))
            + float(np.sum(((v.w[:, 1:] - v.w[:, :-1]) / g.hy) ** 2))
            + float(np.sum(du[:, 1:-1] ** 2))
            + 0.5 * (float(np.sum(du[:, 0] ** 2)) + float(np.sum(du[:, -1] ** 2)))
            + float(np.sum(dw[1:-1, :] ** 2))
            + 0.5 * (float(np.sum(dw[0, :] ** 2)) + float(np.sum(dw[-1, :] ** 2))))
    out = params.nu * visc * a

    fvals = law.stiffness_f(phi.values, params)
    for i in range(F.d):
        for j in range(F.d):
            out += params.lam * _grad_energy(fvals * F.comps[:, :, i, j], g) * a

    bx, by = face_average(law.mobility_b(phi.values, params), g)
    gu, gw = face_gradient(mu.values, g)
    out += (float(np.sum(bx * gu ** 2)) + float(np.sum(by * gw ** 2))) * a

    if dphi_dt is not None and params.delta > 0.0:
        out += params.delta * float(np.sum(dphi_dt ** 2)) * a
    return out


def total_mass(phi: ScalarField) -> float:
    return float(np.sum(phi.values)) * phi.grid.cell_area


def energy_budget(state_n: SimState, state_np1: SimState, dt: float,
                  e_old: float, e_new: float, params: ModelParams) -> tuple[float, float]:
    """(D_new, (E_new - E_old)/dt + D_new) with end-of-step fields and
    dphi/dt = (phi_new - phi_old)/dt in D; e_old, e_new are the two energies."""
    dphi_dt = (state_np1.phi.values - state_n.phi.values) / dt
    d_new = dissipation(state_np1.v, state_np1.mu, state_np1.phi, state_np1.F,
                        dphi_dt, params)
    return d_new, (e_new - e_old) / dt + d_new
