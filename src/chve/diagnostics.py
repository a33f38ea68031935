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

Both read fields that the step has already formed, never the raw state:
:func:`state_energy` and :func:`dissipation` take the state's constitutive
pass (:class:`StateFields`: f(phi), b(phi), F:F - d, grad phi), and
:func:`dissipation` the derivative pass of its velocity
(:func:`chve.operators.velocity_derivatives`), the one the Stokes solve
formed for the accepted sweep.  :func:`total_energy` is the form for a
caller that holds only (phi, F): it forms their pass itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import constitutive as law
from .grid import ModelParams, ScalarField, SimState, TensorField
from .operators import VelocityDerivatives, face_average, face_gradient


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


@dataclass(frozen=True)
class StateFields:
    """The constitutive pass of one state (phi, F), from :func:`state_fields`:
    f(phi), b(phi), the stretch invariant F:F - d and the face gradient of
    phi.  The driver forms one per accepted state; its energy, its
    dissipation and the next step's transport and Cahn-Hilliard levels,
    first force and first dw/dphi all read it."""
    phi: ScalarField
    F: TensorField
    f: np.ndarray
    b: np.ndarray
    stretch: np.ndarray
    grad_phi: tuple[np.ndarray, np.ndarray]


def state_fields(phi: ScalarField, F: TensorField, stretch: np.ndarray,
                 params: ModelParams) -> StateFields:
    """The constitutive pass of (phi, F); stretch is F:F - d of F
    (:func:`chve.constitutive.stretch_invariant`), which a step has already
    formed for its last dw/dphi."""
    v = phi.values
    return StateFields(phi, F, law.stiffness_f(v, params), law.mobility_b(v, params),
                       stretch, face_gradient(v, phi.grid))


def _face_sum_sq(faces) -> float:
    """Face sum of the squares of face data (on_xfaces, on_yfaces)."""
    gu, gw = faces
    return float(np.sum(gu ** 2)) + float(np.sum(gw ** 2))


def state_energy(fields: StateFields, params: ModelParams) -> EnergyBreakdown:
    """The free energy E of the state whose constitutive pass is ``fields``."""
    a = fields.phi.grid.cell_area
    elastic = float(np.sum(law.neo_hookean_density(fields.f, fields.stretch, params))) * a
    interface = 0.5 * params.eps * _face_sum_sq(fields.grad_phi) * a
    bulk = float(np.sum(law.psi(fields.phi.values))) / params.eps * a
    return EnergyBreakdown(elastic=elastic, interface=interface, bulk=bulk)


def total_energy(phi: ScalarField, F: TensorField, params: ModelParams) -> EnergyBreakdown:
    """E of (phi, F) for a caller that holds no constitutive pass of them."""
    return state_energy(state_fields(phi, F, law.stretch_invariant(F.comps), params),
                        params)


def dissipation(dv: VelocityDerivatives, mu: ScalarField, fields: StateFields,
                dphi_dt: np.ndarray | None, params: ModelParams) -> float:
    """Sum of the four quadratic dissipation forms, each built from the same
    discrete operators the corresponding step uses; dv is the derivative
    pass of the velocity and fields the constitutive pass of (phi, F)."""
    g = dv.v.grid
    a = g.cell_area

    # nu |grad v|^2 with the no-slip ghost convention of the Stokes block;
    # wall entries carry weight 1/2 so the sum reproduces -<Lap_h v, v>,
    # Lap_h = vector_laplacian (the quadratic form of the velocity block),
    # to rounding
    du, dw = dv.dudy, dv.dwdx
    visc = (float(np.sum(dv.dudx ** 2))
            + float(np.sum(dv.dwdy ** 2))
            + float(np.sum(du[:, 1:-1] ** 2))
            + 0.5 * (float(np.sum(du[:, 0] ** 2)) + float(np.sum(du[:, -1] ** 2)))
            + float(np.sum(dw[1:-1, :] ** 2))
            + 0.5 * (float(np.sum(dw[0, :] ** 2)) + float(np.sum(dw[-1, :] ** 2))))
    out = params.nu * visc * a

    F = fields.F
    for i in range(F.d):
        for j in range(F.d):
            out += params.lam * _face_sum_sq(face_gradient(fields.f * F.comps[:, :, i, j], g)) * a

    bx, by = face_average(fields.b, g)
    gu, gw = face_gradient(mu.values, g)
    out += (float(np.sum(bx * gu ** 2)) + float(np.sum(by * gw ** 2))) * a

    if dphi_dt is not None and params.delta > 0.0:
        out += params.delta * float(np.sum(dphi_dt ** 2)) * a
    return out


def total_mass(phi: ScalarField) -> float:
    return float(np.sum(phi.values)) * phi.grid.cell_area


def energy_budget(state_n: SimState, state_np1: SimState, dv: VelocityDerivatives,
                  fields: StateFields, dt: float, e_old: float, e_new: float,
                  params: ModelParams) -> tuple[float, float]:
    """(D_new, (E_new - E_old)/dt + D_new) with end-of-step fields and
    dphi/dt = (phi_new - phi_old)/dt in D; dv and fields are the derivative
    pass of state_np1.v and the constitutive pass of state_np1, and e_old,
    e_new the two energies."""
    dphi_dt = (state_np1.phi.values - state_n.phi.values) / dt
    d_new = dissipation(dv, state_np1.mu, fields, dphi_dt, params)
    return d_new, (e_new - e_old) / dt + d_new
