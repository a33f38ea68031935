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

:func:`state_energy` and :func:`dissipation` read a state's constitutive
pass (:class:`StateFields`), and :func:`dissipation` also the derivative
pass of its velocity (:func:`chve.operators.velocity_derivatives`);
:func:`total_energy` forms the pass of (phi, F) itself.  Each reduces by dot products over whole
arrays: the quadratic forms are sums of squares, and the elastic energy
is one dot product (:func:`chve.constitutive.elastic_energy`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import constitutive as law
from .grid import ModelParams, ScalarField, SimState, TensorField
from .operators import VelocityDerivatives, face_gradient


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
    f(phi), b(phi), f'(phi), the stretch F:F - d, dw/dphi and the face
    gradient of phi."""
    phi: ScalarField
    F: TensorField
    f: np.ndarray
    b: np.ndarray
    f_prime: np.ndarray
    stretch: np.ndarray
    dw_dphi: np.ndarray
    grad_phi: tuple[np.ndarray, np.ndarray]


def state_fields(phi: ScalarField, F: TensorField, params: ModelParams,
                 stretch: np.ndarray | None = None) -> StateFields:
    """The constitutive pass of (phi, F): f, b and f' from one window
    position and one smoothstep (:func:`chve.constitutive.phase_profiles`),
    and the stretch and dw/dphi (:func:`chve.constitutive.elastic_response`),
    which takes the stretch of F when the caller passes it."""
    v = phi.values
    f, b, f_prime = law.phase_profiles(v, params)
    stretch, dw_dphi = law.elastic_response(f_prime, F.comps, params, stretch)
    return StateFields(phi, F, f, b, f_prime, stretch, dw_dphi,
                       face_gradient(v, phi.grid))


def _sum_sq(*arrays) -> float:
    """The sum of the squares of the entries of the arrays, one dot product
    each."""
    return sum(float(np.dot(x.ravel(), x.ravel())) for x in arrays)


def state_energy(fields: StateFields, params: ModelParams) -> EnergyBreakdown:
    """The free energy E of the state whose constitutive pass is ``fields``."""
    a = fields.phi.grid.cell_area
    elastic = law.elastic_energy(fields.f, fields.stretch, params) * a
    interface = 0.5 * params.eps * _sum_sq(*fields.grad_phi) * a
    bulk = float(np.sum(law.psi(fields.phi.values))) / params.eps * a
    return EnergyBreakdown(elastic=elastic, interface=interface, bulk=bulk)


def total_energy(phi: ScalarField, F: TensorField, params: ModelParams) -> EnergyBreakdown:
    """E of (phi, F) for a caller that holds no constitutive pass of them."""
    return state_energy(state_fields(phi, F, params), params)


def dissipation(dv: VelocityDerivatives, mu: ScalarField, fields: StateFields,
                dphi_dt: np.ndarray | None, params: ModelParams) -> float:
    """Sum of the four quadratic dissipation forms, each built from the same
    discrete operators the corresponding step uses; dv is the derivative
    pass of the velocity and fields the constitutive pass of (phi, F).
    Each form is reduced by dot products over whole arrays: the face
    differences of the stacked G = f F for all d^2 components at once, and
    the x- and y-face differences of mu weighted by the half-sums of b,
    the arithmetic face means of :func:`chve.operators.face_average`."""
    g = dv.v.grid
    hx2, hy2 = g.hx * g.hx, g.hy * g.hy

    # nu |grad v|^2 with the no-slip ghost convention of the Stokes block;
    # wall entries carry weight 1/2 so the sum reproduces -<Lap_h v, v>,
    # Lap_h = vector_laplacian (the quadratic form of the velocity block),
    # to rounding: whole node arrays, less half of their wall lines
    du, dw = dv.dudy, dv.dwdx
    out = params.nu * (_sum_sq(dv.dudx, dv.dwdy, du, dw)
                       - 0.5 * _sum_sq(du[:, 0], du[:, -1], dw[0], dw[-1]))

    # lam |grad(f F)|^2 over interior faces, boundary faces carrying 0; row
    # i of G holds the k = d^2 components of each cell (i, j) in turn, so
    # the y-neighbour of an entry sits k entries on, along the same row
    G = (fields.f[:, :, None, None] * fields.F.comps).reshape(g.nx, -1)
    k = G.shape[1] // g.ny
    out += params.lam * (_sum_sq(G[1:] - G[:-1]) / hx2
                         + _sum_sq(G[:, k:] - G[:, :-k]) / hy2)

    # b |grad mu|^2 with b on interior faces
    b, m = fields.b, mu.values
    dx, dy = m[1:] - m[:-1], m[:, 1:] - m[:, :-1]
    out += 0.5 * (float(np.dot((b[1:] + b[:-1]).ravel(), (dx * dx).ravel())) / hx2
                  + float(np.dot((b[:, 1:] + b[:, :-1]).ravel(), (dy * dy).ravel())) / hy2)

    if dphi_dt is not None and params.delta > 0.0:
        out += params.delta * _sum_sq(dphi_dt)
    return out * g.cell_area


def total_mass(phi: ScalarField) -> float:
    return float(np.sum(phi.values)) * phi.grid.cell_area


def energy_budget(state_n: SimState, state_np1: SimState, dv: VelocityDerivatives,
                  fields: StateFields, dt: float, e_old: float, e_new: float,
                  params: ModelParams) -> tuple[float, float]:
    """(D_new, (E_new - E_old)/dt + D_new) with end-of-step fields and
    dphi/dt = (phi_new - phi_old)/dt in D, formed only when delta > 0; dv
    and fields are the derivative pass of state_np1.v and the constitutive
    pass of state_np1, and e_old, e_new the two energies."""
    dphi_dt = ((state_np1.phi.values - state_n.phi.values) / dt
               if params.delta > 0.0 else None)
    d_new = dissipation(dv, state_np1.mu, fields, dphi_dt, params)
    return d_new, (e_new - e_old) / dt + d_new
