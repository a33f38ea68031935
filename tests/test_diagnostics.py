from dataclasses import fields

import numpy as np
import pytest

from chve import constitutive as law
from chve import diagnostics as diag
from chve.grid import (GridSpec, ModelParams, ScalarField, SimState,
                       StaggeredVectorField, TensorField)
from chve.operators import node_shear_gradients, velocity_derivatives


def make_state(grid, phi, F, v=None, mu=None):
    z = ScalarField.uniform(grid, 0.0)
    return SimState(phi=phi, phi_prev=phi, mu=mu or z, F=F,
                    v=v or StaggeredVectorField.zeros(grid), q=z, t=0.0)


def dissipation(v, mu, phi, F, dphi_dt, params):
    """diag.dissipation of (v, mu, phi, F), with both passes formed here."""
    return diag.dissipation(velocity_derivatives(v), mu, diag.state_fields(phi, F, params),
                            dphi_dt, params)


def test_energy_zero_at_well_identity(grid16, params):
    eb = diag.total_energy(ScalarField.uniform(grid16, 1.0),
                           TensorField.identity(grid16), params)
    assert eb.elastic == 0.0 and eb.interface == 0.0 and eb.bulk == 0.0
    assert eb.total == 0.0


def test_energy_bulk_value(grid16):
    params = ModelParams(eps=1.0)
    eb = diag.total_energy(ScalarField.uniform(grid16, 0.0),
                           TensorField.identity(grid16), params)
    assert eb.bulk == pytest.approx(0.25 * grid16.area)
    assert eb.elastic == 0.0 and eb.interface == 0.0


def test_energy_elastic_value(grid16):
    params = ModelParams(c_elastic=1.0, eps=1.0)
    comps = np.zeros((16, 16, 2, 2))
    comps[:, :, 0, 0] = 2.0
    comps[:, :, 1, 1] = 1.0
    eb = diag.total_energy(ScalarField.uniform(grid16, 1.0),  # f(1) = 1
                           TensorField(grid16, comps), params)
    assert eb.elastic == pytest.approx(0.5 * (4 + 1 - 2) * grid16.area)


def test_energy_total_is_sum_of_parts(grid16, rng, params):
    phi = ScalarField(grid16, rng.uniform(-1, 1, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.3 * rng.standard_normal((16, 16, 2, 2)))
    eb = diag.total_energy(phi, F, params)
    assert eb.total == eb.elastic + eb.interface + eb.bulk
    assert eb.interface >= 0.0 and eb.bulk >= 0.0
    assert np.isfinite(eb.total)


def test_dissipation_zero_on_uniform_state(grid16, params):
    out = dissipation(StaggeredVectorField.zeros(grid16),
                      ScalarField.uniform(grid16, 0.7),
                      ScalarField.uniform(grid16, 0.2),
                      TensorField.identity(grid16),
                      np.zeros((16, 16)), params)
    assert out == 0.0


def test_dissipation_nonnegative_random(grid16, rng, params):
    for _ in range(10):
        psi = rng.standard_normal((17, 17))
        psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
        v = StaggeredVectorField.from_stream_function(grid16, psi)
        out = dissipation(
            v, ScalarField(grid16, rng.standard_normal((16, 16))),
            ScalarField(grid16, rng.uniform(-1, 1, (16, 16))),
            TensorField(grid16, rng.standard_normal((16, 16, 2, 2))),
            rng.standard_normal((16, 16)),
            ModelParams(lam=0.01, delta=0.1))
        assert out >= 0.0


def test_lambda_dissipation_matches_analytic_profile():
    # F11 = 1 + A cos(pi x) (zero-flux compatible), f = 1:
    #   lam * int |d/dx (f F)|^2 = lam * A^2 pi^2 / 2 on the unit square
    errs = []
    for n in (32, 64):
        grid = GridSpec(n, n)
        lam, A = 0.3, 0.7
        params = ModelParams(lam=lam, b0=1.0, b1=1.0)
        X, _ = grid.cell_centers()
        comps = np.zeros((n, n, 2, 2))
        comps[:, :, 0, 0] = 1.0 + A * np.cos(np.pi * X)
        comps[:, :, 1, 1] = 1.0
        out = dissipation(StaggeredVectorField.zeros(grid),
                          ScalarField.uniform(grid, 0.0),
                          ScalarField.uniform(grid, 1.0),  # f(1) = 1
                          TensorField(grid, comps), None, params)
        exact = lam * A ** 2 * np.pi ** 2 / 2
        errs.append(abs(out - exact) / exact)
    assert errs[1] <= 2e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)  # O(h^2)


def test_total_mass(grid16):
    assert diag.total_mass(ScalarField.uniform(grid16, 0.3)) == pytest.approx(0.3)
    a = ScalarField.uniform(grid16, 0.1)
    b = ScalarField.uniform(grid16, 0.25)
    ab = ScalarField(grid16, a.values + b.values)
    assert diag.total_mass(ab) == pytest.approx(
        diag.total_mass(a) + diag.total_mass(b))


def test_budget_residual_zero_on_stationary_state(grid16, params):
    phi = ScalarField.uniform(grid16, 1.0)
    F = TensorField.identity(grid16)
    s = make_state(grid16, phi, F)
    e = diag.total_energy(phi, F, params).total
    assert diag.energy_budget(s, s, velocity_derivatives(s.v), diag.state_fields(phi, F, params),
                              0.1, e, e, params) == (0.0, 0.0)


def test_csv_header_is_the_row_fields_in_order():
    names = [f.name for f in fields(diag.DiagnosticsRow)]
    assert diag.DiagnosticsRow.CSV_HEADER == ",".join(names)
    # the columns that `chve energy-report` and the benchmark read by name
    assert names == ["step", "t", "dt", "E_total", "E_elastic", "E_interface",
                     "E_bulk", "dissipation", "mass", "div_v_max", "picard_iters",
                     "newton_iters", "budget_residual"]


def test_csv_line_full_precision(grid16):
    row = diag.DiagnosticsRow(step=3, t=1 / 3, dt=1e-3, E_total=np.pi,
                              E_elastic=0.0, E_interface=0.1, E_bulk=np.e,
                              dissipation=1e-17, mass=0.3, div_v_max=1e-15,
                              picard_iters=2, newton_iters=5,
                              budget_residual=-2e-4)
    line = row.csv_line()
    parts = line.split(",")
    assert parts[0] == "3"
    assert float(parts[1]) == 1 / 3  # round-trips at 17 significant digits
    assert float(parts[3]) == np.pi
    assert float(parts[6]) == np.e
    assert parts[10] == "2" and parts[11] == "5"
    assert len(parts) == 13


# ---------------------------------------------------------------------------
# the stacked reductions against term-by-term references


def _reference_terms(v, mu, phi, F, dphi_dt, params):
    """The four dissipation forms, each summed face by face and component by
    component, times the cell area."""
    g, a = phi.grid, phi.grid.cell_area
    f, b = law.stiffness_f(phi.values, params), law.mobility_b(phi.values, params)
    dudx = (v.u[1:] - v.u[:-1]) / g.hx
    dwdy = (v.w[:, 1:] - v.w[:, :-1]) / g.hy
    dudy, dwdx = node_shear_gradients(v)
    wall_u = np.ones(dudy.shape)
    wall_u[:, [0, -1]] = 0.5   # node lines on the walls y = 0, ly
    wall_w = np.ones(dwdx.shape)
    wall_w[[0, -1], :] = 0.5   # x = 0, lx
    visc = (np.sum(dudx ** 2) + np.sum(dwdy ** 2)
            + np.sum(wall_u * dudy ** 2) + np.sum(wall_w * dwdx ** 2))
    lam = 0.0
    for i in range(2):
        for j in range(2):
            G = f * F.comps[:, :, i, j]
            lam += np.sum(((G[1:] - G[:-1]) / g.hx) ** 2)
            lam += np.sum(((G[:, 1:] - G[:, :-1]) / g.hy) ** 2)
    m = mu.values
    mob = (np.sum(0.5 * (b[1:] + b[:-1]) * ((m[1:] - m[:-1]) / g.hx) ** 2)
           + np.sum(0.5 * (b[:, 1:] + b[:, :-1]) * ((m[:, 1:] - m[:, :-1]) / g.hy) ** 2))
    visc_delta = 0.0 if dphi_dt is None else np.sum(dphi_dt ** 2)
    return {"nu": params.nu * visc * a, "lam": params.lam * lam * a,
            "b": mob * a, "delta": params.delta * visc_delta * a}


@pytest.mark.parametrize("term", ["nu", "lam", "b", "delta", "all"])
def test_stacked_dissipation_matches_term_by_term_reference(rng, term):
    """nx != ny, lx != ly, a mobility ramp (b0 != b1) and delta > 0; each
    form alone (the others switched off by their fields or coefficients),
    then all four, within 1e-13 relative."""
    grid = GridSpec(12, 9, 1.0, 1.3)
    params = ModelParams(nu=1.3, lam=0.04 if term in ("lam", "all") else 0.0,
                         delta=0.2, eps=0.05, b0=0.1, b1=0.7, f_lo=-0.5, f_hi=0.6)
    phi = ScalarField(grid, rng.uniform(-1.0, 1.0, (12, 9)))
    F = TensorField(grid, np.eye(2) + 0.3 * rng.standard_normal((12, 9, 2, 2)))
    psi = rng.standard_normal((13, 10))
    psi[[0, -1], :] = psi[:, [0, -1]] = 0.0
    v = (StaggeredVectorField.from_stream_function(grid, psi) if term in ("nu", "all")
         else StaggeredVectorField.zeros(grid))
    mu = ScalarField(grid, rng.standard_normal((12, 9)) if term in ("b", "all")
                     else np.full((12, 9), 0.4))
    dphi_dt = rng.standard_normal((12, 9)) if term in ("delta", "all") else None
    ref = _reference_terms(v, mu, phi, F, dphi_dt, params)
    expected = sum(ref.values())
    assert expected > 0.0 and (term == "all" or ref[term] == expected)
    out = dissipation(v, mu, phi, F, dphi_dt, params)
    assert abs(out - expected) <= 1e-13 * expected


def test_state_energy_matches_term_by_term_reference(rng):
    grid = GridSpec(12, 9, 1.0, 1.3)
    params = ModelParams(eps=0.05, c_elastic=0.7, b0=0.1, b1=0.7, delta=0.2,
                         f_lo=-0.5, f_hi=0.6)
    phi = ScalarField(grid, rng.uniform(-1.2, 1.2, (12, 9)))
    F = TensorField(grid, np.eye(2) + 0.3 * rng.standard_normal((12, 9, 2, 2)))
    a, p = grid.cell_area, phi.values
    f = law.stiffness_f(p, params)
    elastic = sum(0.5 * params.c_elastic * f[i, j] * (np.sum(F.comps[i, j] ** 2) - 2.0)
                  for i in range(12) for j in range(9)) * a
    interface = 0.5 * params.eps * (np.sum(((p[1:] - p[:-1]) / grid.hx) ** 2)
                                    + np.sum(((p[:, 1:] - p[:, :-1]) / grid.hy) ** 2)) * a
    bulk = np.sum(0.25 * (p * p - 1.0) ** 2) / params.eps * a
    eb = diag.state_energy(diag.state_fields(phi, F, params), params)
    for got, ref in ((eb.elastic, elastic), (eb.interface, interface), (eb.bulk, bulk)):
        assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("b1", [0.1, 0.7], ids=["constant-b", "ramp-b"])
def test_state_pass_profiles_are_bitwise_the_pointwise_laws(b1):
    """f, b and f' of the one-smoothstep pass against stiffness_f,
    mobility_b and stiffness_f_prime on a window [0, 0.5]: phi inside,
    outside, exactly on both edges, and a signed zero on the lower edge."""
    grid = GridSpec(4, 5)
    params = ModelParams(b0=0.1, b1=b1, f_min=0.05, f_lo=0.0, f_hi=0.5)
    vals = np.array([-3.0, -0.0, 0.0, 1e-300, 0.1, 0.25, 1 / 3, 0.49999999999999994,
                     0.5, 0.5000000000000001, 0.7, 2.0, -1e-17, 0.3, 0.45, 0.05,
                     0.125, 0.375, 1.0, -1.0])
    phi = ScalarField(grid, vals.reshape(4, 5))
    F = TensorField.identity(grid)
    fields = diag.state_fields(phi, F, params)
    for got, law_fn in ((fields.f, law.stiffness_f), (fields.b, law.mobility_b),
                        (fields.f_prime, law.stiffness_f_prime)):
        assert got.tobytes() == law_fn(phi.values, params).tobytes(), law_fn.__name__
    assert np.count_nonzero(fields.f_prime) == 10  # the points inside the open window
