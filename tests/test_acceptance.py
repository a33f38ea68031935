"""Acceptance suite.

Each test implements one numbered acceptance criterion with its tolerance
pinned in the assertion, and prints a PASS line (visible with
``pytest -s``).  The long spinodal runs are shared through session
fixtures; every other criterion runs standalone.  The file runs in under
two minutes on a 2-vCPU machine (98 s measured).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from chve import constitutive as law
from chve import verification as ver
from chve.cahn_hilliard import CHSystem
from chve.config import parse_config
from chve.diagnostics import state_fields, total_energy
from chve.grid import (GridSpec, ModelParams, ScalarField,
                       StaggeredVectorField, TensorField)
from chve.operators import advect_scalar, laplacian_matrix

from test_driver import simulate

SPINODAL = """
[grid]
nx = 64
ny = 64

[params]
nu = 1.0
lambda = 1e-3
eps = 0.05
c_elastic = 0.25
b0 = 0.1
b1 = 0.1

[time]
t_end = 0.1
dt0 = 1e-5
dt_min = 1e-10
dt_max = 2e-4
adaptive = true
reject_on_energy = true
energy_increase_tol = 1e-8

[coupling]
picard_max = 2
picard_tol = 1e-8

[initial]
phi = random-uniform
phi_amplitude = 0.05
seed = 1

[output]
directory = {out}
"""

PICARD8 = SPINODAL.replace("picard_max = 2", "picard_max = 8").replace(
    "picard_tol = 1e-8", "picard_tol = 1e-10")


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS  {detail}")


@pytest.fixture(scope="session")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def spinodal_run(outdir):
    cfg = parse_config(SPINODAL.format(out=outdir / "run_a"))
    summary, rows, state = simulate(cfg)
    csv = (outdir / "run_a" / "diagnostics.csv").read_bytes()
    return cfg, summary, rows, state, csv


@pytest.fixture(scope="session")
def picard8_run(outdir):
    cfg = parse_config(PICARD8.format(out=outdir / "run_p8"))
    summary, rows, state = simulate(cfg)
    return cfg, summary, rows, state


def test_criterion_01_constitutive_calculus():
    t0 = time.time()
    rep = ver.fd_check_elastic_stress(ModelParams(), n_samples=50)
    assert rep["neo_hookean_d2_max_rel"] <= 1e-6
    assert rep["neo_hookean_d3_max_rel"] <= 1e-6
    assert rep["mooney_rivlin_max_rel"] <= 1e-6
    det = ver.fd_check_det_derivative()
    assert det["d2_max_rel"] <= 1e-12
    assert all(1.9 <= o <= 2.1 for o in det["d3_orders"])
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, "constitutive calculus",
            f"max rel {rep['mooney_rivlin_max_rel']:.2e}, {elapsed:.1f}s")


def test_criterion_02_operator_fidelity():
    t0 = time.time()
    rep = ver.dense_oracle_compare(GridSpec(8, 8))
    assert rep["max_dev_grad"] <= 1e-12
    assert rep["max_dev_div"] <= 1e-12
    assert rep["max_dev_lap"] <= 1e-12
    assert rep["max_dev_lap_coeff"] <= 1e-12
    assert rep["max_adjointness_defect"] <= 1e-13
    assert rep["laplacian_null_dim"] == 1
    st = ver.dense_stokes_compare(GridSpec(8, 8))
    assert st["max_dev_velocity"] <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(2, "operator fidelity",
            f"dense dev {rep['max_dev_lap']:.1e}, adjoint {rep['max_adjointness_defect']:.1e}")


def test_criterion_03_stokes_mms():
    t0 = time.time()
    rep = ver.stokes_mms(levels=(32, 64, 128))
    assert all(o >= 1.9 for o in rep["order_v"]), rep

    g = GridSpec(64, 64)
    solver = ver.StokesSolver(g, 1.0)
    v, q, _ = solver.solve(StaggeredVectorField.zeros(g))
    assert v.max_abs() <= 1e-12

    from chve.operators import face_gradient
    X, Y = g.cell_centers()
    pstar = np.cos(np.pi * X) * np.cos(np.pi * Y)
    v, q, _ = solver.solve(StaggeredVectorField(g, *face_gradient(pstar, g)))
    assert v.max_abs() <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, "stokes MMS",
            f"orders {['%.2f' % o for o in rep['order_v']]}, {elapsed:.0f}s")


def test_criterion_04_mass_conservation(spinodal_run):
    cfg, summary, rows, state, _ = spinodal_run
    assert summary.termination == "t_end"
    assert summary.steps >= 500
    assert summary.wall_time < 300.0
    area = cfg.grid.area
    drift = abs(rows[-1].mass - rows[0].mass)
    assert drift <= 1e-10 * area
    _report(4, "mass conservation",
            f"{summary.steps} steps, drift {drift:.2e}")


def test_criterion_05_incompressibility(spinodal_run):
    _, _, rows, _, _ = spinodal_run
    worst = max(r.div_v_max for r in rows)
    assert worst <= 1e-9
    _report(5, "incompressibility", f"max div {worst:.2e}")


def test_criterion_06_energy_dissipation(picard8_run):
    cfg, summary, rows, _ = picard8_run
    assert summary.termination == "t_end"
    assert summary.steps >= 500
    E = np.array([r.E_total for r in rows])
    e0 = abs(E[0])
    violations = int(np.sum(np.diff(E) > 1e-8 * e0))
    assert violations == 0

    # decoupled sub-suite: v = 0, stiffness window moved so f' vanishes on
    # the whole phase range; convex splitting must dissipate for any dt
    rng = np.random.default_rng(11)
    grid = GridSpec(32, 32)
    params = ModelParams(eps=0.25, b0=1.0, b1=1.0, f_lo=2.0, f_hi=3.0)
    ch_violations = 0
    for dt in (1e-3, 1e-2, 1e-1):
        phi = ScalarField(grid, rng.uniform(-0.8, 0.8, (32, 32)))
        F = TensorField.identity(grid)
        v0 = StaggeredVectorField.zeros(grid)
        system = CHSystem(grid, params, laplacian_matrix(grid))
        e = total_energy(phi, F, params).total
        for _ in range(25):
            phi, *_ = system.step(system.prepare(phi, phi,
                                                 law.mobility_b(phi.values, params), dt),
                                  state_fields(phi, F, params).dw_dphi,
                                  advect_scalar(v0, phi.values))
            e_new = total_energy(phi, F, params).total
            if e_new > e + 1e-10 * abs(e):
                ch_violations += 1
            e = e_new
    assert ch_violations == 0
    _report(6, "energy dissipation",
            f"max dE {np.diff(E).max():.2e} <= {1e-8 * e0:.1e}; CH violations 0")


def test_criterion_07_budget_consistency(outdir):
    """Mean |(dE/dt) + D| halves with dt on the 64^2 grid, measured from a
    smoothed state so every active mode is resolved at both step sizes."""
    pre = parse_config(SPINODAL.format(out=outdir / "c7_pre")
                       .replace("t_end = 0.1", "t_end = 0.06")
                       .replace("reject_on_energy = true",
                                "reject_on_energy = false"))
    simulate(pre)
    restarts = sorted((outdir / "c7_pre").glob("restart_*.chv"))
    restart = restarts[-1]

    means = {}
    for dt in ("2e-4", "1e-4"):
        text = (SPINODAL.format(out=outdir / f"c7_{dt}")
                .replace("dt0 = 1e-5", f"dt0 = {dt}")
                .replace("dt_max = 2e-4", f"dt_max = {dt}")
                .replace("adaptive = true", "adaptive = false")
                .replace("reject_on_energy = true", "reject_on_energy = false")
                .replace("phi = random-uniform",
                         f"restart_file = {restart}\nphi = random-uniform"))
        cfg = parse_config(text)
        _, rows, _ = simulate(cfg)
        means[dt] = float(np.mean([abs(r.budget_residual) for r in rows]))
    ratio = means["2e-4"] / means["1e-4"]
    assert 1.7 <= ratio <= 2.3, means
    _report(7, "energy budget first-order trend", f"ratio {ratio:.3f}")


def test_criterion_08_stationary_well_state(outdir):
    cfg = parse_config(f"""
[grid]
nx = 64
ny = 64

[params]
nu = 1.0
lambda = 1e-3
eps = 0.05
c_elastic = 0.25
b0 = 0.1
b1 = 0.1

[time]
t_end = 1.0
dt0 = 1e-2
dt_max = 1e-2
adaptive = false
max_steps = 100

[initial]
phi = uniform
phi_value = 1.0

[output]
directory = {outdir / 'well'}
""")
    summary, rows, state = simulate(cfg)
    assert summary.steps == 100
    g = cfg.grid
    changes = [
        np.max(np.abs(state.phi.values - 1.0)),
        np.max(np.abs(state.mu.values)),
        np.max(np.abs(state.q.values)),
        np.max(np.abs(state.F.comps - TensorField.identity(g).comps)),
        state.v.max_abs(),
    ]
    assert max(changes) <= 1e-12
    _report(8, "stationary well state", f"max change {max(changes):.2e}")


def test_criterion_09_determinant_transport():
    t0 = time.time()
    rep = ver.det_transport_trend(
        levels=((32, 4e-3), (64, 2e-3), (128, 1e-3)), t_end=0.25)
    for r in rep["ratios"]:
        assert 1.6 <= r <= 2.4, rep
    assert rep["dev_mid_lam"] > 1.5 * rep["dev_mid_lam0"], rep
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(9, "determinant transport",
            f"ratios {['%.2f' % r for r in rep['ratios']]}, "
            f"lam inflation x{rep['dev_mid_lam'] / rep['dev_mid_lam0']:.1f}")


def test_criterion_10_variational_consistency():
    rng = np.random.default_rng(5)
    grid = GridSpec(12, 12)
    params = ModelParams(eps=0.6, c_elastic=1.2)
    phi = ScalarField(grid, 0.3 * rng.standard_normal((12, 12)))
    F = TensorField(grid, np.eye(2) + 0.3 * rng.standard_normal((12, 12, 2, 2)))
    rep = ver.fd_check_chemical_potential(phi, F, params)
    assert 1.9 <= rep["observed_order"] <= 2.1, rep
    _report(10, "variational consistency of mu",
            f"order {rep['observed_order']:.3f}")


def test_criterion_11_korteweg_equivalence():
    g = GridSpec(64, 64)
    params = ModelParams(eps=0.25, c_elastic=0.5)
    _, Y = g.cell_centers()
    phi = ScalarField(g, np.tanh((Y - 0.5 * g.ly) / 0.15))
    rep = ver.korteweg_identity_check(phi, TensorField.identity(g), params)
    assert rep["v_diff"] <= 1e-8, rep
    _report(11, "capillary force equivalence", f"v diff {rep['v_diff']:.2e}")


def test_supplementary_korteweg_forms_converge_on_a_2d_state():
    """Criterion 11's 1-D profile makes both capillary forces exact
    discrete gradients, so its solves return v = 0; on a 2-D drop state
    both forms drive a flow, and their velocities agree to O(h^2)."""
    rep = ver.korteweg_convergence()
    assert all(3.5 <= r <= 4.5 for r in rep["ratios"]), rep
    assert min(rep["v_mu_max"]) >= 0.05, rep
    _report(0, "capillary force convergence (supplementary)",
            f"v diff ratios {', '.join(f'{r:.2f}' for r in rep['ratios'])}")


def test_criterion_12_determinism(spinodal_run, outdir):
    cfg_a, _, _, _, csv_a = spinodal_run
    cfg_b = replace(cfg_a, output=replace(cfg_a.output,
                                          directory=str(outdir / "run_b")))
    simulate(cfg_b)
    csv_b = (outdir / "run_b" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b
    _report(12, "determinism", f"{len(csv_a)} identical bytes")


def test_supplementary_lambda_sweep(outdir):
    """Regularization-strength sweep: the conservation and dissipation
    contracts hold across lambda = 1e-4, 1e-3, 1e-2."""
    for lam in ("1e-4", "1e-3", "1e-2"):
        text = (SPINODAL.format(out=outdir / f"lam_{lam}")
                .replace("nx = 64", "nx = 32").replace("ny = 64", "ny = 32")
                .replace("lambda = 1e-3", f"lambda = {lam}")
                .replace("t_end = 0.1", "t_end = 0.02"))
        cfg = parse_config(text)
        summary, rows, _ = simulate(cfg)
        assert summary.termination == "t_end"
        drift = abs(rows[-1].mass - rows[0].mass)
        assert drift <= 1e-10 * cfg.grid.area
        E = np.array([r.E_total for r in rows])
        assert np.all(np.diff(E) <= 1e-8 * abs(E[0]))
    _report(0, "lambda sweep (supplementary)", "lam in {1e-4, 1e-3, 1e-2}")
