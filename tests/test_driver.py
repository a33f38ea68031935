import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from chve.config import StepControl, TimeConfig, parse_config
from chve.diagnostics import (DiagnosticsRow, dissipation, energy_budget, state_fields,
                              total_energy)
from chve.driver import (Simulation, StateWork, StepRejected, old_level_faces,
                         sweep_advection)
from chve.grid import (GridSpec, ScalarField, SimState, StaggeredVectorField,
                       TensorField)
from chve.operators import (advect_scalar, advect_tensor, solenoidal_residual,
                            velocity_derivatives)
from chve.vtk_io import read_restart, write_restart, write_vtk


def spinodal_config(tmp_path, name="out", **kw):
    text = f"""
[grid]
nx = {kw.get('n', 32)}
ny = {kw.get('n', 32)}

[params]
nu = 1.0
lambda = 1e-3
eps = 0.05
c_elastic = 0.25
b0 = 0.1
b1 = 0.1
delta = {kw.get('delta', 0.0)}

[time]
t_end = {kw.get('t_end', 0.004)}
dt0 = {kw.get('dt0', 2e-4)}
dt_min = 1e-10
dt_max = {kw.get('dt_max', 2e-4)}
adaptive = {kw.get('adaptive', 'false')}
reject_on_energy = {kw.get('reject_on_energy', 'true')}
max_steps = {kw.get('max_steps', 1000000)}

[coupling]
picard_max = {kw.get('picard_max', 2)}
picard_tol = {kw.get('picard_tol', 1e-9)}

[initial]
phi = random-uniform
phi_amplitude = 0.05
seed = 1

[output]
directory = {tmp_path / name}
snapshot_every = {kw.get('snapshot_every', 0)}
"""
    return parse_config(text)


def csv_rows(directory) -> list[DiagnosticsRow]:
    """The rows of the diagnostics CSV in directory.  Every float is written
    at 17 significant digits, so each reads back as the value written."""
    lines = (Path(directory) / "diagnostics.csv").read_text().splitlines()[1:]
    columns = dataclasses.fields(DiagnosticsRow)
    return [DiagnosticsRow(*(int(x) if f.type == "int" else float(x)
                             for f, x in zip(columns, line.split(","))))
            for line in lines]


def simulate(cfg):
    """(summary, the CSV rows of the steps this run took, final state)."""
    summary = Simulation(cfg).run()
    first = summary.final_state.step_index - summary.steps
    rows = [r for r in csv_rows(cfg.output.directory) if r.step > first]
    return summary, rows, summary.final_state


# ---------------------------------------------------------------------------
# StepControl.after


def test_adapt_growth_after_streak():
    rules = TimeConfig(dt0=1e-3, dt_min=1e-6, dt_max=1e-2, grow_factor=1.2,
                       grow_after=3)
    control = StepControl(1e-3)
    for _ in range(2):
        control = control.after(True, rules)
        assert control.dt == 1e-3
    control = control.after(True, rules)
    assert control.dt == pytest.approx(1.2e-3)
    assert control.streak == 0


def test_adapt_halves_on_rejection_and_clamps():
    rules = TimeConfig(dt0=1e-3, dt_min=1e-6, dt_max=1.1e-3, grow_after=1)
    control = StepControl(1e-3, 5).after(False, rules)
    assert control.dt == 5e-4 and control.streak == 0
    control = StepControl(1e-3, 0).after(True, rules)
    assert control.dt == 1.1e-3  # clamped at dt_max


def test_adapt_underflow_returns_none():
    rules = TimeConfig(dt0=1e-3, dt_min=1e-3, dt_max=1e-2)
    assert StepControl(1e-3).after(False, rules) is None
    # a NaN dt must not halve forever
    assert StepControl(np.nan).after(False, rules) is None


# ---------------------------------------------------------------------------
# run behaviors


def test_stationary_well_state_is_fixed_point(tmp_path):
    cfg = parse_config(f"""
[grid]
nx = 16
ny = 16

[params]
eps = 1.0
c_elastic = 0.5

[time]
t_end = 1.0
dt0 = 1e-2
dt_max = 5e-2
max_steps = 20

[initial]
phi = uniform
phi_value = 1.0

[output]
directory = {tmp_path / 'well'}
""")
    summary, rows, state = simulate(cfg)
    assert summary.steps == 20
    assert np.max(np.abs(state.phi.values - 1.0)) <= 1e-12
    assert np.max(np.abs(state.F.comps - TensorField.identity(cfg.grid).comps)) <= 1e-12
    assert state.v.max_abs() <= 1e-12
    assert np.max(np.abs(state.mu.values)) <= 1e-12
    assert np.max(np.abs(state.q.values)) <= 1e-12
    # every row reads exactly 0.0 here; the bound leaves room for Krylov roundoff
    assert all(abs(r.budget_residual) <= 1e-12 for r in rows)


def test_zero_t_end_writes_initial_snapshot_only(tmp_path):
    cfg = spinodal_config(tmp_path, t_end=0.0)
    summary = Simulation(cfg).run()
    assert summary.steps == 0
    assert summary.termination == "t_end"
    out = tmp_path / "out"
    assert (out / "snap_00000000.vtk").exists()
    assert (out / "diagnostics.csv").read_text().count("\n") == 1  # header only


def test_deterministic_diagnostics(tmp_path):
    cfg_a = spinodal_config(tmp_path, name="a", adaptive="true", dt_max="4e-4")
    cfg_b = spinodal_config(tmp_path, name="b", adaptive="true", dt_max="4e-4")
    _, rows_a, _ = simulate(cfg_a)
    _, rows_b, _ = simulate(cfg_b)
    assert len(rows_a) == len(rows_b) > 0
    for ra, rb in zip(rows_a, rows_b):
        assert ra.csv_line() == rb.csv_line()
    csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b


def test_restart_reproduces_uninterrupted_run(tmp_path):
    from dataclasses import replace
    # delta > 0: the stored mu carries its delta term across the restart
    # while dt grows
    for delta in (0.0, 0.05):
        tmp = tmp_path / f"delta{delta}"
        kw = dict(adaptive="true", dt_max="4e-4", t_end=1.0, delta=delta)
        _, rows_full, state_full = simulate(
            spinodal_config(tmp, name="full", max_steps=12, **kw))
        assert len(rows_full) == 12
        assert len({r.dt for r in rows_full}) > 1

        simulate(spinodal_config(tmp, name="half", max_steps=6, **kw))
        restart = tmp / "half" / "restart_00000006.chv"
        assert restart.exists()

        cfg_resume = spinodal_config(tmp, name="resume", max_steps=6, **kw)
        cfg_resume = replace(cfg_resume,
                             initial=replace(cfg_resume.initial,
                                             restart_file=str(restart)))
        _, rows_resume, state_resume = simulate(cfg_resume)
        assert len(rows_resume) == 6
        for ra, rb in zip(rows_full[6:], rows_resume):
            assert ra.csv_line() == rb.csv_line()
        assert np.array_equal(state_full.phi.values, state_resume.phi.values)
        assert np.array_equal(state_full.F.comps, state_resume.F.comps)


@pytest.mark.parametrize("where", ["coupled_step", "energy_check"])
def test_resume_after_a_rejection_reproduces_uninterrupted_run(tmp_path, monkeypatch,
                                                               where):
    # one injected rejection halves dt before step 4; the restart written
    # after step 4 must carry the halved dt and the reset streak, so that
    # the resumed run grows dt at the same step as the uninterrupted one.
    # The rejection is injected before coupled_step, or comes from its
    # energy check, when the candidate's derived fields already exist and
    # must be discarded.
    from dataclasses import replace
    from chve import driver
    kw = dict(adaptive="true", dt_max="4e-4", t_end=1.0, snapshot_every=1)
    sim = Simulation(spinodal_config(tmp_path, name="full", max_steps=12, **kw))
    real_step, real_energy = sim.coupled_step, driver.state_energy
    injected, pending = [], []

    def rejected_once(work, dt, energy_bound):
        if work.state.step_index == 3 and not injected:
            injected.append(dt)
            if where == "coupled_step":
                raise StepRejected("injected")
            pending.append(1)
        return real_step(work, dt, energy_bound)

    def energy_rejects_once(*args):
        eb = real_energy(*args)
        if pending:
            pending.clear()
            return replace(eb, bulk=np.inf)
        return eb

    sim.coupled_step = rejected_once
    monkeypatch.setattr(driver, "state_energy", energy_rejects_once)
    summary = sim.run()
    rows_full = csv_rows(tmp_path / "full")
    assert summary.steps == 12 and summary.rejected_steps == 1
    assert rows_full[3].dt == injected[0] / 2
    assert len({r.dt for r in rows_full}) >= 3
    restart = tmp_path / "full" / "restart_00000004.chv"
    assert read_restart(restart)[1] == StepControl(injected[0] / 2, 1)

    cfg = spinodal_config(tmp_path, name="resume", max_steps=8, **kw)
    simulate(replace(cfg, initial=replace(cfg.initial, restart_file=str(restart))))
    full = (tmp_path / "full" / "diagnostics.csv").read_bytes().splitlines()
    resumed = (tmp_path / "resume" / "diagnostics.csv").read_bytes().splitlines()
    assert resumed[1:] == full[5:] and len(resumed) == 9


def test_resume_into_own_directory_rewrites_csv_rows(tmp_path):
    kw = dict(adaptive="true", dt_max="4e-4", t_end=1.0, snapshot_every=6)
    simulate(spinodal_config(tmp_path, name="full", max_steps=12, **kw))
    expected = (tmp_path / "full" / "diagnostics.csv").read_bytes()

    simulate(spinodal_config(tmp_path, name="run", max_steps=12, **kw))
    cfg = spinodal_config(tmp_path, name="run", max_steps=6, **kw)
    from dataclasses import replace
    restart = tmp_path / "run" / "restart_00000006.chv"
    cfg = replace(cfg, initial=replace(cfg.initial, restart_file=str(restart)))
    simulate(cfg)
    assert (tmp_path / "run" / "diagnostics.csv").read_bytes() == expected


_DIES_AT_STEP_12 = """
import os, sys
from chve.config import parse_config
from chve.driver import Simulation

class DiesAtStep12(Simulation):
    def coupled_step(self, work, dt, energy_bound):
        if work.state.step_index == 12:  # step 12 is accepted: die at once
            os._exit(3)
        return super().coupled_step(work, dt, energy_bound)

with open(sys.argv[1], encoding="utf-8") as fh:
    DiesAtStep12(parse_config(fh.read())).run()
"""


def test_resume_killed_before_its_first_checkpoint_keeps_the_csv(tmp_path):
    # a resume into the run's own directory that dies before it writes a
    # checkpoint leaves the CSV rows before the restart on disk, so a second
    # resume from the same restart still rebuilds the uninterrupted CSV
    import subprocess
    import sys
    from dataclasses import replace
    import chve
    from chve.config import dump_config
    kw = dict(n=16, t_end=1.0, snapshot_every=5)
    simulate(spinodal_config(tmp_path, name="run", max_steps=20, **kw))
    csv = tmp_path / "run" / "diagnostics.csv"
    expected = csv.read_bytes()
    assert len(expected.splitlines()) == 21

    cfg = spinodal_config(tmp_path, name="run", max_steps=10, **kw)
    restart = tmp_path / "run" / "restart_00000010.chv"
    cfg = replace(cfg, initial=replace(cfg.initial, restart_file=str(restart)))
    ini = tmp_path / "resume.ini"
    ini.write_text(dump_config(cfg), encoding="utf-8")
    src = Path(chve.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _DIES_AT_STEP_12, str(ini)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert csv.read_bytes().splitlines() == expected.splitlines()[:11]
    assert not csv.with_name(csv.name + ".tmp").exists()

    simulate(cfg)
    assert csv.read_bytes() == expected


def test_coupled_step_needs_no_scipy_krylov(tmp_path, monkeypatch):
    def no_scipy_krylov(*args, **kwargs):
        raise AssertionError("scipy Krylov solver called")

    monkeypatch.setattr(spla, "gmres", no_scipy_krylov)
    monkeypatch.setattr(spla, "cg", no_scipy_krylov)
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    new, _ = sim.coupled_step(work, 1e-4, math.inf)
    assert new.state.t == pytest.approx(1e-4)


def test_first_force_reads_the_stored_mu(tmp_path, monkeypatch):
    # mu_n as the last step stored it holds delta (phi_n - phi_prev) / dt_n,
    # over the dt that produced phi_n; the first force of each step must
    # read it as it is, also on the step after dt grows.  That force is the
    # state's own, the last one formed before the first attempt at the
    # step: by initial_state for step 1, else by the step that made the
    # state, after its energy test
    from chve import driver
    forces = []
    real_force = driver.assemble_force

    def spy_force(f, grad_phi, mu, *rest):
        forces.append(mu)
        return real_force(f, grad_phi, mu, *rest)

    steps = []
    real_step = Simulation.coupled_step
    before = None  # len(forces) at the first attempt at the step

    def spy_step(self, work, dt, energy_bound):
        nonlocal before
        before = len(forces) if before is None else before
        out = real_step(self, work, dt, energy_bound)
        steps.append((work.state, dt, forces[before - 1]))
        before = None
        return out

    monkeypatch.setattr(driver, "assemble_force", spy_force)
    monkeypatch.setattr(Simulation, "coupled_step", spy_step)
    simulate(spinodal_config(tmp_path, delta=0.05, adaptive="true", dt_max="4e-4"))
    grown = [k for k in range(1, len(steps)) if steps[k][1] > steps[k - 1][1]]
    assert grown
    for state, _, mu in [steps[grown[0]]] + steps:
        assert mu.values.tobytes() == state.mu.values.tobytes()


def test_simulation_assembles_one_laplacian(tmp_path, monkeypatch):
    # transport and Cahn-Hilliard share the run's zero-flux Laplacian
    from chve import cahn_hilliard, driver, operators, transport
    real = operators.laplacian_matrix
    built = []

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    for mod in (driver, transport, cahn_hilliard):
        monkeypatch.setattr(mod, "laplacian_matrix", counted, raising=False)
    sim = Simulation(spinodal_config(tmp_path))
    assert len(built) == 1
    assert sim.ch.L is built[0]
    assert (sim.transport._lamL != sim.params.lam * built[0]).nnz == 0


def test_total_energy_evaluated_once_per_accepted_step(tmp_path, monkeypatch):
    # the run loop's energy reads each state's constitutive pass; it must
    # equal, bitwise, the energy a standalone caller forms from (phi, F)
    from chve import driver
    calls = []
    real = driver.state_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, "state_energy", counted)
    cfg = spinodal_config(tmp_path, max_steps=10, t_end=1.0)
    summary, rows, state = simulate(cfg)
    assert summary.steps == len(rows) == 10 and summary.rejected_steps == 0
    assert len(calls) <= summary.steps + 1
    assert summary.final_energy == total_energy(state.phi, state.F, cfg.params).total


def test_velocity_admitted_once_per_picard_sweep(tmp_path, monkeypatch):
    # div v is measured once per Stokes solve, where the velocity is solved,
    # and the CSV column reuses the last sweep's measurement; coupled_step,
    # Stokes and advection do not measure it again.  Each step solves once
    # per sweep after the first and once for its candidate, and the run once
    # for its initial state: 1 + sum(picard_iters) solves and admissions
    from chve import cahn_hilliard, driver, operators, stokes, transport
    real = operators.solenoidal_residual
    calls = []

    def counted(dv):
        calls.append(1)
        return real(dv)

    for mod in (driver, operators, stokes, transport, cahn_hilliard):
        if hasattr(mod, "solenoidal_residual"):
            monkeypatch.setattr(mod, "solenoidal_residual", counted)
    solves = _count_calls(monkeypatch, (driver.StokesSolver, "solve"))
    accepted_v = []
    real_step = Simulation.coupled_step

    def spy(self, work, dt, energy_bound):
        new, stats = real_step(self, work, dt, energy_bound)
        accepted_v.append(new.state.v)
        return new, stats

    monkeypatch.setattr(Simulation, "coupled_step", spy)
    summary, rows, _ = simulate(spinodal_config(tmp_path, max_steps=10, t_end=1.0))
    assert summary.steps == len(rows) == len(accepted_v) == 10
    assert summary.rejected_steps == 0
    assert len(calls) == solves["solve"] == 1 + sum(r.picard_iters for r in rows) == 21
    for row, v in zip(rows, accepted_v):
        assert row.div_v_max == real(velocity_derivatives(v))[0]


def test_old_level_prepared_once_per_step(tmp_path, monkeypatch):
    # over 10 PICARD8-style steps: the upwind face candidates of (F_n, phi_n)
    # are built once per step, the sweep advection runs once per sweep, and
    # the elastic law once per sweep at its F_new (its stretch and dw/dphi)
    # plus once in the candidate's constitutive pass (its dw/dphi, from the
    # last sweep's stretch); the state's own pass is the last step's, it
    # carries the first force's dw/dphi, and no f' is evaluated apart from
    # a pass
    from chve import constitutive, diagnostics, operators
    counts = _count_calls(monkeypatch, (operators, "upwind_candidates"),
                          (operators, "advect_upwind"), (diagnostics, "state_fields"),
                          *((constitutive, name) for name in (
                              "stiffness_f_prime", "elastic_response", "_stretch")))
    per_step = []
    real_step = Simulation.coupled_step

    def spy(self, work, dt, energy_bound):
        before = dict(counts)
        new, stats = real_step(self, work, dt, energy_bound)
        per_step.append((stats.picard_iters,
                         {k: counts[k] - before[k] for k in counts}))
        return new, stats

    monkeypatch.setattr(Simulation, "coupled_step", spy)
    cfg = spinodal_config(tmp_path, max_steps=10, t_end=1.0, picard_max=8,
                          picard_tol=1e-10)
    summary, rows, _ = simulate(cfg)
    assert summary.steps == len(rows) == len(per_step) == 10
    assert summary.rejected_steps == 0
    assert [k for k, _ in per_step] == [r.picard_iters for r in rows]
    assert max(r.picard_iters for r in rows) > 2
    for sweeps, n in per_step:
        assert n == {"upwind_candidates": 1, "advect_upwind": sweeps, "state_fields": 1,
                     "stiffness_f_prime": 0, "elastic_response": sweeps + 1,
                     "_stretch": sweeps}


def test_step_stats_count_the_krylov_iterations(tmp_path, monkeypatch):
    # every GMRES and CG iteration applies its preconditioner once; the
    # step reports both totals over all its sweeps, and the CSV keeps its
    # columns
    from chve import krylov
    calls = {"gmres": 0, "pcg": 0}

    def counting(name, real):
        def solve(*args, M, **kwargs):
            def counted_M(x):
                calls[name] += 1
                return M(x)
            return real(*args, M=counted_M, **kwargs)
        return solve

    monkeypatch.setattr(krylov, "gmres", counting("gmres", krylov.gmres))
    monkeypatch.setattr(krylov, "pcg", counting("pcg", krylov.pcg))
    cfg = spinodal_config(tmp_path, picard_max=3, picard_tol=1e-10)
    sim = Simulation(cfg)
    work, _, _ = sim.initial_state()
    for _ in range(4):
        before = dict(calls)
        work, stats = sim.coupled_step(work, cfg.time.dt0, math.inf)
        assert stats.gmres_iters == calls["gmres"] - before["gmres"]
        assert stats.cg_iters == calls["pcg"] - before["pcg"]
    assert calls["gmres"] > 0 and calls["pcg"] > 0


def _count_calls(monkeypatch, *functions):
    """Count the calls of each (owner, name) function, wherever the package
    looks it up; returns the live dict name -> count."""
    import sys
    counts = {}
    chve_modules = [m for k, m in sys.modules.items() if k == "chve" or k.startswith("chve.")]
    for owner, name in functions:
        real = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod in chve_modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_each_derived_field_is_formed_once(tmp_path, monkeypatch):
    # 16^2, two Picard sweeps per step: the velocity-derivative pass is
    # formed once per Stokes solve, one per sweep after the first and one
    # per state of its own (the first sweep takes it), f(phi), b(phi) and f'(phi) in one
    # pass per accepted state plus the initial state, with no separate
    # evaluation of any of them, dw/dphi once per sweep and once per pass,
    # and the stretch once per sweep and for the initial state only
    from chve import constitutive, operators
    counts = _count_calls(monkeypatch, (operators, "velocity_derivatives"),
                          *((constitutive, name) for name in (
                              "phase_profiles", "stiffness_f", "mobility_b",
                              "stiffness_f_prime", "elastic_response", "_stretch")))
    summary, rows, _ = simulate(spinodal_config(tmp_path, n=16, max_steps=8, t_end=1.0,
                                                picard_max=2))
    assert summary.steps == len(rows) == 8 and summary.rejected_steps == 0
    solves = sum(r.picard_iters for r in rows)
    assert solves == 2 * 8
    assert counts == {"velocity_derivatives": solves + 1, "phase_profiles": 8 + 1,
                      "stiffness_f": 0, "mobility_b": 0, "stiffness_f_prime": 0,
                      "elastic_response": solves + 8 + 1, "_stretch": solves + 1}


def test_a_resumed_run_forms_one_derivative_pass_per_stokes_solve(tmp_path, monkeypatch):
    # nothing reads the velocity derivatives of a state read back from a
    # restart (coupled_step reads the last sweep's, for the candidate's
    # dissipation), so a resumed run forms the derivative pass inside its
    # Stokes solves only: one per sweep after the first and one per state
    # of its own, the restored state's included
    from dataclasses import replace
    from chve import operators
    from chve.stokes import StokesSolver
    kw = dict(n=16, t_end=1.0, snapshot_every=4)
    simulate(spinodal_config(tmp_path, name="run", max_steps=4, **kw))
    cfg = spinodal_config(tmp_path, name="resume", max_steps=4, **kw)
    restart = tmp_path / "run" / "restart_00000004.chv"
    cfg = replace(cfg, initial=replace(cfg.initial, restart_file=str(restart)))
    counts = _count_calls(monkeypatch, (operators, "velocity_derivatives"),
                          (StokesSolver, "solve"))
    summary, rows, _ = simulate(cfg)
    assert summary.steps == len(rows) == 4 and summary.rejected_steps == 0
    solves = sum(r.picard_iters for r in rows)
    assert counts == {"velocity_derivatives": solves + 1, "solve": solves + 1}


def test_step_builds_a_field_only_where_a_value_is_kept(tmp_path, monkeypatch):
    # over 10 PICARD8-style steps each sweep builds six fields: the force
    # that the Stokes solve validates, v, q, F_new, phi_new and mu_new.  The
    # first sweep takes the state's own solve, and the candidate's own
    # solve builds its force, v and q in their place; every stencil trades
    # arrays
    built = []
    for cls in (ScalarField, StaggeredVectorField, TensorField):
        def counted(self, real=cls.__post_init__):
            built.append(type(self).__name__)
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    cfg = spinodal_config(tmp_path, picard_max=8, picard_tol=1e-10)
    sim = Simulation(cfg)
    work, _, _ = sim.initial_state()
    sweeps = []
    for k in range(10):
        built.clear()
        work, stats = sim.coupled_step(work, cfg.time.dt0, math.inf)
        assert len(built) == 6 * stats.picard_iters, built
        sweeps.append(stats.picard_iters)
    assert max(sweeps) > 2


def _signed_zero_faces_velocity(grid, rng):
    """Random stream-function velocity whose interior faces include exact
    0.0 and -0.0 normal velocities, on both axes."""
    psi = rng.standard_normal((grid.nx + 1, grid.ny + 1))
    psi[[0, -1], :] = psi[:, [0, -1]] = 0.0
    psi[1:3, 1:3] = 0.0   # u[1, 1] = +0.0 and w[1, 1] = -(+0.0) = -0.0
    psi[2, 3] = -0.0      # u[2, 2] = (-0.0 - 0.0) / hy = -0.0
    psi[3, 2] = -0.0      # w[2, 2] = -(-0.0 - 0.0) / hx = +0.0
    v = StaggeredVectorField.from_stream_function(grid, psi)
    for a in (v.u[1:-1, :], v.w[:, 1:-1]):
        zeros = a[a == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    return v


@pytest.mark.parametrize("nx, ny, ly", [(16, 16, 1.0), (5, 7, 1.3)],
                         ids=["16x16", "5x7"])
def test_sweep_advection_is_bitwise_advect_tensor_and_scalar(nx, ny, ly):
    grid = GridSpec(nx, ny, 1.0, ly)
    rng = np.random.default_rng(nx * ny)
    v = _signed_zero_faces_velocity(grid, rng)
    phi = ScalarField(grid, rng.uniform(-1.0, 1.0, (nx, ny)))
    F = TensorField(grid, rng.standard_normal((nx, ny, 2, 2)))
    adv_F, adv_phi = sweep_advection(v, old_level_faces(F, phi), F.d)
    ref_F, ref_phi = advect_tensor(v, F.comps), advect_scalar(v, phi.values)
    assert adv_F.shape == ref_F.shape and adv_phi.shape == ref_phi.shape
    for a in range(2):
        for b in range(2):
            assert (np.ascontiguousarray(adv_F[:, :, a, b]).tobytes()
                    == np.ascontiguousarray(ref_F[:, :, a, b]).tobytes()), (a, b)
    assert np.ascontiguousarray(adv_phi).tobytes() == ref_phi.tobytes()


def test_nonfinite_sweep_advection_rejects_the_step(tmp_path, monkeypatch):
    from chve import driver
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    real = driver.advect_upwind

    def poisoned(v, faces):
        out = real(v, faces)
        out[0, 0, -1] = np.inf
        return out

    monkeypatch.setattr(driver, "advect_upwind", poisoned)
    with pytest.raises(StepRejected, match="^precondition: advection term"):
        sim.coupled_step(work, 1e-4, math.inf)


def test_budget_residual_equals_reference_formula(tmp_path, monkeypatch):
    cfg = spinodal_config(tmp_path, max_steps=6, t_end=1.0, adaptive="true",
                          dt_max="4e-4")
    seen = []
    real = Simulation.coupled_step

    def spy(self, work, dt, energy_bound):
        cand, stats = real(self, work, dt, energy_bound)
        state_n, state_np1 = work.state, cand.state
        # the budget written out inline, with both energies evaluated afresh
        e_old = total_energy(state_n.phi, state_n.F, cfg.params).total
        e_new = total_energy(state_np1.phi, state_np1.F, cfg.params).total
        dphi_dt = (state_np1.phi.values - state_n.phi.values) / dt
        dv = velocity_derivatives(state_np1.v)
        fields = state_fields(state_np1.phi, state_np1.F, cfg.params)
        d_new = dissipation(dv, state_np1.mu, fields, dphi_dt, cfg.params)
        ref = (d_new, (e_new - e_old) / dt + d_new)
        shared = energy_budget(state_n, state_np1, dv, fields, dt, e_old, e_new,
                               cfg.params)
        seen.append((stats, shared, ref))
        return cand, stats

    monkeypatch.setattr(Simulation, "coupled_step", spy)
    _, rows, _ = simulate(cfg)
    assert len(seen) == len(rows) == 6
    for row, (stats, shared, ref) in zip(rows, seen):
        assert shared == ref
        assert (stats.dissipation, stats.budget_residual) == ref
        assert (row.dissipation, row.budget_residual) == ref


def test_restart_file_roundtrip_lossless(tmp_path):
    cfg = spinodal_config(tmp_path, name="rt", max_steps=3, t_end=1.0)
    _, _, state = simulate(cfg)
    p = tmp_path / "state.chv"
    write_restart(p, state, StepControl(3e-4, 4), 5.5)
    loaded, control, e0 = read_restart(p)
    assert control == StepControl(3e-4, 4) and e0 == 5.5
    assert np.array_equal(loaded.phi.values, state.phi.values)
    assert np.array_equal(loaded.phi_prev.values, state.phi_prev.values)
    assert np.array_equal(loaded.mu.values, state.mu.values)
    assert np.array_equal(loaded.q.values, state.q.values)
    assert np.array_equal(loaded.F.comps, state.F.comps)
    assert np.array_equal(loaded.v.u, state.v.u)
    assert np.array_equal(loaded.v.w, state.v.w)
    assert loaded.t == state.t and loaded.step_index == state.step_index


def test_later_sweeps_warm_start_the_transport_cg(tmp_path, monkeypatch):
    """Sweep 2 starts its transport CG from sweep 1's pair (G, b), so pcg
    returns at its first residual test (one operator application) where
    sweep 1 and a cold start of sweep 2's own solve need two or more; its F
    equals that cold start within the CG tolerance."""
    from chve import krylov
    from chve.transport import TransportSystem
    applied = []
    real_pcg = krylov.pcg

    def spied_pcg(A, b, x0, **kwargs):
        applied.append(0)

        def counted(X):
            applied[-1] += 1
            return A(X)
        return real_pcg(counted, b, x0, **kwargs)

    steps = []
    real_step = TransportSystem.step

    def recorded_step(self, level, v, adv, start=None):
        out = real_step(self, level, v, adv, start=start)
        steps.append((level, v, adv, start, out[0]))
        return out

    monkeypatch.setattr(krylov, "pcg", spied_pcg)
    monkeypatch.setattr(TransportSystem, "step", recorded_step)
    sim = Simulation(spinodal_config(tmp_path, picard_max=2))
    work, _, _ = sim.initial_state()
    for _ in range(3):
        applied.clear()
        steps.clear()
        work, stats = sim.coupled_step(work, 1e-5, math.inf)
        assert stats.picard_iters == 2
        [first, second] = steps
        assert first[3] is None and second[3] is not None
        level, v, adv, _, F_warm = second
        F_cold, _, _ = real_step(sim.transport, level, v, adv)
        sweep1, sweep2, cold = applied
        assert sweep1 >= 2 and cold >= 2
        assert sweep2 == 1
        err = np.linalg.norm(F_warm.comps - F_cold.comps)
        assert err <= 1e-11 * np.linalg.norm(F_cold.comps)


def test_coupled_step_repeats_bitwise(tmp_path):
    """The warm start lives inside one step: stepping the same state twice
    gives bitwise-equal states, as a retry after a rejection needs."""
    sim = Simulation(spinodal_config(tmp_path, picard_max=4, picard_tol=1e-300))
    work, _, _ = sim.initial_state()
    a, stats_a = sim.coupled_step(work, 1e-5, math.inf)
    b, stats_b = sim.coupled_step(work, 1e-5, math.inf)
    a, b = a.state, b.state
    assert stats_a == stats_b and stats_a.picard_iters == 4
    for x, y in ((a.phi.values, b.phi.values), (a.mu.values, b.mu.values),
                 (a.F.comps, b.F.comps), (a.v.u, b.v.u), (a.v.w, b.v.w),
                 (a.q.values, b.q.values)):
        assert np.array_equal(x, y)


def _flip(axis):
    return lambda a: np.ascontiguousarray(np.flip(a, axis))


def _swap(a):
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


# R F R for R = diag(-1, 1) or diag(1, -1): the off-diagonal entries negate
_RFR = np.array([[1.0, -1.0], [-1.0, 1.0]])

# name -> (cell data, F, (u, w)) of a symmetry of the box
_SYMMETRIES = {
    # x -> lx - x: F -> RFR with R = diag(-1, 1), the mirrored u negated
    "mirror-x": (_flip(0), lambda F: _flip(0)(F) * _RFR,
                 lambda u, w: (-_flip(0)(u), _flip(0)(w))),
    # y -> ly - y: F -> RFR with R = diag(1, -1), the mirrored w negated
    "mirror-y": (_flip(1), lambda F: _flip(1)(F) * _RFR,
                 lambda u, w: (_flip(1)(u), -_flip(1)(w))),
    # x <-> y on a square grid: F -> PFP with P the swap, (u, w) -> (w^T, u^T)
    "transpose": (_swap, lambda F: _swap(F)[:, :, ::-1, ::-1].copy(),
                  lambda u, w: (_swap(w), _swap(u))),
}


def _transformed(state, symmetry):
    cells, tensor, faces = _SYMMETRIES[symmetry]
    g = state.phi.grid
    return SimState(phi=ScalarField(g, cells(state.phi.values)),
                    phi_prev=ScalarField(g, cells(state.phi_prev.values)),
                    mu=ScalarField(g, cells(state.mu.values)),
                    F=TensorField(g, tensor(state.F.comps)),
                    v=StaggeredVectorField(g, *faces(state.v.u, state.v.w)),
                    q=ScalarField(g, cells(state.q.values)),
                    t=state.t, step_index=state.step_index)


def _unknowns(state):
    """phi, mu, q, F, u and w of a state."""
    return (state.phi.values, state.mu.values, state.q.values, state.F.comps,
            state.v.u, state.v.w)


def _stepped(sim, state, steps, dt):
    """state after steps coupled steps of size dt from its own record, and
    the (Picard, Newton) counts of each."""
    work, counts = sim.record(state), []
    for _ in range(steps):
        work, stats = sim.coupled_step(work, dt, math.inf)
        counts.append((stats.picard_iters, stats.newton_iters))
    return work.state, counts


@pytest.mark.parametrize("symmetry,grid", [
    ("mirror-x", GridSpec(13, 10, 1.3, 1.0)),
    ("mirror-y", GridSpec(13, 10, 1.3, 1.0)),
    ("transpose", GridSpec(11, 11)),
])
def test_coupled_step_keeps_the_box_symmetries(tmp_path, symmetry, grid):
    """Stepping a state and then mirroring or transposing it equals
    transforming it and then stepping, to 1e-12 of each field's max-norm,
    with equal Picard and Newton counts: the discretization is equivariant
    under the box's symmetries."""
    cfg = dataclasses.replace(spinodal_config(tmp_path), grid=grid)
    sim = Simulation(cfg)
    work, _, _ = sim.initial_state()
    noise = np.random.default_rng(7).standard_normal((grid.nx, grid.ny, 2, 2))
    F0 = TensorField(grid, TensorField.identity(grid).comps + 0.2 * noise)
    state = dataclasses.replace(work.state, F=F0)
    a, counts_a = _stepped(sim, state, 10, 1e-5)
    b, counts_b = _stepped(sim, _transformed(state, symmetry), 10, 1e-5)
    a = _transformed(a, symmetry)
    assert counts_a == counts_b
    for x, y in zip(_unknowns(a), _unknowns(b)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))


def test_coupled_run_through_pocketfft_matches_the_dense_run(tmp_path, monkeypatch):
    # 12^2 SPINODAL to t = 2e-4 with every eigenbasis applied as dense
    # products, then through pocketfft (crossover patched to 8 cells): the
    # same steps, Picard and Newton counts, and final fields
    from chve import operators
    kw = dict(n=12, t_end=2e-4, dt0=1e-5, adaptive="true", picard_tol=1e-8)
    runs = {}
    for name, crossover in (("dense", 12), ("pocketfft", 8)):
        monkeypatch.setattr(operators, "DENSE_TRANSFORM_MAX", crossover)
        runs[name] = simulate(spinodal_config(tmp_path, name=name, **kw))
    (summary_a, rows_a, a), (summary_b, rows_b, b) = runs["dense"], runs["pocketfft"]
    assert summary_a.steps == summary_b.steps == 17
    assert [(r.picard_iters, r.newton_iters) for r in rows_a] == \
        [(r.picard_iters, r.newton_iters) for r in rows_b]
    for x, y in zip(_unknowns(a), _unknowns(b)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))


def _run_with_one_energy_rejection(tmp_path, monkeypatch, name, keep=True):
    """A 16^2 run whose third candidate reads an infinite energy, so it is
    rejected once and retried at dt/2; returns (summary, CSV bytes, the
    solved forces, the phase fields whose constitutive pass was formed).
    keep=False steps each state from a record formed afresh from the state
    alone (Simulation.record, which forms its energy and its own solve
    too), so no attempt reuses any earlier work."""
    from chve import driver
    forces, passes, energies = [], [], []
    real_solve, real_fields = driver.StokesSolver.solve, driver.state_fields
    real_energy = driver.state_energy

    def solve(self, force):
        forces.append(force.u.tobytes() + force.w.tobytes())
        return real_solve(self, force)

    def fields(phi, *rest):
        passes.append(phi)
        return real_fields(phi, *rest)

    # the initial state, then candidate 3; afresh, each candidate's energy
    # follows that of its state's fresh record
    rejected = 4 if keep else 7

    def energy(fields, params):
        energies.append(real_energy(fields, params))
        if len(energies) == rejected:
            return dataclasses.replace(energies[-1], bulk=np.inf)
        return energies[-1]

    real_step = Simulation.coupled_step

    def afresh(self, work, dt, energy_bound):
        return real_step(self, self.record(work.state), dt, energy_bound)

    with monkeypatch.context() as m:
        m.setattr(driver.StokesSolver, "solve", solve)
        m.setattr(driver, "state_fields", fields)
        m.setattr(driver, "state_energy", energy)
        if not keep:
            m.setattr(Simulation, "coupled_step", afresh)
        cfg = spinodal_config(tmp_path, name=name, n=16, max_steps=6, t_end=1.0)
        summary = Simulation(cfg).run()
    csv = (tmp_path / name / "diagnostics.csv").read_bytes()
    return summary, csv, forces, passes


def test_a_retry_forms_no_state_work_again(tmp_path, monkeypatch):
    # a retry after a rejection solves the state's first force again no
    # more than step 1 solves the initial state's, and the run loop reads
    # the accepted state's constitutive pass from its record; the CSV is
    # the one a run that forms all of it afresh writes
    summary, csv, forces, passes = _run_with_one_energy_rejection(
        tmp_path, monkeypatch, "kept")
    assert (summary.steps, summary.rejected_steps) == (6, 1)
    assert len(set(forces)) == len(forces)
    assert all(a is not b for i, a in enumerate(passes) for b in passes[:i])
    summary_ref, csv_ref, forces_ref, passes_ref = _run_with_one_energy_rejection(
        tmp_path, monkeypatch, "afresh", keep=False)
    assert (summary_ref.steps, summary_ref.rejected_steps) == (6, 1)
    assert csv == csv_ref
    # afresh, each of the 7 attempts solves its state's own force, solved
    # before by initial_state or by the step that made the state, and the
    # state stepped from has its pass formed for the retry again
    assert len(forces_ref) == len(forces) + 7 == len(set(forces_ref)) + 7
    assert len(passes_ref) > len(passes)


def test_steps_leave_nothing_on_the_simulation(tmp_path, monkeypatch):
    # a step's work travels in the records the run loop holds: after three
    # steps and one rejected candidate the simulation and its solvers hold
    # the very objects they held when built
    from chve import driver
    energies = []
    real_energy = driver.state_energy

    def energy(fields, params):
        energies.append(real_energy(fields, params))
        if len(energies) == 3:  # the initial state, then candidate 2
            return dataclasses.replace(energies[-1], bulk=np.inf)
        return energies[-1]

    monkeypatch.setattr(driver, "state_energy", energy)
    sim = Simulation(spinodal_config(tmp_path, n=16, max_steps=3, t_end=1.0))
    owners = (sim, sim.stokes, sim.ch, sim.transport)
    before = [dict(vars(owner)) for owner in owners]
    summary = sim.run()
    assert (summary.steps, summary.rejected_steps) == (3, 1)
    for owner, held in zip(owners, before):
        assert vars(owner).keys() == held.keys(), type(owner).__name__
        assert all(vars(owner)[k] is v for k, v in held.items()), type(owner).__name__


def test_fixed_dt_run_takes_no_step_below_dt_min(tmp_path):
    # 250 steps of 0.02 sum to t_end = 5 less about 1.9e-14; that remainder
    # lies below dt_min and is not stepped
    cfg = spinodal_config(tmp_path, n=8, t_end=5.0, dt0=0.02, dt_max=0.02)
    summary, rows, _ = simulate(cfg)
    assert (summary.steps, summary.termination) == (250, "t_end")
    assert len(rows) == 250
    assert min(r.dt for r in rows) >= cfg.time.dt_min


def test_rejected_step_leaves_state_unchanged(tmp_path):
    cfg = spinodal_config(tmp_path, name="rej")
    sim = Simulation(cfg)
    work, _, _ = sim.initial_state()
    phi_before = work.state.phi.values.copy()
    # a huge dt forces a CFL/Newton rejection path somewhere in the sweep
    try:
        sim.coupled_step(work, 1e6, math.inf)
    except StepRejected:
        pass
    assert np.array_equal(work.state.phi.values, phi_before)
    # retry with a sane dt works and reproduces identical arithmetic
    s1, _ = sim.coupled_step(work, 1e-4, math.inf)
    s2, _ = sim.coupled_step(work, 1e-4, math.inf)
    assert np.array_equal(s1.state.phi.values, s2.state.phi.values)


def test_energy_rejection_comes_from_coupled_step(tmp_path):
    # coupled_step judges the candidate's energy against the bound it is
    # given; the rejection leaves the record stepped from as it was, and a
    # retry without a bound accepts the very energy the message names
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    held = dict(vars(work))
    with pytest.raises(StepRejected) as info:
        sim.coupled_step(work, 1e-4, -math.inf)
    assert info.value.reason.startswith("energy ")
    assert all(vars(work)[k] is v for k, v in held.items())
    cand, _ = sim.coupled_step(work, 1e-4, math.inf)
    assert info.value.reason == f"energy {cand.energy.total:.17g} > -inf"


def test_records_carry_their_state_energy(tmp_path):
    # a built state's record carries E0 and the run's scale |E0|; a restored
    # one carries the energy of (phi, F), with the scale its file holds
    from dataclasses import replace
    cfg = spinodal_config(tmp_path, name="run", max_steps=3, t_end=1.0, snapshot_every=1)
    work, _, scale = Simulation(cfg).initial_state()
    assert work.energy == total_energy(work.state.phi, work.state.F, cfg.params)
    assert scale == abs(work.energy.total) > 0.0
    simulate(cfg)
    restart = tmp_path / "run" / "restart_00000002.chv"
    cfg = replace(cfg, initial=replace(cfg.initial, restart_file=str(restart)))
    work, _, restored_scale = Simulation(cfg).initial_state()
    assert work.state.step_index == 2 and restored_scale == scale
    ref = total_energy(work.state.phi, work.state.F, cfg.params)
    assert work.energy == ref and work.energy.total == ref.total


def test_a_record_is_whole_when_built(tmp_path):
    # a record needs its state's own Stokes solve, with the max|div v| its
    # admission measured, and takes no field after it is built; the record
    # coupled_step builds for its candidate is, bit for bit, the one
    # Simulation.record forms from the candidate alone
    sim = Simulation(spinodal_config(tmp_path, n=16))
    work, _, _ = sim.initial_state()
    with pytest.raises(TypeError):
        StateWork(work.state, work.fields, work.energy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        work.first_solve = None
    cand, _ = sim.coupled_step(work, 1e-4, math.inf)
    ref = sim.record(cand.state)
    assert cand.energy == ref.energy
    for (v, q, dv, div), (v_ref, q_ref, _, div_ref) in (
            (cand.first_solve, ref.first_solve),
            (work.first_solve, sim.record(work.state).first_solve)):
        assert v.u.tobytes() == v_ref.u.tobytes() and v.w.tobytes() == v_ref.w.tobytes()
        assert q.values.tobytes() == q_ref.values.tobytes()
        assert div == div_ref == solenoidal_residual(dv)[0]


def test_more_picard_sweeps_tighten_coupling(tmp_path):
    """Extra sweeps drive the splitting to its implicit fixed point: the
    per-step self-consistency gap collapses by orders of magnitude, and the
    energy budget residual does not degrade.  (The budget residual itself
    is dominated by sweep-independent splitting/upwinding defects, so it is
    monitored for non-regression rather than for a fixed reduction.)"""
    cfg1 = spinodal_config(tmp_path, name="p1", picard_max=1,
                           reject_on_energy="false")
    cfg8 = spinodal_config(tmp_path, name="p8", picard_max=8,
                           reject_on_energy="false")
    sim1, sim8 = Simulation(cfg1), Simulation(cfg8)

    def budget(cfg, s, c):
        s, c = s.state, c.state
        e_old, e_new = (total_energy(x.phi, x.F, cfg.params).total for x in (s, c))
        return abs(energy_budget(s, c, velocity_derivatives(c.v),
                                 state_fields(c.phi, c.F, cfg.params),
                                 2e-4, e_old, e_new, cfg.params)[1])

    s1, _, _ = sim1.initial_state()
    s8, _, _ = sim8.initial_state()
    gaps8, res1, res8 = [], [], []
    for _ in range(10):
        c1, _ = sim1.coupled_step(s1, 2e-4, math.inf)
        c8, st8 = sim8.coupled_step(s8, 2e-4, math.inf)
        res1.append(budget(cfg1, s1, c1))
        res8.append(budget(cfg8, s8, c8))
        gaps8.append(st8.picard_gap)
        s1, s8 = c1, c8
    # a single sweep lands this far from the fixed point (measured by a
    # two-sweep probe step); tight sweeps close the gap by orders of magnitude
    probe = Simulation(spinodal_config(tmp_path, name="probe", picard_max=2))
    _, st_probe = probe.coupled_step(s1, 2e-4, math.inf)
    assert st_probe.picard_gap > 100.0 * max(gaps8)
    assert np.mean(res8) <= 1.05 * np.mean(res1)


def _read_vtk(path):
    """Parse a legacy VTK BINARY snapshot; returns the 8 header lines and
    {name: array}, each array indexed (i, j, ...) like the state's fields."""
    raw = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = raw.index(b"\n", pos)
        text = raw[pos:end].decode("ascii")
        pos = end + 1
        return text

    header = [line() for _ in range(8)]
    nx, ny = (int(n) - 1 for n in header[4].split()[1:3])
    arrays = {}
    while pos < len(raw):
        kind, name, dtype = line().split()[:3]
        assert dtype == "double"
        if kind == "SCALARS":
            assert line() == "LOOKUP_TABLE default"
        shape = (ny, nx) + {"SCALARS": (), "VECTORS": (3,), "TENSORS": (3, 3)}[kind]
        count = int(np.prod(shape))
        a = np.frombuffer(raw, dtype=">f8", count=count, offset=pos)
        pos += 8 * count
        assert raw[pos:pos + 1] == b"\n"
        pos += 1
        arrays[name] = np.swapaxes(a.reshape(shape), 0, 1)  # x ran fastest
    return header, arrays


def _check_snapshot(path, state):
    g = state.phi.grid
    header, arrays = _read_vtk(path)
    assert header == [
        "# vtk DataFile Version 3.0",
        f"chve snapshot step={state.step_index} t={state.t:.17g}",
        "BINARY",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {g.nx + 1} {g.ny + 1} 1",
        "ORIGIN 0 0 0",
        f"SPACING {g.hx:.17g} {g.hy:.17g} 1",
        f"CELL_DATA {g.nx * g.ny}",
    ]
    assert list(arrays) == ["phi", "mu", "q", "velocity", "F"]
    for name in ("phi", "mu", "q"):
        assert np.array_equal(arrays[name], getattr(state, name).values)
    vel = arrays["velocity"]
    assert np.array_equal(vel[..., 0], 0.5 * (state.v.u[1:, :] + state.v.u[:-1, :]))
    assert np.array_equal(vel[..., 1], 0.5 * (state.v.w[:, 1:] + state.v.w[:, :-1]))
    assert not vel[..., 2].any()
    F = arrays["F"]
    assert np.array_equal(F[..., :2, :2], state.F.comps)
    assert not F[..., 2, :].any() and not F[..., :, 2].any()


def test_snapshot_cadence(tmp_path):
    cfg = spinodal_config(tmp_path, name="snap", snapshot_every=5,
                          max_steps=10, t_end=1.0)
    Simulation(cfg).run()
    out = tmp_path / "snap"
    for step in (0, 5, 10):
        assert (out / f"snap_{step:08d}.vtk").exists()
        assert (out / f"restart_{step:08d}.chv").exists()
        # the snapshot holds exactly the fields of the restart beside it
        state, _, _ = read_restart(out / f"restart_{step:08d}.chv")
        assert state.step_index == step
        _check_snapshot(out / f"snap_{step:08d}.vtk", state)


def _record_checkpoints(monkeypatch):
    """Record the step of every snapshot and the (step, next dt) of every
    restart the driver writes."""
    from chve import driver
    snaps, restarts = [], []
    real_vtk, real_restart = driver.write_vtk, driver.write_restart

    def vtk(path, state):
        snaps.append(state.step_index)
        real_vtk(path, state)

    def restart(path, state, control, *args):
        restarts.append((state.step_index, control.dt))
        real_restart(path, state, control, *args)

    monkeypatch.setattr(driver, "write_vtk", vtk)
    monkeypatch.setattr(driver, "write_restart", restart)
    return snaps, restarts


@pytest.mark.parametrize("kw,steps", [
    (dict(t_end=0.0), [0]),
    (dict(snapshot_every=5, max_steps=10, t_end=1.0), [0, 5, 10]),
    (dict(snapshot_every=5, max_steps=7, t_end=1.0), [0, 5, 7]),
], ids=["t_end-0", "final-on-cadence", "final-off-cadence"])
def test_each_state_checkpointed_once(tmp_path, monkeypatch, kw, steps):
    snaps, restarts = _record_checkpoints(monkeypatch)
    Simulation(spinodal_config(tmp_path, **kw)).run()
    assert snaps == steps
    assert [step for step, _ in restarts] == steps


def test_resumed_run_keeps_the_output_cadences(tmp_path, monkeypatch):
    # diagnostics_every and snapshot_every count step indices, so a run
    # stopped at step 6 and resumed into its own directory writes its rows
    # and snapshots at the steps of the uninterrupted run
    from dataclasses import replace

    def config(name, **kw):
        cfg = spinodal_config(tmp_path, name=name, t_end=0.0024, snapshot_every=4, **kw)
        return replace(cfg, output=replace(cfg.output, diagnostics_every=4))

    snaps, _ = _record_checkpoints(monkeypatch)
    simulate(config("full"))
    assert snaps == [0, 4, 8, 12]
    simulate(config("run", max_steps=6))
    cfg = config("run")
    restart = str(tmp_path / "run" / "restart_00000006.chv")
    snaps.clear()
    simulate(replace(cfg, initial=replace(cfg.initial, restart_file=restart)))
    assert snaps == [8, 12]
    csv = (tmp_path / "run" / "diagnostics.csv").read_bytes()
    assert csv == (tmp_path / "full" / "diagnostics.csv").read_bytes()
    assert [line.split(b",")[0] for line in csv.splitlines()[1:]] == [b"4", b"8", b"12"]


def test_final_checkpoint_after_dt_underflow_carries_halved_dt(tmp_path, monkeypatch):
    snaps, restarts = _record_checkpoints(monkeypatch)
    sim = Simulation(spinodal_config(tmp_path, snapshot_every=1, t_end=1.0))
    real_step = sim.coupled_step

    def rejected_after_two(work, dt, energy_bound):
        if work.state.step_index >= 2:
            raise StepRejected("injected")
        return real_step(work, dt, energy_bound)

    sim.coupled_step = rejected_after_two
    summary = sim.run()
    assert summary.termination == "dt_underflow"
    assert snaps == [0, 1, 2, 2]
    # 2e-4 halves 20 times, the 21st rejection would drop it below dt_min
    assert restarts[-2:] == [(2, 2e-4), (2, 2e-4 / 2**20)]
    _, control, _ = read_restart(tmp_path / "out" / "restart_00000002.chv")
    assert control.dt == 2e-4 / 2**20


def test_vtk_snapshot_structure(tmp_path, rng):
    # one accepted 32^2 step, then a random state on a non-square grid,
    # where swapping the x and y ordering cannot go unnoticed
    cfg = spinodal_config(tmp_path, name="vtk", max_steps=1, t_end=1.0)
    _, _, state = simulate(cfg)
    _check_snapshot(tmp_path / "vtk" / "snap_00000001.vtk", state)

    g = GridSpec(5, 7, 1.0, 1.3)
    phi, mu, q = (ScalarField(g, rng.standard_normal((5, 7))) for _ in range(3))
    state = SimState(phi=phi, phi_prev=phi, mu=mu, q=q,
                     F=TensorField(g, rng.standard_normal((5, 7, 2, 2))),
                     v=StaggeredVectorField(  # no-slip: wall faces stay 0
                         g, np.pad(rng.standard_normal((4, 7)), ((1, 1), (0, 0))),
                         np.pad(rng.standard_normal((5, 6)), ((0, 0), (1, 1)))),
                     t=0.125, step_index=3)
    write_vtk(tmp_path / "5x7.vtk", state)
    _check_snapshot(tmp_path / "5x7.vtk", state)


def test_named_initial_profiles(tmp_path):
    from chve.config import parse_config as pc
    from chve.driver import initial_F, initial_phi
    cfg = pc(f"""
[grid]
nx = 16
ny = 16

[initial]
phi = tanh-y
phi_amplitude = 0.8
phi_width = 0.2
F_amplitude = 0.3

[output]
directory = {tmp_path}
""")
    phi = initial_phi(cfg)
    assert phi.values[0, 0] < 0.0 < phi.values[0, -1]
    assert np.max(np.abs(phi.values)) <= 0.8
    F = initial_F(cfg)
    assert F.comps[0, 0, 0, 0] != 1.0
    assert np.all(F.comps[:, :, 1, 1] == 1.0)
    assert np.all(F.comps[:, :, 0, 1] == 0.0)

    cfg_x = pc(f"""
[grid]
nx = 16
ny = 16

[initial]
phi = tanh-x

[output]
directory = {tmp_path}
""")
    phix = initial_phi(cfg_x)
    assert phix.values[0, 0] < 0.0 < phix.values[-1, 0]
