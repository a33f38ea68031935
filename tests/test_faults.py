"""Fault injection: a failure inside a step becomes a rejected step, a
damaged restart file becomes a validation error (CLI exit 2), and a crash
while writing a restart leaves the previous one intact."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import lapack

from chve import cli, constitutive, driver, krylov, vtk_io
from chve.config import StepControl, dump_config
from chve.driver import Simulation, StepRejected
from chve.errors import SolverError, ValidationError
from chve.grid import GridSpec
from chve.stokes import StokesSolver
from chve.vtk_io import read_restart, write_restart

from test_driver import spinodal_config


def _nan_corner(fn):
    def poisoned(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out.flat[0] = np.nan
        return out
    return poisoned


# constitutive function -> the StepRejected reason it leads to
FAULTS = [
    ("psi_minus_prime", "newton:"),                # inside the CH Newton step
    ("eulerian_elastic_stress", "precondition:"),  # inside the Stokes force
]


@pytest.mark.parametrize("target,reason", FAULTS)
def test_nan_inside_a_step_is_rejected(tmp_path, monkeypatch, target, reason):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(constitutive, target, _nan_corner(getattr(constitutive, target)))
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4)
    assert exc.value.reason.startswith(reason)


def _stalled_cg(A, b, **kwargs):
    """Krylov solve that stops at the zero vector, reporting no convergence."""
    return np.zeros_like(b), 1, None


def test_unconverged_transport_solve_is_rejected(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(krylov, "pcg", _stalled_cg)
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4)
    assert exc.value.reason.startswith("linear solve: transport residual")
    assert exc.value.reason.endswith("CG did not converge (info 1)")


def _nan_gmres(A, b, **kwargs):
    """Krylov solve of the phase-field Newton update that returns NaN."""
    return np.full_like(b, np.nan), 0


def test_nan_phase_field_krylov_solve_is_rejected(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(krylov, "gmres", _nan_gmres)
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4)
    assert exc.value.reason.startswith("newton:")


def _nan_back_solve(c, b, **kwargs):
    """Capacitance back-solve (LAPACK potrs) that returns NaN."""
    return np.full_like(b, np.nan), 0


def _failed_back_solve(c, b, **kwargs):
    """Capacitance back-solve that reports an illegal argument."""
    return b, -2


def test_nan_stokes_back_solve_is_rejected(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(lapack, "dpotrs", _nan_back_solve)
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4)
    assert exc.value.reason.startswith("stokes: stream function is not finite")


def test_failed_stokes_back_solve_is_rejected(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(lapack, "dpotrs", _failed_back_solve)
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4)
    assert exc.value.reason == "stokes: capacitance back-solve failed (potrs info -2)"


def test_failed_capacitance_factorization_is_a_solver_error(monkeypatch):
    def not_positive_definite(a, **kwargs):
        """LAPACK potrf: the leading minor of order 1 is not positive definite."""
        return a, 1

    monkeypatch.setattr(lapack, "dpotrf", not_positive_definite)
    with pytest.raises(SolverError, match="capacitance"):
        StokesSolver(GridSpec(8, 8), 1.0)


def _run_faulty(tmp_path, name, inject):
    """Run the spinodal config with ``inject()`` applied after the initial
    state; the persistent fault must end the run with dt underflow."""
    sim = Simulation(spinodal_config(tmp_path, name=name))
    setup = sim.initial_state

    def setup_then_poison():
        init = setup()
        inject()
        return init

    sim.initial_state = setup_then_poison
    summary = sim.run()
    assert summary.termination == "dt_underflow"
    assert summary.steps == 0
    # 2e-4 halves 21 times before it would drop below dt_min = 1e-10
    assert summary.rejected_steps == 21
    out = tmp_path / name
    assert (out / "snap_00000000.vtk").exists()
    assert read_restart(out / "restart_00000000.chv")[0].step_index == 0


@pytest.mark.parametrize("target", [target for target, _ in FAULTS])
def test_persistent_nan_ends_run_with_dt_underflow(tmp_path, monkeypatch, target):
    _run_faulty(tmp_path, target, lambda: monkeypatch.setattr(
        constitutive, target, _nan_corner(getattr(constitutive, target))))


def test_persistent_transport_stall_ends_run_with_dt_underflow(tmp_path, monkeypatch):
    _run_faulty(tmp_path, "cg", lambda: monkeypatch.setattr(krylov, "pcg", _stalled_cg))


def test_persistent_phase_field_krylov_fault_ends_run_with_dt_underflow(tmp_path, monkeypatch):
    _run_faulty(tmp_path, "gmres", lambda: monkeypatch.setattr(krylov, "gmres", _nan_gmres))


def test_persistent_stokes_fault_ends_run_with_dt_underflow(tmp_path, monkeypatch):
    _run_faulty(tmp_path, "stokes", lambda: monkeypatch.setattr(lapack, "dpotrs", _nan_back_solve))


def test_persistent_energy_rise_ends_run_with_dt_underflow(tmp_path, monkeypatch):
    real = driver.state_energy
    rise = itertools.count(1)

    def rising(*args, **kwargs):
        # each evaluation lies one unit of bulk energy above the one before
        eb = real(*args, **kwargs)
        return dataclasses.replace(eb, bulk=eb.bulk + next(rise))

    _run_faulty(tmp_path, "energy",
                lambda: monkeypatch.setattr(driver, "state_energy", rising))


@pytest.mark.parametrize("keep", [40, -8], ids=["inside-header", "8-bytes-short"])
def test_truncated_restart_is_a_validation_error(tmp_path, keep):
    cfg = spinodal_config(tmp_path, name="full", t_end=0.0)
    Simulation(cfg).run()
    raw = (tmp_path / "full" / "restart_00000000.chv").read_bytes()
    cut = tmp_path / "cut.chv"
    cut.write_bytes(raw[:keep])
    with pytest.raises(ValidationError, match="truncated"):
        read_restart(cut)

    ini = tmp_path / "resume.ini"
    text = (tmp_path / "full" / "run_config.ini").read_text()
    assert "restart_file = \n" in text
    ini.write_text(text.replace("restart_file = \n", f"restart_file = {cut}\n"))
    assert cli.main(["run", str(ini), "--output-dir", str(tmp_path / "resumed")]) == 2


def _restart_with(tmp_path, **header):
    """A valid restart file of a fresh 32^2 run with some header fields
    replaced; returns (path, the run's config file)."""
    cfg = spinodal_config(tmp_path, name="full", t_end=0.0, max_steps=3)
    Simulation(cfg).run()
    raw = (tmp_path / "full" / "restart_00000000.chv").read_bytes()
    names = ("magic", "nx", "ny", "lx", "ly", "t", "dt", "step_index",
             "accept_streak", "energy_scale")
    fields = dict(zip(names, vtk_io._HEADER.unpack_from(raw)))
    fields.update(header)
    path = tmp_path / "bad.chv"
    path.write_bytes(vtk_io._HEADER.pack(*fields.values()) + raw[vtk_io._HEADER.size:])
    return path, tmp_path / "full" / "run_config.ini"


@pytest.mark.parametrize("field,value", [
    ("t", np.nan), ("t", -1.0), ("t", np.inf), ("dt", np.nan), ("dt", -1.0),
    ("dt", 0.0), ("dt", np.inf), ("energy_scale", np.nan), ("energy_scale", -1.0),
    ("energy_scale", 0.0),
    ("step_index", -1), ("accept_streak", -1)])
def test_bad_restart_header_is_a_validation_error(tmp_path, field, value):
    # a NaN dt would reject every step forever, a NaN t never reach t_end;
    # a run never writes energy_scale = 0 (it floors |E0| at 1e-30)
    path, _ = _restart_with(tmp_path, **{field: value})
    with pytest.raises(ValidationError, match="restart header needs"):
        read_restart(path)


def test_nan_time_in_restart_exits_2(tmp_path):
    path, ini = _restart_with(tmp_path, t=np.nan)
    text = ini.read_text()
    assert "restart_file = \n" in text
    ini.write_text(text.replace("restart_file = \n", f"restart_file = {path}\n"))
    assert cli.main(["run", str(ini), "--output-dir", str(tmp_path / "resumed")]) == 2


def _resume_config(tmp_path, restart, nx=32):
    """The test config on an nx x 32 grid resuming from the restart file at
    ``restart``; returns the config file's path."""
    text = dump_config(spinodal_config(tmp_path, name="resumed"))
    assert "restart_file = \n" in text and "\nnx = 32\n" in text
    text = text.replace("restart_file = \n", f"restart_file = {restart}\n")
    text = text.replace("\nnx = 32\n", f"\nnx = {nx}\n")
    ini = tmp_path / "resume.ini"
    ini.write_text(text)
    return ini


def test_missing_restart_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.chv"
    assert cli.main(["run", str(_resume_config(tmp_path, missing))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(missing) in err


def test_restart_on_another_grid_exits_2(tmp_path, capsys):
    Simulation(spinodal_config(tmp_path, name="full", t_end=0.0)).run()
    restart = tmp_path / "full" / "restart_00000000.chv"
    assert cli.main(["run", str(_resume_config(tmp_path, restart, nx=16))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: restart grid GridSpec(nx=32, ny=32")
    assert "configured grid GridSpec(nx=16, ny=32" in err


def test_crash_mid_restart_write_keeps_previous_file(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    path = tmp_path / "restart.chv"
    state = work.state
    write_restart(path, state, StepControl(1e-4, 2), 1.5)
    before = path.read_bytes()

    real = np.ascontiguousarray
    calls = []

    def fail_on_fourth_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:  # header and three arrays are already written
            raise OSError("disk full")
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(vtk_io.np, "ascontiguousarray", fail_on_fourth_array)
        with pytest.raises(OSError, match="disk full"):
            write_restart(path, dataclasses.replace(state, t=1.0), StepControl(1e-4, 3), 0.0)
    assert len(calls) == 4
    assert path.read_bytes() == before
    loaded, control, e_scale = read_restart(path)
    assert (control, e_scale, loaded.t) == (StepControl(1e-4, 2), 1.5, state.t)
    assert [p.name for p in tmp_path.iterdir()] == ["restart.chv"]
