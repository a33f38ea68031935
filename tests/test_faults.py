"""Fault injection: a failure inside a step becomes a rejected step, a
damaged restart file becomes a validation error (CLI exit 2), a crash
while writing a restart leaves the previous one intact, and a run killed
at any point and resumed from its newest restart ends with the files of
the uninterrupted run."""

import dataclasses
import itertools
import math
import os
import time
import traceback

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
        sim.coupled_step(work, 1e-4, math.inf)
    assert exc.value.reason.startswith(reason)


def _stalled_cg(A, b, **kwargs):
    """Krylov solve that stops at the zero vector, reporting no convergence."""
    return np.zeros_like(b), 1, None


def test_unconverged_transport_solve_is_rejected(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(krylov, "pcg", _stalled_cg)
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4, math.inf)
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
        sim.coupled_step(work, 1e-4, math.inf)
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
        sim.coupled_step(work, 1e-4, math.inf)
    assert exc.value.reason.startswith("stokes: stream function is not finite")


def test_failed_stokes_back_solve_is_rejected(tmp_path, monkeypatch):
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    monkeypatch.setattr(lapack, "dpotrs", _failed_back_solve)
    with pytest.raises(StepRejected) as exc:
        sim.coupled_step(work, 1e-4, math.inf)
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


def test_a_failed_own_solve_rejects_only_its_candidate(tmp_path, monkeypatch):
    # a state's own Stokes solve (the force of its stored mu and of its
    # pass's dw/dphi) is made by the step that produces the state, after the
    # energy test.  When state 3's fails, that candidate is rejected once
    # and the retry at dt/2 makes another state 3, so the run reaches
    # max_steps; it does not retry the same dt-independent solve until dt
    # underflows.  15 solves: the initial state's, two per accepted step
    # and two in the rejected attempt
    owners, solves = [], []  # the stored mu of each state, by first own solve
    real = Simulation._solve

    def solve(self, fields, mu, dw_dphi, F):
        solves.append(mu)
        if dw_dphi is fields.dw_dphi:  # a state's own force
            key = mu.values.tobytes()
            if key not in owners:
                owners.append(key)
            if owners.index(key) == 3:
                raise SolverError("injected")
        return real(self, fields, mu, dw_dphi, F)

    monkeypatch.setattr(Simulation, "_solve", solve)
    summary = Simulation(spinodal_config(tmp_path, n=16, max_steps=6, t_end=1.0)).run()
    assert (summary.steps, summary.rejected_steps, summary.termination) == \
        (6, 1, "max_steps")
    assert len(owners) == 1 + 6 + 1 and len(solves) == 1 + 2 * 6 + 2


def test_a_non_solenoidal_own_velocity_rejects_only_its_candidate(tmp_path, monkeypatch):
    # a Stokes velocity is admitted as solenoidal where it is solved, so
    # when state 3's own velocity fails the continuity test, the step that
    # makes state 3 rejects it once and the retry at dt/2 makes another
    # state 3; no attempt at the next step judges that velocity again,
    # which would fail at every dt until dt underflows
    owners, poisoned, poisoning = [], [], [False]
    real_solve, real_stokes = Simulation._solve, StokesSolver.solve
    real_residual = driver.solenoidal_residual

    def solve(self, fields, mu, dw_dphi, F):
        poisoning[0] = False
        if dw_dphi is fields.dw_dphi:  # a state's own force
            key = mu.values.tobytes()
            if key not in owners:
                owners.append(key)
            poisoning[0] = owners.index(key) == 3
        return real_solve(self, fields, mu, dw_dphi, F)

    def stokes_solve(self, force):
        v, q, dv = real_stokes(self, force)
        if poisoning[0]:
            poisoned.append(dv)
        return v, q, dv

    def residual(dv):
        div, bound = real_residual(dv)
        return (2.0 * bound if any(dv is p for p in poisoned) else div), bound

    monkeypatch.setattr(Simulation, "_solve", solve)
    monkeypatch.setattr(StokesSolver, "solve", stokes_solve)
    monkeypatch.setattr(driver, "solenoidal_residual", residual)
    summary = Simulation(spinodal_config(tmp_path, n=16, max_steps=6, t_end=1.0)).run()
    assert (summary.steps, summary.rejected_steps, summary.termination) == \
        (6, 1, "max_steps")
    assert len(poisoned) == 1 and len(owners) == 1 + 6 + 1


def test_a_state_whose_own_velocity_is_not_solenoidal_ends_the_run(tmp_path, monkeypatch,
                                                                   capsys):
    # initial_state admits a built and a restored state's own velocity
    # where it solves it, so a failed continuity test raises the same
    # SolverError before any step, and chve run exits 3
    cfg = spinodal_config(tmp_path, name="full", t_end=0.0)
    Simulation(cfg).run()
    restart = tmp_path / "full" / "restart_00000000.chv"
    restored = dataclasses.replace(cfg, initial=dataclasses.replace(
        cfg.initial, restart_file=str(restart)))
    monkeypatch.setattr(driver, "solenoidal_residual", lambda dv: (1.0, 0.5))
    errors = []
    for c in (cfg, restored):
        with pytest.raises(SolverError) as info:
            Simulation(c).initial_state()
        errors.append(str(info.value))
    assert errors == ["div residual 1.000e+00 > 5.000e-01"] * 2
    assert cli.main(["run", str(_resume_config(tmp_path, restart))]) == 3
    assert capsys.readouterr().err == f"runtime failure: {errors[0]}\n"


def test_a_restored_state_whose_own_solve_fails_ends_the_run(tmp_path, monkeypatch, capsys):
    # initial_state makes a restored state's own Stokes solve, as it does a
    # built state's, so its failure raises the same SolverError before any
    # step, and chve run exits 3
    cfg = spinodal_config(tmp_path, name="full", t_end=0.0)
    Simulation(cfg).run()
    restart = tmp_path / "full" / "restart_00000000.chv"
    restored = dataclasses.replace(cfg, initial=dataclasses.replace(
        cfg.initial, restart_file=str(restart)))
    monkeypatch.setattr(lapack, "dpotrs", _failed_back_solve)
    errors = []
    for c in (cfg, restored):
        with pytest.raises(SolverError) as info:
            Simulation(c).initial_state()
        errors.append(str(info.value))
    assert errors == ["capacitance back-solve failed (potrs info -2)"] * 2
    assert cli.main(["run", str(_resume_config(tmp_path, restart))]) == 3
    assert capsys.readouterr().err == f"runtime failure: {errors[0]}\n"


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


# -- killed anywhere, resumed from the newest restart -------------------------

KILLED = 86  # the exit code of a child that died at its kill point


def _in_child(body, timeout=60.0) -> int:
    """Run body() in a forked child and return its exit code: 0 when body
    returns, 1 when it raises, whatever os._exit it calls otherwise."""
    pid = os.fork()
    if pid == 0:  # the child never returns into the test
        code = 1
        try:
            body()
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail(f"child {pid} ran over {timeout} s")
        time.sleep(0.001)


class _DiesAfterFirstBlock:
    """A file that writes through to fh until a write of at least `block`
    bytes, a data block, has reached the disk, and then kills the process."""

    def __init__(self, fh, block: int):
        self.fh, self.block = fh, block

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        n = self.fh.write(data)
        if memoryview(data).nbytes >= self.block:
            self.fh.flush()
            os._exit(KILLED)
        return n


def _arm(point):
    """In a child: make the run die by os._exit(KILLED) at point (kind, step).
    Kinds, in the order a checkpoint of `step` meets them: "vtk" (inside its
    snapshot, after the first data block), "restart" (after csv.flush() and
    the snapshot, before write_restart), "replace" (inside write_restart,
    before its os.replace); then "step", the boundary where the step from
    state `step` begins."""
    kind, at = point
    if kind == "step":
        real_step = Simulation.coupled_step

        def coupled_step(self, work, dt, energy_bound):
            if work.state.step_index == at:
                os._exit(KILLED)
            return real_step(self, work, dt, energy_bound)

        Simulation.coupled_step = coupled_step
    elif kind == "vtk":
        real_vtk = driver.write_vtk

        def write_vtk(path, state):
            if state.step_index == at:
                n = state.phi.grid.nx * state.phi.grid.ny
                vtk_io.open = lambda p, mode: _DiesAfterFirstBlock(open(p, mode), 8 * n)
            real_vtk(path, state)

        driver.write_vtk = write_vtk
    elif kind == "restart":
        real_restart = driver.write_restart

        def write_restart(path, state, *args):
            if state.step_index == at:
                os._exit(KILLED)
            real_restart(path, state, *args)

        driver.write_restart = write_restart
    else:  # "replace"
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == f"restart_{at:08d}.chv":
                os._exit(KILLED)
            real_replace(src, dst)

        os.replace = replace


def _kill_points(checkpoints, steps):
    """Every kill point of a run of `steps` steps that checkpoints at the
    given steps, in the order the run meets them."""
    points = []
    for step in range(steps + 1):
        if step in checkpoints:
            points += [("vtk", step), ("restart", step), ("replace", step)]
        if step < steps:
            points.append(("step", step))
    return points


def _newest_restart(out):
    restarts = sorted(out.glob("restart_*.chv"))
    return restarts[-1] if restarts else None


def _files(out):
    """name -> bytes of every file in out, run_config.ini aside (it names
    its own directory and the restart the run started from)."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "run_config.ini"}


def test_run_killed_anywhere_resumes_to_the_uninterrupted_files(tmp_path):
    # 16^2, adaptive dt with a clipped last step, a checkpoint every 3
    # steps.  One chain of processes: each dies at the next kill point it
    # has not died at yet, and the next resumes from the newest restart on
    # disk (or starts afresh before the first), so resumed runs are killed
    # at every point too.  After each kill the CSV on disk is a prefix of
    # the uninterrupted CSV that holds every row up to the newest restart;
    # the chain ends with the uninterrupted run's files, byte for byte, and
    # no stray temporary file.
    kw = dict(n=16, adaptive="true", dt0="1e-4", dt_max="4e-4", t_end=1.4e-3,
              snapshot_every=3)
    full = Simulation(spinodal_config(tmp_path, name="full", **kw)).run()
    assert full.steps == 13 and full.rejected_steps == 0
    expected = _files(tmp_path / "full")
    checkpoints = {0, 3, 6, 9, 12, 13}
    assert {n for n in expected if n.startswith("restart_")} == {
        f"restart_{k:08d}.chv" for k in checkpoints}

    out = tmp_path / "chain"
    fresh = spinodal_config(tmp_path, name="chain", **kw)

    def config():
        restart = _newest_restart(out) if out.exists() else None
        if restart is None:
            return fresh
        return dataclasses.replace(fresh, initial=dataclasses.replace(
            fresh.initial, restart_file=str(restart)))

    def run(cfg, point=None):
        def body():
            if point is not None:
                _arm(point)
            Simulation(cfg).run()
        return _in_child(body)

    points = _kill_points(checkpoints, full.steps)
    assert len(points) == 3 * len(checkpoints) + full.steps
    for point in points:
        assert run(config(), point) == KILLED, point
        csv = (out / "diagnostics.csv").read_bytes()
        assert expected["diagnostics.csv"].startswith(csv), point
        restart = _newest_restart(out)
        kept = int(restart.name[8:16]) if restart else 0
        assert csv.count(b"\n") >= kept + 1, point
    assert run(config()) == 0
    assert _files(out).keys() == expected.keys()
    assert _files(out) == expected
