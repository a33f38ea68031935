"""Coupled time loop: Stokes -> deformation transport -> Cahn-Hilliard,
with optional Picard sweeps, adaptive step control and file output.

One sweep of :meth:`Simulation.coupled_step` solves the quasi-static
momentum balance with forcing assembled from the freshest available
(mu, F), admits the velocity (div v within the solenoidal bound, then
CFL; nothing downstream measures it again), transports F with it, then
advances the phase field with the new velocity and the new F.  Repeating
the sweep while refreshing mu and F tightens the coupling to a fixed
point of the fully implicit splitting; the sweep count is capped by
``picard_max`` and terminated early when the max change across
(phi, F, v) drops below ``picard_tol``.

A state's dt-independent work travels with it in its record
(:class:`StateWork`): the state, its constitutive pass
(:class:`~chve.diagnostics.StateFields`), the derivative pass of its
velocity where a solve made it and, once made, the first Stokes solve of
a step from it.  The first force reads the state alone (f, grad phi,
dw/dphi, F_n and the stored mu: the last step's Cahn-Hilliard mu, whose
delta term is over the dt that produced phi_n), so every attempt at a
step shares that solve.

Advection is explicit in the old level (phi_n, F_n), so the upwind face
candidates (:func:`old_level_faces`) and the transport and Cahn-Hilliard
levels are prepared once per attempt; a sweep redoes only what its
velocity changes: one advection of all five fields
(:func:`sweep_advection`), the transport step, the stretch and dw/dphi
at its new F (one call of the constitutive law, with f'(phi_n)) and the
Cahn-Hilliard step.  Every sweep after the first warm-starts its
transport CG and its Newton from the previous sweep's.  No solver object
keeps anything of a step.

Step control: a step is rejected when the phase-field Newton fails, a
linear solve fails, a field turns non-finite, the velocity is not
solenoidal, the advective CFL number exceeds its bound, or the total
energy increases past ``energy_increase_tol * |E0|``.  The run's
:class:`~chve.config.StepControl` (the next dt and the accept streak)
then halves dt, and grows it after ``grow_after`` accepted steps in a
row; a restart file carries it.  A rejected step never touches the
accepted state, so a retry reruns identical arithmetic.  The run ends once
t_end - t is below dt_min (and 1e-14), so no step is shorter than dt_min.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import constitutive as law
from .cahn_hilliard import CHSystem, static_chemical_potential
from .config import ConfigSpec, StepControl, dump_config
from .diagnostics import (DiagnosticsRow, EnergyBreakdown, StateFields, energy_budget,
                          state_energy, state_fields, total_mass)
from .errors import NewtonError, SolverError, ValidationError
from .grid import (ModelParams, PreconditionError, ScalarField, SimState,
                   StaggeredVectorField, TensorField)
from .operators import (VelocityDerivatives, advect_upwind, laplacian_matrix,
                        solenoidal_residual, upwind_candidates)
from .stokes import StokesSolver, assemble_force
from .transport import TransportSystem
from .vtk_io import read_restart, write_restart, write_vtk


class StepRejected(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class StepStats:
    picard_iters: int
    newton_iters: int
    picard_gap: float  # max change across (phi, F, v) in the last sweep
    div_v_max: float  # max|div v| of the accepted velocity
    gmres_iters: int  # GMRES iterations of every Cahn-Hilliard Newton update
    cg_iters: int  # transport CG iterations over all sweeps


@dataclass(frozen=True)
class RunSummary:
    steps: int
    rejected_steps: int
    wall_time: float
    final_energy: float
    final_mass: float
    termination: str
    final_state: SimState


def initial_phi(cfg: ConfigSpec) -> ScalarField:
    g, ini = cfg.grid, cfg.initial
    if ini.phi == "uniform":
        vals = np.full((g.nx, g.ny), ini.phi_value)
    elif ini.phi == "random-uniform":
        rng = np.random.default_rng(ini.seed)
        vals = ini.phi_value + rng.uniform(-ini.phi_amplitude, ini.phi_amplitude,
                                           (g.nx, g.ny))
        # one smoothing pass (reflected stencil conserves the cell sum)
        p = np.pad(vals, 1, mode="edge")
        vals = vals + 0.125 * ((p[:-2, 1:-1] - 2 * vals + p[2:, 1:-1])
                               + (p[1:-1, :-2] - 2 * vals + p[1:-1, 2:]))
    elif ini.phi == "tanh-x":
        X, _ = g.cell_centers()
        vals = ini.phi_value + ini.phi_amplitude * np.tanh(
            (X - 0.5 * g.lx) / ini.phi_width)
    else:  # "tanh-y", the last profile InitialConfig admits
        _, Y = g.cell_centers()
        vals = ini.phi_value + ini.phi_amplitude * np.tanh(
            (Y - 0.5 * g.ly) / ini.phi_width)
    return ScalarField(g, vals)


def initial_F(cfg: ConfigSpec) -> TensorField:
    """F0 = I + F_amplitude cos(pi x / lx) e1 (x) e1, the identity at amplitude 0."""
    g = cfg.grid
    x = (np.arange(g.nx) + 0.5) * g.hx  # the cell centers' x, as in cell_centers()
    c = np.zeros((g.nx, g.ny, 2, 2))
    c[..., 0, 0] = (1.0 + cfg.initial.F_amplitude * np.cos(np.pi * x / g.lx))[:, None]
    c[..., 1, 1] = 1.0
    return TensorField(g, c)


def old_level_faces(F_n: TensorField, phi_n: ScalarField):
    """The upwind face candidates (:func:`chve.operators.upwind_candidates`)
    of the cell fields one velocity carries through a step: the d^2
    components of F_n, then phi_n, stacked (nx, ny, d^2 + 1).  The x-face
    pair covers all nx + 1 faces, (nx + 1, ny, d^2 + 1); the y-face pair
    all ny + 1 faces, formed on the stack's transpose, (ny + 1, nx, d^2 + 1)."""
    nx, ny = phi_n.values.shape
    return upwind_candidates(np.concatenate(
        (F_n.comps.reshape(nx, ny, -1), phi_n.values[..., None]), axis=2))


def sweep_advection(v: StaggeredVectorField, faces, d: int):
    """(advect(v, F_n), advect(v, phi_n)) from :func:`old_level_faces`, in
    one selection, flux and divergence for all components, each bitwise
    equal to advect_tensor and advect_scalar.  Raises PreconditionError if
    the result is not finite."""
    adv = advect_upwind(v, faces)
    if not np.isfinite(adv).all():
        raise PreconditionError("advection term is not finite")
    nx, ny = adv.shape[:2]
    return adv[..., :-1].reshape(nx, ny, d, d), adv[..., -1]


@dataclass
class StateWork:
    """The dt-independent work of one state: its constitutive pass, the
    derivative pass of its velocity where a solve made it (None for a
    state read back; only a candidate's is read, by its diagnostics row)
    and, once solved, the first Stokes solve (v, q, dv) of a step from it,
    which every attempt at that step shares (see the module docstring)."""
    state: SimState
    fields: StateFields
    dv: VelocityDerivatives | None
    first_solve: tuple[StaggeredVectorField, ScalarField, VelocityDerivatives] | None = None

    @classmethod
    def of(cls, state: SimState, params: ModelParams) -> StateWork:
        """The record of a state the run did not make, formed from the
        state alone."""
        return cls(state, state_fields(state.phi, state.F, params), None)


class Simulation:
    """Owns the per-run solver instances and the output writers.  The
    transport and Cahn-Hilliard systems share one zero-flux Laplacian."""

    def __init__(self, cfg: ConfigSpec):
        self.cfg = cfg
        self.grid = cfg.grid
        self.params = cfg.params
        self.stokes = StokesSolver(self.grid, cfg.params.nu)
        L = laplacian_matrix(self.grid)
        self.transport = TransportSystem(self.grid, cfg.params, L)
        self.ch = CHSystem(self.grid, cfg.params, L)

    def _solve(self, fields: StateFields, mu: ScalarField, dw_dphi: np.ndarray,
               F: TensorField):
        """(v, q, dv) of the Stokes solve with the force of (mu, dw/dphi, F)
        and the f and grad phi of the constitutive pass fields."""
        return self.stokes.solve(assemble_force(fields.f, fields.grad_phi, mu,
                                                dw_dphi, F, self.params))

    # -- state construction -------------------------------------------------

    def initial_state(self) -> tuple[StateWork, StepControl, float | None]:
        """(record, step control, energy scale) to start the run from: the
        state read from the restart file, with dt clamped to [dt_min,
        dt_max], or built from the config, with no energy scale yet (the
        run takes |E0|).  A built state's record holds its Stokes solve as
        the first solve of step 1."""
        cfg = self.cfg
        if cfg.initial.restart_file:
            state, control, e_scale = read_restart(cfg.initial.restart_file)
            if state.phi.grid != self.grid:
                raise ValidationError(f"restart grid {state.phi.grid} does not match "
                                      f"the configured grid {self.grid}")
            dt = min(max(control.dt, cfg.time.dt_min), cfg.time.dt_max)
            return (StateWork.of(state, self.params), StepControl(dt, control.streak),
                    e_scale)
        p = self.params
        phi = initial_phi(cfg)
        F = initial_F(cfg)
        fields = state_fields(phi, F, p)
        mu = static_chemical_potential(phi, fields.dw_dphi, p)
        v, q, dv = solved = self._solve(fields, mu, fields.dw_dphi, F)
        state = SimState(phi=phi, phi_prev=phi, mu=mu, F=F, v=v, q=q)
        return StateWork(state, fields, dv, solved), StepControl(cfg.time.dt0), None

    # -- one coupled step ----------------------------------------------------

    def coupled_step(self, work: StateWork, dt: float):
        """Advance the state of record work by one step of size dt; returns
        (the candidate's record, StepStats).

        The old level is prepared once, before the first sweep, from the
        constitutive pass of the state; the first sweep takes the state's
        first Stokes solve, made here and put on work when it is not yet
        there.  Each sweep admits its Stokes velocity here and only here,
        from its derivative pass: div v within the solenoidal bound, then
        CFL.  Raises StepRejected on either
        failure, Newton failure, a failed linear solve or a non-finite
        field."""
        cfg = self.cfg
        p = self.params
        g = self.grid
        state, fields_n = work.state, work.fields
        phi_n, F_n = state.phi, state.F
        solved = None  # the last sweep's transport CG pair (G, b)
        ch_start = None  # the last sweep's (phi, mu, dw/dphi)
        prev = None
        newton_total = gmres_total = cg_total = 0
        picard_iters = 0

        def solve_stokes(mu, dw_dphi, F):
            try:
                return self._solve(fields_n, mu, dw_dphi, F)
            except SolverError as exc:
                raise StepRejected(f"stokes: {exc}") from exc

        try:
            faces = old_level_faces(F_n, phi_n)
            transport_level = self.transport.prepare(F_n, fields_n.f, dt)
            ch_level = self.ch.prepare(phi_n, state.phi_prev, fields_n.b, dt)
            if work.first_solve is None:
                work.first_solve = solve_stokes(state.mu, fields_n.dw_dphi, F_n)

            for sweep in range(1, cfg.coupling.picard_max + 1):
                v, q, dv = (work.first_solve if sweep == 1
                            else solve_stokes(mu_new, dw_dphi, F_new))
                div_v, div_bound = solenoidal_residual(dv)
                if not div_v <= div_bound:
                    raise StepRejected(f"div residual {div_v:.3e} > {div_bound:.3e}")
                cfl = dt * (dv.u_max / g.hx + dv.w_max / g.hy)
                if cfl > cfg.time.cfl_max:
                    raise StepRejected(f"cfl {cfl:.3f} > {cfg.time.cfl_max}")

                adv_F, adv_phi = sweep_advection(v, faces, F_n.d)
                F_new, solved, n_cg = self.transport.step(transport_level, dv, adv_F,
                                                          start=solved)
                stretch, dw_dphi = law.elastic_response(fields_n.f_prime, F_new.comps, p)
                phi_new, mu_new, n_newton, n_gmres = self.ch.step(
                    ch_level, dw_dphi, adv_phi, start=ch_start)
                ch_start = (phi_new, mu_new, dw_dphi)
                newton_total += n_newton
                gmres_total += n_gmres
                cg_total += n_cg
                picard_iters = sweep

                if prev is not None:
                    change = max(
                        float(np.max(np.abs(phi_new.values - prev[0].values))),
                        float(np.max(np.abs(F_new.comps - prev[1].comps))),
                        float(np.max(np.abs(v.u - prev[2].u))),
                        float(np.max(np.abs(v.w - prev[2].w))),
                    )
                else:
                    change = np.inf
                prev = (phi_new, F_new, v)
                if change <= cfg.coupling.picard_tol:
                    break
        except NewtonError as exc:
            raise StepRejected(f"newton: {exc}") from exc
        except SolverError as exc:
            raise StepRejected(f"linear solve: {exc}") from exc
        except PreconditionError as exc:  # a non-finite field
            raise StepRejected(f"precondition: {exc}") from exc

        new_state = SimState(phi=phi_new, phi_prev=phi_n, mu=mu_new, F=F_new,
                             v=v, q=q, t=state.t + dt,
                             step_index=state.step_index + 1)
        stats = StepStats(picard_iters=picard_iters, newton_iters=newton_total,
                          picard_gap=float(change) if np.isfinite(change) else -1.0,
                          div_v_max=div_v, gmres_iters=gmres_total, cg_iters=cg_total)
        return StateWork(new_state, state_fields(phi_new, F_new, p, stretch), dv), stats

    # -- the run loop ----------------------------------------------------------

    def run(self) -> RunSummary:
        cfg = self.cfg
        t0 = _time.perf_counter()
        outdir = Path(cfg.output.directory)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {outdir}: {exc}") from exc

        work, control, e_scale = self.initial_state()
        e_prev = state_energy(work.fields, self.params).total
        if e_scale is None:  # a fresh run; a restart carries its scale
            e_scale = max(abs(e_prev), 1e-30)
        rejected = 0
        accepted = 0
        termination = "t_end"

        (outdir / "run_config.ini").write_text(dump_config(cfg), encoding="utf-8")
        csv_path = outdir / "diagnostics.csv"
        fresh = work.state.step_index == 0
        if not fresh:
            _keep_csv_rows_through(csv_path, work.state.step_index)
        written = None  # (step, step control) of the last checkpoint

        def checkpoint():
            """Snapshot and restart of the current state; the restart carries
            the step control and the energy scale."""
            nonlocal written
            state = work.state
            written = (state.step_index, control)
            csv.flush()  # rows up to a restart reach the file before it
            write_vtk(outdir / f"snap_{state.step_index:08d}.vtk", state)
            write_restart(outdir / f"restart_{state.step_index:08d}.chv",
                          state, control, e_scale)

        csv = open(csv_path, "w" if fresh else "a", encoding="utf-8", newline="\n")
        try:
            if fresh:
                csv.write(DiagnosticsRow.CSV_HEADER + "\n")
                checkpoint()

            while True:
                if cfg.time.t_end - work.state.t < max(cfg.time.dt_min, 1e-14):
                    termination = "t_end"
                    break
                if accepted >= cfg.time.max_steps:
                    termination = "max_steps"
                    break
                step_dt = min(control.dt, cfg.time.t_end - work.state.t)
                try:
                    cand, stats = self.coupled_step(work, step_dt)
                    eb_new = state_energy(cand.fields, self.params)
                    e_new = eb_new.total
                    bound = e_prev + cfg.time.energy_increase_tol * e_scale
                    if cfg.time.reject_on_energy and e_new > bound:
                        raise StepRejected(f"energy {e_new:.17g} > {bound:.17g}")
                except StepRejected:
                    rejected += 1
                    if (halved := control.after(False, cfg.time)) is None:
                        termination = "dt_underflow"
                        break
                    control = halved
                    continue

                row = self._diagnostics_row(work.state, cand, step_dt, stats,
                                            e_prev, eb_new)
                work = cand
                e_prev = e_new
                accepted += 1
                control = control.after(True, cfg.time)

                if work.state.step_index % cfg.output.diagnostics_every == 0:
                    csv.write(row.csv_line() + "\n")
                if (cfg.output.snapshot_every
                        and work.state.step_index % cfg.output.snapshot_every == 0):
                    checkpoint()
            if written != (work.state.step_index, control):
                checkpoint()
        finally:
            csv.close()

        return RunSummary(
            steps=accepted, rejected_steps=rejected,
            wall_time=_time.perf_counter() - t0,
            final_energy=e_prev,
            final_mass=total_mass(work.state.phi),
            termination=termination,
            final_state=work.state,
        )

    def _diagnostics_row(self, state_n: SimState, cand: StateWork, dt: float,
                         stats: StepStats, e_old: float,
                         eb: EnergyBreakdown) -> DiagnosticsRow:
        """Row for an accepted step from state_n to the candidate of record
        cand: the step's stats, the energies e_old, eb of state_n and the
        candidate, and the candidate's constitutive and derivative passes."""
        state_np1 = cand.state
        dnew, budget = energy_budget(state_n, state_np1, cand.dv, cand.fields,
                                     dt, e_old, eb.total, self.params)
        return DiagnosticsRow(
            step=state_np1.step_index, t=state_np1.t, dt=dt,
            E_total=eb.total, E_elastic=eb.elastic, E_interface=eb.interface,
            E_bulk=eb.bulk, dissipation=dnew, mass=total_mass(state_np1.phi),
            div_v_max=stats.div_v_max,
            picard_iters=stats.picard_iters, newton_iters=stats.newton_iters,
            budget_residual=budget,
        )


def _keep_csv_rows_through(path: Path, step: int):
    """Cut an existing diagnostics CSV down to its header and its complete
    data rows with step <= step, the rows before the restart at `step`, so
    that a resumed run appends no step twice.  The cut file is written to a
    temporary file in the same directory, which then replaces ``path``, so
    a crash at any point leaves either the old file or the cut one."""
    lines = (path.read_text(encoding="utf-8").splitlines(keepends=True)
             if path.exists() else [])
    kept = [DiagnosticsRow.CSV_HEADER + "\n"]
    for line in lines:
        head = line.split(",", 1)[0]
        if line.endswith("\n") and head.isdigit() and int(head) <= step:
            kept.append(line)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(kept)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
