"""Coupled time loop: Stokes -> deformation transport -> Cahn-Hilliard,
with optional Picard sweeps, adaptive step control and file output.

A sweep of :meth:`Simulation.coupled_step` solves the quasi-static
momentum balance with the force of the freshest (mu, F), transports F
with that velocity, then advances phi with the new velocity and F.  The
sweeps approach the fixed point of the fully implicit splitting; they
stop after ``picard_max`` or once the max change across (phi, F, v)
drops below ``picard_tol``.  The first force reads the state alone (its
stored mu carries the delta term over the dt that produced phi_n), so
every attempt at a step shares its solve.  Every Stokes velocity is
admitted as solenoidal where it is solved, so no retry judges a state's
own velocity again; each attempt admits it only by the CFL bound, which
depends on dt.

A state's record (:class:`StateWork`) carries its dt-independent work:
the constitutive pass, the energy and the state's own Stokes solve, the
first solve of a step from it.  It is whole when it is built, and no
step adds to it.  No solver object keeps anything of a step.

:meth:`Simulation.coupled_step` alone decides a step.  It rejects it when
the phase-field Newton fails, a linear solve fails, a field turns
non-finite, a Stokes velocity of the step (the candidate's own too) is
not solenoidal, the advective CFL number exceeds its bound, or the
candidate's energy exceeds the bound it is given.  A rejected step never
touches the accepted state, so a retry reruns identical arithmetic.  The
run loop sets that bound (E_n + ``energy_increase_tol * |E0|``, or
none), and its :class:`~chve.config.StepControl` halves dt on a
rejection and grows it after ``grow_after`` accepted steps in a row; a
restart file carries it.
The run ends once t_end - t is below dt_min (and 1e-14), so no step is
shorter than dt_min.
"""

from __future__ import annotations

import math
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
from .grid import (PreconditionError, ScalarField, SimState, StaggeredVectorField,
                   TensorField)
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
    dissipation: float  # D of the candidate
    budget_residual: float  # (E_new - E_old)/dt + D
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


@dataclass(frozen=True)
class StateWork:
    """The dt-independent work of one state: its constitutive pass, its
    energy and its own admitted Stokes solve (v, q, dv, max|div v|), with
    the force of its stored mu, which the first sweep of every attempt at
    a step from it takes."""
    state: SimState
    fields: StateFields
    energy: EnergyBreakdown
    first_solve: tuple[StaggeredVectorField, ScalarField, VelocityDerivatives, float]


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
        """(v, q, dv, max|div v|) of the Stokes solve with the force of
        (mu, dw/dphi, F) and the f and grad phi of the constitutive pass
        fields.  Raises SolverError if the solve fails or if max|div v|, from
        dv, exceeds the bound of :func:`~chve.operators.solenoidal_residual`."""
        v, q, dv = self.stokes.solve(assemble_force(fields.f, fields.grad_phi, mu,
                                                    dw_dphi, F, self.params))
        div_v, bound = solenoidal_residual(dv)
        if not div_v <= bound:
            raise SolverError(f"div residual {div_v:.3e} > {bound:.3e}")
        return v, q, dv, div_v

    # -- state construction -------------------------------------------------

    def record(self, state: SimState) -> StateWork:
        """The record of state, formed from the state alone.  Raises
        SolverError if its own Stokes solve fails or its velocity is not
        solenoidal."""
        fields = state_fields(state.phi, state.F, self.params)
        return StateWork(state, fields, state_energy(fields, self.params),
                         self._solve(fields, state.mu, fields.dw_dphi, state.F))

    def initial_state(self) -> tuple[StateWork, StepControl, float]:
        """(record, step control, energy scale) to start the run from: the
        state read from the restart file, with dt clamped to [dt_min,
        dt_max] and the scale the file carries, or built from the config,
        with the scale |E0| floored at 1e-30.  A built state's v and q are
        its own Stokes solve.  Raises SolverError if the state's own solve
        fails or its velocity is not solenoidal."""
        cfg = self.cfg
        if cfg.initial.restart_file:
            state, control, e_scale = read_restart(cfg.initial.restart_file)
            if state.phi.grid != self.grid:
                raise ValidationError(f"restart grid {state.phi.grid} does not match "
                                      f"the configured grid {self.grid}")
            dt = min(max(control.dt, cfg.time.dt_min), cfg.time.dt_max)
            return self.record(state), StepControl(dt, control.streak), e_scale
        p = self.params
        phi = initial_phi(cfg)
        F = initial_F(cfg)
        fields = state_fields(phi, F, p)
        mu = static_chemical_potential(phi, fields.dw_dphi, p)
        v, q, _, _ = solved = self._solve(fields, mu, fields.dw_dphi, F)
        work = StateWork(SimState(phi=phi, phi_prev=phi, mu=mu, F=F, v=v, q=q), fields,
                         state_energy(fields, p), solved)
        return work, StepControl(cfg.time.dt0), max(abs(work.energy.total), 1e-30)

    # -- one coupled step ----------------------------------------------------

    def coupled_step(self, work: StateWork, dt: float, energy_bound: float):
        """Advance the state of record work by one step of size dt; returns
        (the candidate's record, StepStats).

        The old level is prepared once, before the first sweep, from the
        constitutive pass of the state; the first sweep takes the state's
        own Stokes solve from work.  Every solve admits its velocity as
        solenoidal (:meth:`_solve`); each sweep then admits it by the CFL
        bound of dt.  A candidate whose energy is within energy_bound gets
        its own Stokes solve.  Raises StepRejected on a failed admission,
        Newton failure, a failed linear solve, a non-finite field or a
        candidate energy above energy_bound; the stats carry the
        candidate's dissipation and energy-budget residual."""
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

        def solve_stokes(fields, mu, dw_dphi, F):
            try:
                return self._solve(fields, mu, dw_dphi, F)
            except SolverError as exc:
                raise StepRejected(f"stokes: {exc}") from exc

        try:
            faces = old_level_faces(F_n, phi_n)
            transport_level = self.transport.prepare(F_n, fields_n.f, dt)
            ch_level = self.ch.prepare(phi_n, state.phi_prev, fields_n.b, dt)

            for sweep in range(1, cfg.coupling.picard_max + 1):
                v, q, dv, div_v = (work.first_solve if sweep == 1
                                   else solve_stokes(fields_n, mu_new, dw_dphi, F_new))
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

            new_state = SimState(phi=phi_new, phi_prev=phi_n, mu=mu_new, F=F_new,
                                 v=v, q=q, t=state.t + dt,
                                 step_index=state.step_index + 1)
            fields = state_fields(phi_new, F_new, p, stretch)
            energy = state_energy(fields, p)
            if energy.total > energy_bound:
                raise StepRejected(f"energy {energy.total:.17g} > {energy_bound:.17g}")
            cand = StateWork(new_state, fields, energy,
                             solve_stokes(fields, mu_new, fields.dw_dphi, F_new))
        except NewtonError as exc:
            raise StepRejected(f"newton: {exc}") from exc
        except SolverError as exc:
            raise StepRejected(f"linear solve: {exc}") from exc
        except PreconditionError as exc:  # a non-finite field
            raise StepRejected(f"precondition: {exc}") from exc

        dissipation, budget = energy_budget(state, new_state, dv, fields, dt,
                                            work.energy.total, energy.total, p)
        stats = StepStats(picard_iters=picard_iters, newton_iters=newton_total,
                          picard_gap=float(change) if np.isfinite(change) else -1.0,
                          div_v_max=div_v, dissipation=dissipation,
                          budget_residual=budget, gmres_iters=gmres_total,
                          cg_iters=cg_total)
        return cand, stats

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
                bound = (work.energy.total + cfg.time.energy_increase_tol * e_scale
                         if cfg.time.reject_on_energy else math.inf)
                try:
                    work, stats = self.coupled_step(work, step_dt, bound)
                except StepRejected:
                    rejected += 1
                    if (halved := control.after(False, cfg.time)) is None:
                        termination = "dt_underflow"
                        break
                    control = halved
                    continue

                accepted += 1
                control = control.after(True, cfg.time)

                state, e = work.state, work.energy
                if state.step_index % cfg.output.diagnostics_every == 0:
                    csv.write(DiagnosticsRow(
                        step=state.step_index, t=state.t, dt=step_dt, E_total=e.total,
                        E_elastic=e.elastic, E_interface=e.interface, E_bulk=e.bulk,
                        dissipation=stats.dissipation, mass=total_mass(state.phi),
                        div_v_max=stats.div_v_max, picard_iters=stats.picard_iters,
                        newton_iters=stats.newton_iters,
                        budget_residual=stats.budget_residual).csv_line() + "\n")
                if (cfg.output.snapshot_every
                        and state.step_index % cfg.output.snapshot_every == 0):
                    checkpoint()
            if written != (work.state.step_index, control):
                checkpoint()
        finally:
            csv.close()

        return RunSummary(
            steps=accepted, rejected_steps=rejected,
            wall_time=_time.perf_counter() - t0,
            final_energy=work.energy.total,
            final_mass=total_mass(work.state.phi),
            termination=termination,
            final_state=work.state,
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
