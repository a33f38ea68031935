"""Snapshot and restart I/O.

Snapshots are VTK legacy ``BINARY`` ``STRUCTURED_POINTS`` files with cell
data: scalars ``phi``, ``mu``, ``q``; vector ``velocity`` (face values
averaged to cell centers, z = 0); tensor ``F`` zero-padded to 3x3.  The
header lines are ASCII; each array follows its header line as big-endian
float64 (``>f8``, lossless), then a newline.  Cell data runs x-fastest,
matching VTK's ordering for point dimensions (nx+1, ny+1, 1).

The restart file is a lossless fixed-layout little-endian dump:

    bytes 0..4   magic b"CHVE1"
    <q           nx, ny
    <d           lx, ly, t, dt
    <q           step_index, accept_streak
    <d           energy_scale  (|E| of the run's initial state, floored at
                                1e-30 so it is > 0; feeds the
                                energy-rejection threshold on resume)
    <d arrays    phi, phi_prev, mu, q        (nx*ny each, C order)
                 F                           (nx*ny*4, C order, (i,j,a,b))
                 u                           ((nx+1)*ny)
                 w                           (nx*(ny+1))

``dt`` and ``accept_streak`` in the header are the run's
:class:`~chve.config.StepControl`: the step size the driver would use next
(after adaptation) and its accept streak, so resuming reproduces the
uninterrupted run bit for bit.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .config import StepControl
from .errors import ValidationError
from .grid import (GridSpec, PreconditionError, ScalarField, SimState,
                   StaggeredVectorField, TensorField)

MAGIC = b"CHVE1"
# magic, nx, ny, lx, ly, t, dt, step_index, accept_streak, energy_scale
_HEADER = struct.Struct("<5sqqddddqqd")


def write_vtk(path: str | Path, state: SimState):
    """Write the binary snapshot of ``state``; layout in the module docstring."""
    g = state.phi.grid
    nx, ny = g.nx, g.ny
    velocity = np.zeros((nx, ny, 3))
    velocity[..., 0] = 0.5 * (state.v.u[1:, :] + state.v.u[:-1, :])
    velocity[..., 1] = 0.5 * (state.v.w[:, 1:] + state.v.w[:, :-1])
    F = np.zeros((nx, ny, 3, 3))
    F[..., :2, :2] = state.F.comps

    header = "\n".join([
        "# vtk DataFile Version 3.0",
        f"chve snapshot step={state.step_index} t={state.t:.17g}",
        "BINARY",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx + 1} {ny + 1} 1",
        "ORIGIN 0 0 0",
        f"SPACING {g.hx:.17g} {g.hy:.17g} 1",
        f"CELL_DATA {nx * ny}",
    ])
    blocks = [(f"SCALARS {name} double 1\nLOOKUP_TABLE default", fld.values)
              for name, fld in (("phi", state.phi), ("mu", state.mu), ("q", state.q))]
    blocks += [("VECTORS velocity double", velocity), ("TENSORS F double", F)]

    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for line, a in blocks:
            fh.write(line.encode("ascii") + b"\n")
            # (nx, ny, ...) -> (ny, nx, ...) in C order: x runs fastest
            fh.write(np.ascontiguousarray(np.swapaxes(a, 0, 1), dtype=">f8").tobytes())
            fh.write(b"\n")


def write_restart(path: str | Path, state: SimState, control: StepControl,
                  energy_scale: float):
    """Write the restart file of ``state`` and the step control that
    continues from it, atomically: the bytes go to a temporary file in
    the same directory, which then replaces ``path``, so a crash mid-write
    leaves any previous file at ``path`` intact."""
    path = Path(path)
    g = state.phi.grid
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, g.nx, g.ny, g.lx, g.ly, state.t, control.dt,
                                  state.step_index, control.streak, energy_scale))
            for arr in (state.phi.values, state.phi_prev.values, state.mu.values,
                        state.q.values, state.F.comps, state.v.u, state.v.w):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_restart(path: str | Path) -> tuple[SimState, StepControl, float]:
    """Load a restart file as (state, step control, energy scale); raises
    ValidationError on a file that cannot be read, a wrong magic, a
    truncated file, trailing bytes or a header value out of range."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read restart file: "
                              f"{exc.strerror or exc}") from exc
    if raw[:5] != MAGIC:
        raise ValidationError(f"{path}: not a restart file (bad magic)")
    if len(raw) < _HEADER.size:
        raise ValidationError(f"{path}: truncated restart header "
                              f"({len(raw)} of {_HEADER.size} bytes)")
    _, nx, ny, lx, ly, t, dt, step_index, streak, energy_scale = _HEADER.unpack_from(raw)
    try:
        g = GridSpec(nx, ny, lx, ly)
    except PreconditionError as exc:
        raise ValidationError(f"{path}: bad grid in restart header: {exc}") from exc
    if not (0.0 <= t < np.inf and 0.0 < dt < np.inf and 0.0 < energy_scale < np.inf
            and step_index >= 0 and streak >= 0):  # NaN fails every comparison
        raise ValidationError(f"{path}: restart header needs finite t >= 0, dt > 0, "
                              "energy_scale > 0 and step_index, accept_streak >= 0")
    # phi, phi_prev, mu, q, F, u, w: the arrays in file order
    shapes = [(nx, ny)] * 4 + [(nx, ny, 2, 2), (nx + 1, ny), (nx, ny + 1)]
    sizes = [int(np.prod(s)) for s in shapes]
    expected = _HEADER.size + 8 * sum(sizes)
    if len(raw) < expected:
        raise ValidationError(f"{path}: truncated restart file "
                              f"({len(raw)} of {expected} bytes for {nx} x {ny})")
    if len(raw) > expected:
        raise ValidationError(f"{path}: trailing bytes in restart file")
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    phi, phi_prev, mu, q, F, u, w = (
        a.reshape(s).copy() for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes))
    state = SimState(phi=ScalarField(g, phi), phi_prev=ScalarField(g, phi_prev),
                     mu=ScalarField(g, mu), F=TensorField(g, F),
                     v=StaggeredVectorField(g, u, w), q=ScalarField(g, q),
                     t=t, step_index=step_index)
    return state, StepControl(dt, streak), energy_scale
