"""In-memory span tracing of chve from outside the package.

A :class:`Tracer` replaces the public entry points of each ``chve`` module
with timing wrappers while it is installed, and restores them on exit.
Every call becomes a span ``(name, start, end, parent, attrs)``; the parent
is the span that was open when the call started, so a layer's self time is
its span durations minus the part covered by child spans.

The driver binds its imports by name (``from .stokes import
assemble_force``), as do ``transport`` and ``cahn_hilliard`` for the
operator functions, so a function is patched in every ``chve`` module that
holds it, not only in the module that defines it.  ``splu`` is patched on
``scipy.sparse.linalg``, which is where the chve modules look it up, and each
factorization is charged to the layer of its parent span.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from chve import (cahn_hilliard, config, diagnostics, driver, operators,
                  stokes, transport, vtk_io)

# (class, method, span name)
METHODS = [
    (driver.Simulation, "__init__", "setup.simulation_init"),
    (driver.Simulation, "run", "driver.run"),
    (driver.Simulation, "initial_state", "driver.initial_state"),
    (driver.Simulation, "coupled_step", "driver.coupled_step"),
    (stokes.StokesSolver, "solve", "stokes.solve"),
    (transport.TransportSystem, "step", "transport.step"),
    (cahn_hilliard.CHSystem, "step", "cahn_hilliard.step"),
]

# (defining module, function); the span is named "<module>.<function>"
FUNCTIONS = [
    (config, "parse_config"),
    (stokes, "assemble_force"),
    (cahn_hilliard, "static_chemical_potential"),
    (operators, "advect_scalar"),
    (operators, "advect_tensor"),
    (operators, "velocity_gradient"),
    (operators, "laplacian_matrix"),
    (diagnostics, "total_energy"),
    (diagnostics, "dissipation"),
    (vtk_io, "write_vtk"),
    (vtk_io, "write_restart"),
]

LU_SPAN = "scipy.splu"
# Layers whose factor size is reported; L and U are counted after the timed
# run, because building them copies the whole factor.
NNZ_LAYERS = ("stokes",)
LAYERS = ("driver", "stokes", "transport", "cahn_hilliard", "operators",
          "diagnostics", "vtk_io")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _newton_iters(span, args, result):
    span.attrs["newton_iters"] = result[2]


class Tracer:
    """Collects spans while installed as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = Span(name, tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def parent_layer(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].layer

    def _keep_factor(self, span, args, result):
        if self.parent_layer(span) in NNZ_LAYERS:
            span.attrs["factor"] = result

    def count_factor_nnz(self):
        """Replace each kept factor by ``L.nnz + U.nnz``; call after timing."""
        for span in self.spans:
            lu = span.attrs.pop("factor", None)
            if lu is not None:
                span.attrs["nnz"] = int(lu.L.nnz + lu.U.nnz)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        after = {"vtk_io.write_vtk": _file_bytes, "vtk_io.write_restart": _file_bytes,
                 "cahn_hilliard.step": _newton_iters}
        for cls, meth, name in METHODS:
            self._patch(cls, meth, self.wrap(name, getattr(cls, meth), after.get(name)))
        chve_modules = [m for k, m in sys.modules.items()
                        if k == "chve" or k.startswith("chve.")]
        for mod, fname in FUNCTIONS:
            orig = getattr(mod, fname)
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
            wrapped = self.wrap(name, orig, after.get(name))
            for ns in chve_modules:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, attr, wrapped)
        self._patch(spla, "splu", self.wrap(LU_SPAN, spla.splu, self._keep_factor))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    # -- derived metrics ------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.attrs} for s in self.spans]

    def layer_metrics(self, steps_accepted: int, steps_rejected: int,
                      picard_sweeps: int) -> dict[str, float]:
        """Per-layer numbers of one traced run, keyed by metric name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, list[Span]] = {}
        lu: dict[str, list[Span]] = {}
        for i, s in enumerate(self.spans):
            if s.layer in self_s:
                self_s[s.layer] += s.duration - child_time[i]
            by_name.setdefault(s.name, []).append(s)
            if s.name == LU_SPAN:
                lu.setdefault(self.parent_layer(s), []).append(s)

        def calls(name):
            return len(by_name.get(name, []))

        def total(name):
            return sum(s.duration for s in by_name.get(name, []))

        def p50_ms(name):
            d = [s.duration for s in by_name.get(name, [])]
            return 1e3 * statistics.median(d) if d else 0.0

        def attr_sum(spans, key):
            return sum(s.attrs.get(key, 0) for s in spans)

        def per(a, b):
            return a / b if b else 0.0

        m = {
            "driver.coupled_step.s": total("driver.coupled_step"),
            "driver.coupled_step.ms_p50": p50_ms("driver.coupled_step"),
            "driver.picard_sweeps_per_step": per(picard_sweeps, steps_accepted),
            "driver.steps_accepted": steps_accepted,
            "driver.steps_rejected": steps_rejected,
            "stokes.assemble_force.s": total("stokes.assemble_force"),
            "stokes.solve.calls": calls("stokes.solve"),
            "stokes.solve.s": total("stokes.solve"),
            "stokes.solve.ms_p50": p50_ms("stokes.solve"),
            "stokes.solve.first_s": (by_name["stokes.solve"][0].duration
                                     if calls("stokes.solve") else 0.0),
            "stokes.lu.nnz": attr_sum(lu.get("stokes", []), "nnz"),
            "cahn_hilliard.newton_iters": attr_sum(by_name.get("cahn_hilliard.step", []),
                                                   "newton_iters"),
            "cahn_hilliard.static_chemical_potential.s":
                total("cahn_hilliard.static_chemical_potential"),
            "operators.advect_scalar.s": total("operators.advect_scalar"),
            "operators.advect_tensor.s": total("operators.advect_tensor"),
            "operators.velocity_gradient.s": total("operators.velocity_gradient"),
            "operators.laplacian_matrix.calls": calls("operators.laplacian_matrix"),
            "operators.laplacian_matrix.s": total("operators.laplacian_matrix"),
            "diagnostics.total_energy.calls_per_step":
                per(calls("diagnostics.total_energy"), steps_accepted),
            "diagnostics.total_energy.s": total("diagnostics.total_energy"),
            "diagnostics.dissipation.s": total("diagnostics.dissipation"),
            "config.parse_config.s": total("config.parse_config"),
            "setup.simulation_init.s": total("setup.simulation_init"),
        }
        for layer in ("cahn_hilliard", "transport"):
            step = f"{layer}.step"
            m[f"{step}.calls"] = calls(step)
            m[f"{step}.s"] = total(step)
            m[f"{step}.ms_p50"] = p50_ms(step)
        for layer in ("stokes", "cahn_hilliard", "transport"):
            m[f"{layer}.lu.calls"] = len(lu.get(layer, []))
            m[f"{layer}.lu.s"] = sum(s.duration for s in lu.get(layer, []))
        m["cahn_hilliard.newton_per_call"] = per(m["cahn_hilliard.newton_iters"],
                                                 m["cahn_hilliard.step.calls"])
        m["cahn_hilliard.lu_per_call"] = per(m["cahn_hilliard.lu.calls"],
                                             m["cahn_hilliard.step.calls"])
        for fn in ("write_vtk", "write_restart"):
            spans = by_name.get(f"vtk_io.{fn}", [])
            m[f"vtk_io.{fn}.calls"] = len(spans)
            m[f"vtk_io.{fn}.s"] = total(f"vtk_io.{fn}")
            m[f"vtk_io.{fn}.bytes"] = attr_sum(spans, "bytes")
        for layer, value in self_s.items():
            m[f"{layer}.self_s"] = value
        return m
