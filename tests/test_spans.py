"""The entry points that perfbench/spans.py traces must exist under the
names it patches, so a refactor that renames one fails here rather than in
a traced benchmark run.  spans.py is read as it is, never edited."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from chve import constitutive as law
from chve import driver, krylov, stokes
from chve.cahn_hilliard import CHSystem
from chve.diagnostics import state_fields
from chve.driver import Simulation
from chve.grid import ModelParams, ScalarField, TensorField
from chve.operators import laplacian_matrix

from test_driver import spinodal_config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    name = "perfbench_spans"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, SPANS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_every_traced_name_exists():
    spans = _spans()
    for cls, meth, _ in spans.METHODS:
        assert callable(getattr(cls, meth, None)), (cls.__name__, meth)
    for mod, fname in spans.FUNCTIONS:
        assert callable(getattr(mod, fname, None)), (mod.__name__, fname)
    # the tracer patches a function in every module that holds it; the
    # force is traced where the driver calls it
    assert driver.assemble_force is stokes.assemble_force


def test_ch_step_result_2_is_the_newton_count(grid16, rng, monkeypatch):
    # spans.py reads the Newton count of a CH step as result[2]; each
    # Newton update makes one GMRES call
    updates = []
    real = krylov.gmres
    monkeypatch.setattr(krylov, "gmres",
                        lambda *a, **kw: updates.append(1) or real(*a, **kw))
    params = ModelParams(eps=0.05, b0=0.1, b1=0.1, c_elastic=0.25)
    phi = ScalarField(grid16, rng.uniform(-0.5, 0.5, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.1 * rng.standard_normal((16, 16, 2, 2)))
    system = CHSystem(grid16, params, laplacian_matrix(grid16))
    result = system.step(system.prepare(phi, phi, law.mobility_b(phi.values, params), 1e-3),
                         state_fields(phi, F, params).dw_dphi, np.zeros((16, 16)))
    assert isinstance(result[2], int)
    assert result[2] == len(updates) >= 2


def test_tracer_records_the_layer_spans_of_a_step(tmp_path):
    spans = _spans()
    sim = Simulation(spinodal_config(tmp_path))
    work, _, _ = sim.initial_state()
    with spans.Tracer() as tracer:
        sim.coupled_step(work, 1e-4, math.inf)
    names = {s.name for s in tracer.spans}
    assert {"driver.coupled_step", "stokes.assemble_force", "stokes.solve",
            "transport.step", "cahn_hilliard.step"} <= names
    # the first force reads the stored mu; only the initial state builds one
    assert "cahn_hilliard.static_chemical_potential" not in names
    newton = [s.attrs["newton_iters"] for s in tracer.spans
              if s.name == "cahn_hilliard.step"]
    assert newton and all(isinstance(n, int) and n >= 1 for n in newton)
