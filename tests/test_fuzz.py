"""A seeded fuzz of valid configs: every run ends with a termination reason,
conserves mass, keeps every accepted velocity solenoidal and writes a final
snapshot and a restart that reads back as its final state."""

import numpy as np
import pytest

from chve.config import parse_config
from chve.diagnostics import total_mass
from chve.driver import Simulation
from chve.operators import solenoidal_residual, velocity_derivatives
from chve.vtk_io import read_restart

from test_driver import csv_rows

PROFILES = ("uniform", "random-uniform", "tanh-x", "tanh-y")
CASES = 20


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _draw(rng, k: int) -> str:
    """Config text of case k, its output directory left as {out}.  Each
    ModelParams number is log-uniform over a few decades inside its
    validated bounds (b1 over b0 and the stiffness window's width too);
    case k takes the k-th phi profile in turn."""
    lu = lambda lo, hi: _log_uniform(rng, lo, hi)  # noqa: E731
    b0 = lu(1e-2, 1e1)
    f_lo = rng.uniform(-1.0, 0.5)
    dt0 = lu(1e-6, 1e-1)
    return f"""
[grid]
nx = {rng.integers(4, 13)}
ny = {rng.integers(4, 13)}
lx = {lu(0.5, 2.0)!r}
ly = {lu(0.5, 2.0)!r}

[params]
nu = {lu(1e-6, 1e2)!r}
lambda = {lu(1e-4, 1e1)!r}
delta = {lu(1e-4, 1.0)!r}
eps = {lu(1e-3, 1.0)!r}
c_elastic = {lu(1e-2, 1e3)!r}
f_min = {lu(1e-3, 1.0)!r}
b0 = {b0!r}
b1 = {b0 * lu(1.0, 1e2)!r}
f_window_lo = {f_lo!r}
f_window_hi = {f_lo + lu(1e-2, 2.0)!r}

[time]
t_end = {8 * dt0!r}
dt0 = {dt0!r}
dt_max = {dt0 * lu(1.0, 10.0)!r}
adaptive = {str(bool(rng.integers(2))).lower()}
max_steps = 50

[coupling]
picard_max = {rng.integers(1, 5)}
picard_tol = {lu(1e-10, 1e-4)!r}

[initial]
phi = {PROFILES[k % len(PROFILES)]}
phi_value = {rng.uniform(-0.6, 0.6)!r}
phi_amplitude = {rng.uniform(0.0, 0.4)!r}
phi_width = {lu(0.02, 0.5)!r}
seed = {rng.integers(1000)}
F_amplitude = {rng.uniform(-2.0, 2.0)!r}

[output]
directory = {{out}}
snapshot_every = {rng.integers(6)}
"""


_RNG = np.random.default_rng(20261021)
DRAWN = [_draw(_RNG, k) for k in range(CASES)]


class _Recording(Simulation):
    """Keeps the last candidate state of each step index: the accepted one
    for every step the CSV has a row of."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.candidates = {}

    def coupled_step(self, work, dt):
        cand, stats = super().coupled_step(work, dt)
        self.candidates[cand.state.step_index] = cand.state
        return cand, stats


@pytest.mark.parametrize("k", range(CASES))
def test_valid_config_runs_to_a_reason(tmp_path, k):
    cfg = parse_config(DRAWN[k].replace("{out}", str(tmp_path / "out")))
    sim = _Recording(cfg)
    summary = sim.run()
    assert summary.termination in ("t_end", "max_steps", "dt_underflow")

    out = tmp_path / "out"
    initial, _, _ = read_restart(out / "restart_00000000.chv")
    mass0 = total_mass(initial.phi)
    rows = csv_rows(out)
    assert [r.step for r in rows] == list(range(1, summary.steps + 1))
    area = cfg.grid.lx * cfg.grid.ly
    for row in rows:
        assert abs(row.mass - mass0) <= 1e-10 * area, row.step
        div, bound = solenoidal_residual(velocity_derivatives(sim.candidates[row.step].v))
        assert row.div_v_max == div <= bound, row.step

    final = summary.final_state
    assert final.step_index == summary.steps
    assert (out / f"snap_{final.step_index:08d}.vtk").is_file()
    state, _, _ = read_restart(out / f"restart_{final.step_index:08d}.chv")
    assert (state.t, state.step_index) == (final.t, final.step_index)
    for name in ("phi", "phi_prev", "mu", "q"):
        assert np.array_equal(getattr(state, name).values, getattr(final, name).values)
    assert np.array_equal(state.F.comps, final.F.comps)
    assert np.array_equal(state.v.u, final.v.u) and np.array_equal(state.v.w, final.v.w)


def test_the_draw_covers_every_profile():
    assert {parse_config(text).initial.phi for text in DRAWN} == set(PROFILES)
