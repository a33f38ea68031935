"""Smoke runs of the benchmark harness on its smallest workload.

``perfbench/run.py`` relies on the package: the ``(state, streak,
energy_scale)`` tuple of ``read_restart``, its probes on
``Simulation.initial_state`` and ``Simulation.coupled_step``, and the
``diagnostics.csv`` column names.  A change that breaks any of these fails
here rather than in the benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_harness_smoke_run(trace, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tiny-8",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    missing = {m["name"] for m in BENCHMARK[section]} - set(result["metrics"])
    assert not missing, sorted(missing)
