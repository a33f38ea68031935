"""Smoke runs of the benchmark harness on its smallest workload, and its
correctness gates on every workload of ``BENCHMARK.json``.

``perfbench/run.py`` relies on the package: the ``(state, control,
energy_scale)`` tuple of ``read_restart``, its probes on
``Simulation.initial_state`` and ``Simulation.coupled_step``, and the
``diagnostics.csv`` column names.  A change that breaks any of these fails
here rather than in the benchmark run.

``run.py`` finds the sources, its reference data and its ``_runs`` directory
from its own location, so the test runs a copy of the harness and of
``src`` in a temporary directory and writes nothing into the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _harness_copy(dest: Path) -> Path:
    """Copy src/, the harness and BENCHMARK.json under dest; returns the
    copied run.py."""
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (dest / "perfbench").mkdir()
    for path in [*(ROOT / "perfbench").glob("*.py"), ROOT / "perfbench" / "reference.json"]:
        shutil.copy2(path, dest / "perfbench" / path.name)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest / "perfbench" / "run.py"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_harness_smoke_run(tmp_path, trace, section):
    run_py = _harness_copy(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", "tiny-8",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    missing = {m["name"] for m in BENCHMARK[section]} - set(result["metrics"])
    assert not missing, sorted(missing)


def test_reference_gates_pass_on_every_workload(tmp_path):
    """The benchmark's own correctness gates at seed 1 on each workload of
    BENCHMARK.json (the 1e-9 E_total gate among them), so that a drift of
    a 64^2 workload fails here and not first in a benchmark run."""
    run_py = _harness_copy(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(run_py), "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(results) == sorted(names) == ["picard8-64", "snapshots-32", "spinodal-64"]
    for name in names:
        assert results[name]["correct"] is True and results[name]["failed"] == 0, name
