"""Self-tests of the benchmark harness on the tiny 8x8 workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys

import pytest

import run

run.import_chve()

LU_LAYERS = {"stokes", "transport", "cahn_hilliard"}


def _declared(kind):
    bench = json.loads(run.BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "tiny-8", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _declared(kind)


def test_forced_gate_failure_counts_as_failed(tmp_path, monkeypatch, capsys):
    ref = json.loads(run.REFERENCE.read_text())
    ref["workloads"]["tiny-8"]["E_total"] *= 1.01
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", wrong)
    monkeypatch.setattr(run, "OUT", tmp_path / "runs")

    code = run.main(["--child", "--workload", "tiny-8", "--seed", str(ref["seed"]),
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_REPS


def test_every_lu_span_has_a_layer_parent(tmp_path):
    from chve import driver, stokes

    originals = (driver.assemble_force, stokes.StokesSolver.solve)
    _, _, solutions, spans = run.measure("tiny-8", 1, 0, True, None, tmp_path)
    assert (driver.assemble_force, stokes.StokesSolver.solve) == originals
    assert not any(s.failures for s in solutions)

    by_rep = {}
    for s in spans:
        by_rep.setdefault(s["rep"], []).append(s)
    lu_layers = set()
    for rep in by_rep.values():
        for s in rep:
            if s["name"] == "scipy.splu":
                assert s["parent"] is not None
                lu_layers.add(rep[s["parent"]]["name"].split(".")[0])
    assert lu_layers == LU_LAYERS
