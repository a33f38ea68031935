#!/usr/bin/env python3
"""chve benchmark: end-to-end time to solution, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload spinodal-64 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload spinodal-64 --seed 3 --seconds 20 --trace 1

Each workload runs in a child process of its own, with the BLAS/OpenMP
thread counts pinned, so ``peak_rss_mb`` belongs to that workload alone.
The child solves the workload's fixed simulated interval again and again,
from config text to the final snapshot and restart, until ``--seconds``
have passed and at least ``MIN_REPS`` solutions are done.
It reports the per-phase medians over the solutions, each phase scaled by
a calibration kernel timed at its two ends (see :class:`Calibration`).
With ``--trace 1`` it alternates untraced and traced solutions and
reports the per-layer numbers of the traced ones.

Every solution passes the correctness gates or counts as failed; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every solution passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_runs"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

# One thread everywhere: SuperLU is serial, and a single thread keeps runs
# comparable on a small shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1
MIN_REPS = 3
CHILD_TIMEOUT_S = 170

# Gate tolerances
MASS_DRIFT_PER_AREA = 1e-10
DIV_V_MAX = 1e-9

# The acceptance SPINODAL config (tests/test_acceptance.py) with the
# interval, grid, coupling, seed and snapshot cadence set per workload.
CONFIG = """\
[grid]
nx = {n}
ny = {n}

[params]
nu = 1.0
lambda = 1e-3
eps = 0.05
c_elastic = 0.25
b0 = 0.1
b1 = 0.1

[time]
t_end = {t_end!r}
dt0 = 1e-5
dt_min = 1e-10
dt_max = 2e-4
adaptive = true
reject_on_energy = true
energy_increase_tol = 1e-8

[coupling]
picard_max = {picard_max}
picard_tol = {picard_tol!r}

[initial]
phi = random-uniform
phi_amplitude = 0.05
seed = {seed}

[output]
directory = {out}
snapshot_every = {snapshot_every}
"""


@dataclass(frozen=True)
class Workload:
    n: int
    t_end: float = 1e-3
    picard_max: int = 2
    picard_tol: float = 1e-8
    snapshot_every: int = 0

    def config_text(self, seed: int, out: Path) -> str:
        return CONFIG.format(n=self.n, t_end=self.t_end, picard_max=self.picard_max,
                             picard_tol=self.picard_tol, seed=seed, out=out,
                             snapshot_every=self.snapshot_every)


# Why each workload exists is recorded in BENCHMARK.json.  The 64^2 and 32^2
# workloads solve t = 0 .. 1e-3: 45 steps, over which dt grows from 1e-5 to
# 4.3e-5 (x1.2 after every 5 accepted steps).  In a traced run to t = 0.02
# (159 steps, dt reaching dt_max), the shares of stepping time taken by the
# CH, Stokes and transport layers over the first 45 steps are within 0.7
# points (spinodal-64) and 2.4 points (picard8-64) of those over all 159
# steps.  spinodal-128 is not in BENCHMARK.json, because its times spread too
# much between runs on a shared host (see README.md); it can be run by hand.
# It solves 5 steps, since its setup (one Stokes factorization) and LU fill
# do not depend on the interval.
WORKLOADS = {
    "spinodal-64": Workload(64),
    "picard8-64": Workload(64, picard_max=8, picard_tol=1e-10),
    "snapshots-32": Workload(32, snapshot_every=1),
    "spinodal-128": Workload(128, t_end=5e-5),
    "tiny-8": Workload(8, t_end=1e-4),  # self-tests only
}


class Calibration:
    """A fixed numpy/SuperLU kernel timed at every phase boundary.

    The shared host this benchmark was built on swings between a fast and
    a ~1.6x slower state, and back, within seconds, so raw wall times of
    whole runs spread by 10-20% and a kernel timed only before and after a
    whole solution does not track the state.  The kernel's time at the two
    ends of a phase does, and each phase is divided by it (in units of
    ``REF_S``).  The kernel runs outside the timed phases and uses no chve
    code.  Its working set (~0.4 MB) fits in L2, so it evicts little of
    chve's data, and a discarded first call warms it, so its timed calls do
    not depend on what chve left in the caches.
    """

    REF_S = 1.3e-3  # the kernel's typical time on the 2-vCPU Xeon VM the bounds were set on
    REPEATS = 5

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 20
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        A = (sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T) + 0.1 * sp.eye(n * n)).tocsc()
        x = np.random.default_rng(0).random(30_000)
        y = np.empty_like(x)
        splu = spla.splu  # bound now, so that a tracer's patch never sees the kernel

        def kernel():
            np.sin(x, out=y)
            np.sin(x, out=y)
            splu(A)

        self._kernel = kernel

    def __call__(self) -> float:
        """Median kernel time over ``REPEATS`` calls after a warm-up call."""
        self._kernel()
        times = []
        for _ in range(self.REPEATS):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)


SETUP_PHASES = 3


@dataclass
class Solution:
    phases: list[float]  # wall s: SETUP_PHASES of setup, one per coupled step, final output
    steps: int
    rejected: int
    picard_sweeps: int
    final_energy: float
    csv_sha256: str
    failures: list[str]
    calibration: list[float]  # kernel s at each phase boundary, one more than phases
    peak_rss_mb: float  # the process's peak RSS when this solution ended
    layers: dict[str, float] = field(default_factory=dict)

    def scaled_phases(self) -> list[float]:
        """Phases rescaled to the calibration kernel taking ``REF_S``: each
        phase is divided by the mean kernel time at its two ends."""
        cal = self.calibration
        return [p * 2 * Calibration.REF_S / (a + b)
                for p, a, b in zip(self.phases, cal, cal[1:])]


# -- one solution ------------------------------------------------------------


def solve_once(wl: Workload, seed: int, out: Path, expect: dict | None,
               calibrate, tracer=None) -> Solution:
    """Solve the workload once from config text.  Phase boundaries are the
    start, both ends of the initial state (where the Stokes LU is made),
    each coupled step and the end, so the first ``SETUP_PHASES`` phases are
    setup.  The calibration kernel runs at each boundary, between the
    phases.  Gates run after the timed region."""
    from chve import config, driver

    shutil.rmtree(out, ignore_errors=True)
    text = wl.config_text(seed, out)
    phases: list[float] = []
    kernel: list[float] = []
    start = 0.0

    def boundary():
        nonlocal start
        end = time.perf_counter()
        if kernel:
            phases.append(end - start)
        kernel.append(calibrate())
        start = time.perf_counter()

    def probe(method, end=False):
        def probed(*args, **kwargs):
            boundary()
            result = method(*args, **kwargs)
            if end:
                boundary()
            return result
        return probed

    with tracer or contextlib.nullcontext():
        boundary()
        cfg = config.parse_config(text)
        sim = driver.Simulation(cfg)
        sim.initial_state = probe(sim.initial_state, end=True)
        sim.coupled_step = probe(sim.coupled_step)
        summary = sim.run()
        boundary()
    del sim
    gc.collect()

    raw = (out / "diagnostics.csv").read_bytes()
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    sol = Solution(phases=phases, calibration=kernel,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   steps=summary.steps, rejected=summary.rejected_steps,
                   picard_sweeps=sum(int(r["picard_iters"]) for r in rows),
                   final_energy=summary.final_energy,
                   csv_sha256=hashlib.sha256(raw).hexdigest(),
                   failures=check(cfg, summary, rows, out, expect))
    if tracer is not None:
        tracer.count_factor_nnz()
        sol.layers = tracer.layer_metrics(summary.steps, summary.rejected_steps,
                                          sol.picard_sweeps)
    return sol


def check(cfg, summary, rows: list[dict], out: Path, expect: dict | None) -> list[str]:
    """Correctness gates of one solution; returns the failed ones."""
    from chve import diagnostics, vtk_io

    fails = []
    if summary.termination != "t_end":
        fails.append(f"termination {summary.termination!r} != 't_end'")
    if len(rows) != summary.steps or not rows:
        return fails + [f"{len(rows)} diagnostics rows for {summary.steps} steps"]
    final = f"{summary.steps:08d}"
    for name in (f"snap_{final}.vtk", f"restart_{final}.chv"):
        if not (out / name).is_file():
            fails.append(f"final output {name} missing")

    init, _, _ = vtk_io.read_restart(out / "restart_00000000.chv")
    mass0 = diagnostics.total_mass(init.phi)
    e0 = diagnostics.total_energy(init.phi, init.F, cfg.params).total
    area = cfg.grid.lx * cfg.grid.ly
    drift = max(abs(float(r["mass"]) - mass0) for r in rows)
    if drift > MASS_DRIFT_PER_AREA * area:
        fails.append(f"mass drift {drift:.3e} > {MASS_DRIFT_PER_AREA:g} * area")
    div = max(float(r["div_v_max"]) for r in rows)
    if div > DIV_V_MAX:
        fails.append(f"div_v_max {div:.3e} > {DIV_V_MAX:g}")
    energy = [e0] + [float(r["E_total"]) for r in rows]
    rise = max(b - a for a, b in zip(energy, energy[1:]))
    if rise > cfg.time.energy_increase_tol * abs(e0):
        fails.append(f"energy rose by {rise:.3e} > energy_increase_tol * |E0|")
    if expect is not None:
        if summary.steps != expect["steps"]:
            fails.append(f"{summary.steps} steps, reference {expect['steps']}")
        e_ref = expect["E_total"]
        if abs(summary.final_energy - e_ref) > expect["E_total_rel_tol"] * abs(e_ref):
            fails.append(f"final E_total {summary.final_energy!r}, reference {e_ref!r}")
    return fails


# -- one measured run (child process) ----------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            expect: dict | None, rundir: Path):
    """Repeat solutions for ``seconds``; returns (metrics, raw metrics,
    solutions, spans).  The raw metrics are the same figures uncalibrated."""
    from spans import Tracer

    wl = WORKLOADS[name]
    calibrate = Calibration()

    def calibrated_solve(tracer=None) -> Solution:
        # In a traced solution the kernel is a span of its own, so that no
        # layer's self time includes it.
        kernel = calibrate if tracer is None else tracer.wrap("bench.calibration", calibrate)
        return solve_once(wl, seed, rundir / "solution", expect, kernel, tracer=tracer)

    plain: list[Solution] = []
    traced: list[Solution] = []
    spans: list[dict] = []
    start = time.perf_counter()
    while True:
        plain.append(calibrated_solve())
        if trace:
            tracer = Tracer()
            traced.append(calibrated_solve(tracer))
            spans += [dict(rep=len(traced) - 1, **s) for s in tracer.to_records()]
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if enough and time.perf_counter() - start >= seconds:
            break

    solutions = plain + traced
    for sol in solutions[1:]:
        if sol.csv_sha256 != solutions[0].csv_sha256:
            sol.failures.append("diagnostics.csv differs from the first solution's")

    if trace:
        metrics = {k: statistics.median([s.layers[k] for s in traced])
                   for k in traced[0].layers}
        metrics["tracing_overhead_frac"] = (
            statistics.median([sum(s.scaled_phases()) for s in traced])
            / statistics.median([sum(s.scaled_phases()) for s in plain]) - 1.0)
        return metrics, {}, solutions, spans
    return (end_to_end(plain, [s.scaled_phases() for s in plain]),
            end_to_end(plain, [s.phases for s in plain]), solutions, spans)


def end_to_end(plain: list[Solution], phases: list[list[float]]) -> dict[str, float]:
    """End-to-end metrics from the per-phase medians over solutions that did
    identical work.  The peak RSS is taken after the first ``MIN_REPS``
    solutions, so that it does not depend on how many fit in the run."""
    median = [statistics.median(p) for p in zip(*phases)]
    attempted_steps = sum(s.steps + s.rejected for s in plain)
    return {
        "time_to_solution_s": sum(median),
        "setup_s": sum(median[:SETUP_PHASES]),
        "ms_per_step": 1e3 * sum(median[SETUP_PHASES:]) / plain[0].steps,
        "peak_rss_mb": plain[MIN_REPS - 1].peak_rss_mb,
        "accepted_step_frac": sum(s.steps for s in plain) / attempted_steps,
    }


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_chve():
    """Import chve from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import chve

    if Path(chve.__file__).resolve().parent != SRC / "chve":
        raise ImportError(f"chve imported from {chve.__file__}, not from {SRC}")
    return chve


def child_main(args) -> int:
    import numpy
    import scipy

    import_chve()
    bench = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ref = json.loads(REFERENCE.read_text())
    expect = None
    if args.seed == ref["seed"] and args.workload in ref["workloads"]:
        expect = dict(ref["workloads"][args.workload], E_total_rel_tol=ref["E_total_rel_tol"])

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    metrics, raw, solutions, spans = measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace), expect, rundir)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "config": WORKLOADS[args.workload].config_text(args.seed, rundir / "solution"),
        "solutions": [{k: v for k, v in vars(s).items() if k != "layers"}
                      for s in solutions],
        "metrics": metrics,
        "raw_metrics": raw,
    }
    (rundir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(rundir / "spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    failed = 0
    for i, sol in enumerate(solutions):
        for msg in sol.failures:
            print(f"{args.workload} solution {i}: gate failed: {msg}", file=sys.stderr)
        failed += bool(sol.failures)
        print(f"solution {i}: {sum(sol.phases):.3f} s, "
              f"setup {sum(sol.phases[:SETUP_PHASES]):.3f} s, "
              f"{sol.steps} steps, calibration kernel median "
              f"{1e3 * statistics.median(sol.calibration):.3f} ms, "
              f"{'FAILED' if sol.failures else 'ok'}")
    if raw:
        print("uncalibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    result = {"correct": failed == 0, "attempted": len(solutions), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- launcher ----------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    env = dict(os.environ, **{v: str(THREADS) for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; default: every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "chve" / "__init__.py").is_file():
        print(f"no chve sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload:
        code, out = run_child(args.workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        return code

    results, worst = {}, 0
    for w in bench["workloads"]:
        code, out = run_child(w["name"], args.seed, seconds, args.trace)
        worst = max(worst, code)
        try:
            res = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):  # the child died without a result
            res = {"metrics": {}, "correct": False}
        results[w["name"]] = res
        for metric, m in res["metrics"].items():
            print(f"{w['name']:14s} {metric:42s} {m['value']:14.6g} {m['unit']}")
        print(f"{w['name']:14s} correct={res['correct']}", flush=True)
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
