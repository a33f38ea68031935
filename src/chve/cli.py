"""Command-line interface.

Subcommands:

* ``run <config>``        advance a simulation described by a config file
* ``verify [suite]``      run the verification oracles, print a pass/fail
                          table, exit nonzero on any failure
* ``stokes-mms``          print the manufactured-solution convergence table
* ``energy-report <csv>`` summarize a diagnostics CSV

Exit codes: 0 success, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv as _csv
import sys

import numpy as np

from . import verification as ver
from .config import load_config, with_overrides
from .driver import Simulation
from .errors import ValidationError
from .grid import GridSpec, ModelParams, ScalarField, TensorField


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, output_dir=args.output_dir, seed=args.seed,
                             max_steps=args.max_steps)
    except (ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    summary = Simulation(cfg).run()
    print(f"steps={summary.steps} rejected={summary.rejected_steps} "
          f"wall={summary.wall_time:.2f}s E={summary.final_energy:.6g} "
          f"mass={summary.final_mass:.12g} termination={summary.termination}")
    return 0 if summary.termination in ("t_end", "max_steps") else 3


def _verify_rows(suite: str):
    rows = []

    def add(name, passed, detail):
        rows.append((name, bool(passed), detail))

    if suite in ("all", "constitutive"):
        rep = ver.fd_check_elastic_stress(ModelParams())
        add("elastic stress vs FD gradient",
            rep["passed"], f"max rel {max(v for k, v in rep.items() if k != 'passed'):.2e}")
        rep = ver.fd_check_det_derivative()
        add("det derivative = cofactor", rep["passed"],
            f"d2 rel {rep['d2_max_rel']:.2e}")

    if suite in ("all", "operators"):
        rep = ver.dense_oracle_compare(GridSpec(8, 8))
        add("dense oracle (grad/div/lap)", rep["passed"],
            f"max dev {max(rep['max_dev_grad'], rep['max_dev_div'], rep['max_dev_lap']):.2e}")
        rep = ver.dense_stokes_compare(GridSpec(8, 8))
        add("dense oracle (stokes)", rep["passed"],
            f"max dev {rep['max_dev_velocity']:.2e}")
        # odd cell counts and hx != hy: the capacitance's centre-node sectors
        rep = ver.dense_stokes_compare(GridSpec(7, 9, 1.0, 1.3))
        add("dense oracle (stokes, 7x9)", rep["passed"],
            f"max dev {rep['max_dev_velocity']:.2e}")

    if suite in ("all", "stokes"):
        rep = ver.stokes_mms(levels=(16, 32, 64))
        ok = all(o >= 1.9 for o in rep["order_v"])
        add("stokes MMS velocity order", ok,
            f"orders {['%.2f' % o for o in rep['order_v']]}")

    if suite in ("all", "coupling"):
        g = GridSpec(64, 64)
        params = ModelParams(eps=0.25, c_elastic=0.5)
        _, Y = g.cell_centers()
        phi = ScalarField(g, np.tanh((Y - 0.5 * g.ly) / 0.15))
        rep = ver.korteweg_identity_check(phi, TensorField.identity(g), params)
        add("capillary force equivalence", rep["v_diff"] <= 1e-8,
            f"v diff {rep['v_diff']:.2e}")
        # a 2-D state, where both forms drive a flow and agree to O(h^2)
        rep = ver.korteweg_convergence()
        add("capillary force convergence (2-D)",
            all(3.5 <= r <= 4.5 for r in rep["ratios"]) and min(rep["v_mu_max"]) >= 0.05,
            f"ratios {['%.2f' % r for r in rep['ratios']]}")
        # acceptance criterion 10's state: F off I, so mu has an elastic term
        g12 = GridSpec(12, 12)
        rng = np.random.default_rng(5)
        phi12 = ScalarField(g12, 0.3 * rng.standard_normal((12, 12)))
        F12 = TensorField(g12, np.eye(2) + 0.3 * rng.standard_normal((12, 12, 2, 2)))
        rep = ver.fd_check_chemical_potential(phi12, F12,
                                              ModelParams(eps=0.6, c_elastic=1.2))
        add("chemical potential vs FD energy", 1.9 <= rep["observed_order"] <= 2.1,
            f"order {rep['observed_order']:.3f}")
    return rows


def _cmd_verify(args) -> int:
    rows = _verify_rows(args.suite)
    width = max(len(r[0]) for r in rows) + 2
    failed = 0
    for name, passed, detail in rows:
        mark = "PASS" if passed else "FAIL"
        failed += not passed
        print(f"{name:<{width}} {mark}  {detail}")
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 0 if failed == 0 else 3


def _grid_sizes(text: str) -> tuple[int, ...]:
    """argparse type of ``--levels``: comma-separated grid sizes, each >= 4,
    strictly increasing."""
    sizes = tuple(int(s) if s.strip().isdecimal() else 0 for s in text.split(","))
    if min(sizes) < 4:
        raise argparse.ArgumentTypeError(f"want integers >= 4, got {text!r}")
    if any(n0 >= n1 for n0, n1 in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(f"want increasing sizes, got {text!r}")
    return sizes


def _cmd_stokes_mms(args) -> int:
    rep = ver.stokes_mms(levels=args.levels)
    print("n      L2(v)          order    L2(q)          order")
    for k, n in enumerate(rep["levels"]):
        ov = f"{rep['order_v'][k - 1]:.2f}" if k else "  -  "
        oq = f"{rep['order_q'][k - 1]:.2f}" if k else "  -  "
        print(f"{n:<6d} {rep['err_v'][k]:.6e}  {ov}    {rep['err_q'][k]:.6e}  {oq}")
    return 0


def _cmd_energy_report(args) -> int:
    columns = ("t", "E_total", "mass", "div_v_max", "budget_residual")
    try:
        with open(args.csv, newline="") as fh:
            reader = _csv.DictReader(fh, restval="")  # a short row fails float()
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"no column {', '.join(missing)} in the header")
            rows = [[float(r[c]) for c in columns] for r in reader]
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.csv}: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("no accepted steps in file")
        return 0
    t, E, mass, div, budget = np.array(rows).T
    increases = np.diff(E)
    print(f"rows:                {len(rows)}")
    print(f"t range:             [{t[0]:.17g}, {t[-1]:.17g}]")
    print(f"energy:              {E[0]:.8g} -> {E[-1]:.8g}")
    print(f"energy increases:    {int(np.sum(increases > 0.0))} steps, max increase "
          f"{increases.max() if len(increases) else 0.0:.3e}")
    print(f"mass drift:          {np.abs(mass - mass[0]).max():.3e}")
    print(f"max div residual:    {div.max():.3e}")
    print(f"max |budget resid|:  {np.abs(budget).max():.3e}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="chve",
                                 description="phase-field viscoelasticity simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run verification oracles")
    p_ver.add_argument("suite", nargs="?", default="all",
                       choices=["all", "constitutive", "operators", "stokes",
                                "coupling"])
    p_ver.set_defaults(func=_cmd_verify)

    p_mms = sub.add_parser("stokes-mms", help="manufactured-solution table")
    p_mms.add_argument("--levels", type=_grid_sizes, default="32,64,128")
    p_mms.set_defaults(func=_cmd_stokes_mms)

    p_er = sub.add_parser("energy-report", help="summarize a diagnostics CSV")
    p_er.add_argument("csv")
    p_er.set_defaults(func=_cmd_energy_report)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
