import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chve
from chve.cli import main
from chve.config import _KEYS

CONFIG = """
[grid]
nx = 16
ny = 16

[params]
eps = 0.05
c_elastic = 0.25
b0 = 0.1
b1 = 0.1

[time]
t_end = 0.001
dt0 = 1e-4
dt_max = 1e-4
adaptive = false

[initial]
phi = random-uniform
phi_amplitude = 0.05
seed = 3

[output]
directory = PLACEHOLDER
"""


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / "ignored")))
    out = tmp_path / "out"
    rc = main(["run", str(cfg), "--output-dir", str(out)])
    assert rc == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "snap_00000000.vtk").exists()
    captured = capsys.readouterr().out
    assert "termination=t_end" in captured


def test_run_seed_override_changes_data(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / "a")))
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "b"),
                 "--seed", "99"]) == 0
    a = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()
    b = (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()
    assert a[0] == b[0]          # same header
    assert a[1] != b[1]          # different trajectories


def test_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[grid]\nnx = 16\nny = 16\n\n[params]\nf_min = 0.0\n")
    rc = main(["run", str(cfg)])
    assert rc == 2
    assert "f_min" in capsys.readouterr().err


def test_run_invalid_override_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / "out")))
    assert main(["run", str(cfg), "--max-steps", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error: [time]: max_steps must be >= 0" in err
    assert not (tmp_path / "out").exists()


def test_run_uncreatable_output_dir_exit_2(tmp_path, capsys):
    # a regular file where a parent directory should be is invalid input
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / "out")))
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    assert main(["run", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"validation error: cannot create output directory {out}" in err


def _run_with(tmp_path, section, key, value):
    """chve run on CONFIG with `key = value` set in [section]."""
    text = CONFIG.replace("PLACEHOLDER", str(tmp_path / "out"))
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} = ")]
    if f"[{section}]" not in lines:
        lines.append(f"[{section}]")
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    cfg = tmp_path / "run.ini"
    cfg.write_text("\n".join(lines) + "\n")
    return main(["run", str(cfg)])


FLOAT_KEYS = [(section, key) for section, keys in _KEYS.items()
              for key, (_, typ) in keys.items() if typ is float]


@pytest.mark.parametrize("section,key,value",
                         [(s, k, v) for s, k in FLOAT_KEYS for v in ("inf", "nan")])
def test_run_nonfinite_value_exit_2(tmp_path, capsys, section, key, value):
    assert _run_with(tmp_path, section, key, value) == 2
    err = capsys.readouterr().err
    assert f"config error: [{section}]: values must be finite: {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value,message", [
    ("grid", "nx", "2", "grid needs nx, ny >= 4"),
    ("params", "lambda", "-1.0", "lambda must be >= 0"),
    ("time", "cfl_max", "0.0", "cfl_max must be > 0"),
    ("coupling", "picard_max", "0", "picard_max must be >= 1"),
    ("initial", "phi_width", "0.0", "phi_width must be > 0"),
    ("initial", "seed", "-1", "seed must be >= 0"),
    ("output", "diagnostics_every", "0", "diagnostics_every must be >= 1"),
])
def test_run_config_error_names_section(tmp_path, capsys, section, key, value, message):
    assert _run_with(tmp_path, section, key, value) == 2
    assert f"config error: [{section}]: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_negative_seed_override_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / "out")))
    assert main(["run", str(cfg), "--seed", "-1"]) == 2
    assert "config error: [initial]: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    ("params", "mobility_profile", "constant"),  # constant mobility: b1 = b0
    ("initial", "F", "identity"),                # the identity: F_amplitude = 0
])
def test_run_retired_key_exit_2(tmp_path, capsys, section, key, value):
    assert _run_with(tmp_path, section, key, value) == 2
    assert f"config error: [{section}]: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_config_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    text = CONFIG.replace("PLACEHOLDER", str(tmp_path / "out"))
    cfg.write_bytes(b"\xff\xfe" + text.encode())
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: config {cfg} is not UTF-8 text" in err
    assert not (tmp_path / "out").exists()


def test_package_imports_only_declared_dependencies():
    # every import in the package, function-local ones included, against
    # the [project] dependencies of pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    pkg = Path(chve.__file__).parent
    project = tomllib.loads((pkg.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0]
                for d in project["dependencies"]}
    imported = set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == {"numpy", "scipy"}
    assert imported - set(sys.stdlib_module_names) - {"chve"} == declared


def test_package_has_no_unused_imports():
    # every name a module imports is used in it or re-exported by __all__
    pkg = Path(chve.__file__).parent
    for path in pkg.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = {v for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for v in ast.literal_eval(node.value)}
        assert imported - used - exported == set(), path.name


def test_package_imports_no_scipy_sparse_linalg():
    # the Krylov loops live in chve.krylov; scipy's solvers stay test oracles
    pkg = Path(chve.__file__).parent
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(n.startswith("scipy.sparse.linalg") for n in names), path.name


def test_run_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2


def test_module_runs_without_installing():
    # python -m chve from the source tree, with the package not installed
    src = Path(chve.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "chve", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: chve")


def test_verify_operators_suite(capsys):
    rc = main(["verify", "operators"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_constitutive_suite(capsys):
    rc = main(["verify", "constitutive"])
    assert rc == 0
    assert "checks passed" in capsys.readouterr().out


def test_stokes_mms_subcommand(capsys):
    rc = main(["stokes-mms", "--levels", "16,32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L2(v)" in out
    assert "16" in out and "32" in out


@pytest.mark.parametrize("levels", ["3,x", "2"])
def test_stokes_mms_bad_levels_exit_2(capsys, levels):
    with pytest.raises(SystemExit) as exc:
        main(["stokes-mms", "--levels", levels])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument --levels: want integers >= 4, got '{levels}'" in err


def test_energy_report(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / "er")))
    assert main(["run", str(cfg)]) == 0
    rc = main(["energy-report", str(tmp_path / "er" / "diagnostics.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mass drift" in out
    assert "max div residual" in out
    # the drift is the largest excursion from the first row, not last - first
    path = tmp_path / "excursion.csv"
    path.write_text("step,t,E_total,mass,div_v_max,budget_residual\n"
                    "0,0,1.5,0.25,0,0\n1,1,1.4,0.2505,0,0\n2,2,1.3,0.25,0,0\n")
    assert main(["energy-report", str(path)]) == 0
    assert "mass drift:          5.000e-04" in capsys.readouterr().out.splitlines()


def test_energy_report_missing_file(tmp_path):
    assert main(["energy-report", str(tmp_path / "nope.csv")]) == 2


@pytest.mark.parametrize("header,row,message", [
    ("step,t,E_total,div_v_max,budget_residual", "0,0,1.5,0,0", ": no column mass"),
    ("step,t,E_total,mass,div_v_max,budget_residual", "0,0,1.5,oops,0,0", "'oops'"),
    ("step,t,E_total,mass,div_v_max,budget_residual", "0,0,1.5", "float: ''"),
], ids=["missing-column", "not-a-number", "short-row"])
def test_energy_report_bad_csv_exit_2(tmp_path, capsys, header, row, message):
    path = tmp_path / "diagnostics.csv"
    path.write_text(f"{header}\n{row}\n")
    assert main(["energy-report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}:") and message in err
