import configparser
from pathlib import Path

import pytest

from chve.config import (ConfigSpec, dump_config, load_config, parse_config,
                         with_overrides)
from chve.errors import ValidationError

GOOD = """
[grid]
nx = 16
ny = 16
lx = 1.0
ly = 1.0

[params]
nu = 2.0
lambda = 1e-3
eps = 0.05
c_elastic = 0.25
f_min = 0.05
b0 = 0.1
b1 = 0.1

[time]
t_end = 0.01
dt0 = 1e-4
dt_max = 1e-3

[coupling]
picard_max = 3
picard_tol = 1e-9

[initial]
phi = random-uniform
phi_amplitude = 0.05
seed = 7

[output]
directory = out
snapshot_every = 10
"""


def test_parse_full_config():
    cfg = parse_config(GOOD)
    assert cfg.grid.nx == 16
    assert cfg.params.nu == 2.0
    assert cfg.params.lam == 1e-3
    assert cfg.params.eps == 0.05
    assert cfg.time.dt_max == 1e-3
    assert cfg.coupling.picard_max == 3
    assert cfg.initial.seed == 7
    assert cfg.output.snapshot_every == 10


def test_defaults_applied():
    cfg = parse_config("[grid]\nnx = 8\nny = 8\n")
    assert cfg.params.nu == 1.0
    assert cfg.time.adaptive is True
    assert cfg.initial.phi == "uniform"


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="unknown config section"):
        parse_config(GOOD + "\n[extra]\nfoo = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config("[grid]\nnx = 8\nny = 8\nnz = 8\n")


def test_unparseable_value_rejected():
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_config("[grid]\nnx = eight\nny = 8\n")


@pytest.mark.parametrize("case", [str.lower, str.upper])
@pytest.mark.parametrize("raw, value", [("true", True), ("yes", True), ("on", True),
                                        ("1", True), ("false", False), ("no", False),
                                        ("off", False), ("0", False)])
def test_boolean_spellings(raw, value, case):
    cfg = parse_config(f"[grid]\nnx = 8\nny = 8\n[time]\nadaptive = {case(raw)}\n")
    assert cfg.time.adaptive is value


@pytest.mark.parametrize("raw", ["maybe", "2", "t", ""])
def test_bad_boolean_rejected(raw):
    with pytest.raises(ValidationError, match="adaptive: cannot parse .* as bool"):
        parse_config(f"[grid]\nnx = 8\nny = 8\n[time]\nadaptive = {raw}\n")


def test_missing_grid_rejected():
    with pytest.raises(ValidationError, match="grid"):
        parse_config("[params]\nnu = 1.0\n")


def test_invalid_f_min_rejected_with_bound():
    bad = GOOD.replace("f_min = 0.05", "f_min = 0.0")
    with pytest.raises(ValidationError, match=r"0 < f_min <= 1"):
        parse_config(bad)


def test_mobility_bounds_checked():
    bad = GOOD.replace("b1 = 0.1", "b1 = 0.01")
    with pytest.raises(ValidationError, match="b0 <= b1"):
        parse_config(bad)


def test_dt_ordering_checked():
    bad = GOOD.replace("dt0 = 1e-4", "dt0 = 1.0")
    with pytest.raises(ValidationError, match="dt_min <= dt0 <= dt_max"):
        parse_config(bad)


def test_negative_viscosity_rejected():
    bad = GOOD.replace("nu = 2.0", "nu = -1.0")
    with pytest.raises(ValidationError, match="nu must be > 0"):
        parse_config(bad)


def test_unknown_profile_rejected():
    bad = GOOD.replace("phi = random-uniform", "phi = blob")
    with pytest.raises(ValidationError, match="profile"):
        parse_config(bad)


def test_overrides():
    cfg = parse_config(GOOD)
    cfg2 = with_overrides(cfg, output_dir="elsewhere", seed=99, max_steps=5)
    assert cfg2.output.directory == "elsewhere"
    assert cfg2.initial.seed == 99
    assert cfg2.time.max_steps == 5
    # original untouched
    assert cfg.output.directory == "out" and cfg.initial.seed == 7


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(GOOD, encoding="utf-8")
    cfg = load_config(p)
    assert isinstance(cfg, ConfigSpec)
    assert cfg.grid.ny == 16


def test_dump_config_roundtrip():
    from chve.config import dump_config
    cfg = parse_config(GOOD)
    assert parse_config(dump_config(cfg)) == cfg


def test_overrides_are_validated():
    cfg = parse_config(GOOD)
    with pytest.raises(ValidationError, match="max_steps must be >= 0"):
        with_overrides(cfg, max_steps=-1)
    with pytest.raises(ValidationError, match="snapshot_every must be >= 0"):
        parse_config(GOOD.replace("snapshot_every = 10", "snapshot_every = -1"))
    cfg2 = with_overrides(cfg, output_dir="elsewhere", seed=99, max_steps=0)
    assert parse_config(dump_config(cfg2)) == cfg2


# a valid value other than the default for every key of every section
NON_DEFAULT = {
    "grid": {"nx": "9", "ny": "11", "lx": "2.5", "ly": "0.75"},
    "params": {"nu": "2.5", "lambda": "0.0", "delta": "0.01", "eps": "0.3",
               "c_elastic": "1.5", "f_min": "0.2", "b0": "0.5", "b1": "2.0",
               "f_window_lo": "-0.5", "f_window_hi": "0.5"},
    "time": {"t_end": "0.5", "dt0": "1e-3", "dt_min": "1e-12", "dt_max": "0.02",
             "grow_factor": "1.5", "grow_after": "3", "cfl_max": "0.25",
             "adaptive": "false", "reject_on_energy": "no",
             "energy_increase_tol": "0.0", "max_steps": "7"},
    "coupling": {"picard_max": "4", "picard_tol": "1e-6"},
    "initial": {"phi": "tanh-y", "phi_value": "0.25", "phi_amplitude": "0.5",
                "phi_width": "0.05", "seed": "42", "F_amplitude": "0.1",
                "restart_file": "r.chv"},
    "output": {"directory": "elsewhere", "snapshot_every": "3",
               "diagnostics_every": "2"},
}
MINIMAL = "[grid]\nnx = 8\nny = 8\n"


def test_non_default_table_covers_every_key():
    dumped = configparser.ConfigParser(interpolation=None)
    dumped.optionxform = str
    dumped.read_string(dump_config(parse_config(MINIMAL)))
    assert {s: set(dumped[s]) for s in dumped.sections()} == \
        {s: set(keys) for s, keys in NON_DEFAULT.items()}


@pytest.mark.parametrize("section,key", [(s, k) for s, keys in NON_DEFAULT.items()
                                         for k in keys])
def test_every_key_round_trips(section, key):
    sections = {"grid": {"nx": "8", "ny": "8"}}
    sections.setdefault(section, {})[key] = NON_DEFAULT[section][key]
    text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for s, body in sections.items())
    cfg = parse_config(text)
    assert cfg != parse_config(MINIMAL)
    assert parse_config(dump_config(cfg)) == cfg


def test_readme_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.grid.nx == 64
    assert cfg.params.lam == 1e-3 and cfg.params.eps == 0.05
    assert cfg.initial.phi == "random-uniform"
