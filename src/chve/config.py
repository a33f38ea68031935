"""Run-description parsing and validation.

Config files are line-oriented UTF-8 ``key = value`` text with ``[section]``
headers.  Each section is one frozen dataclass whose fields are its keys
(``[grid]`` is GridSpec, ``[params]`` is ModelParams, whose fields ``lam``,
``f_lo``, ``f_hi`` carry the file keys ``lambda``, ``f_window_lo``,
``f_window_hi`` as ``key`` metadata).  Each dataclass checks in
``__post_init__`` that its numbers are finite (:func:`~chve.grid.finite_check`)
and lie in the admissible ranges of the model (positive viscosity,
stiffness bounded in (0, 1], mobility bounds ordered, ...), so file values,
CLI overrides and ``replace`` are checked alike; every error names its
section as ``[section]: ...``.  Unknown sections or keys are hard errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ValidationError
from .grid import GridSpec, ModelParams, PreconditionError, finite_check, require

_PHI_PROFILES = ("uniform", "random-uniform", "tanh-x", "tanh-y")


@dataclass(frozen=True)
class TimeConfig:
    t_end: float = 0.1
    dt0: float = 1e-4
    dt_min: float = 1e-10
    dt_max: float = 1e-2
    grow_factor: float = 1.2
    grow_after: int = 5
    cfl_max: float = 0.4
    adaptive: bool = True
    reject_on_energy: bool = True
    energy_increase_tol: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        require([
            finite_check(self),
            (self.t_end >= 0.0, "t_end must be >= 0"),
            (self.dt_min > 0.0, "dt_min must be > 0"),
            (self.dt_min <= self.dt0 <= self.dt_max,
             "time steps must satisfy dt_min <= dt0 <= dt_max"),
            (self.grow_factor >= 1.0, "grow_factor must be >= 1"),
            (self.grow_after >= 1, "grow_after must be >= 1"),
            (self.cfl_max > 0.0, "cfl_max must be > 0"),
            (self.energy_increase_tol >= 0.0, "energy_increase_tol must be >= 0"),
            (self.max_steps >= 0, "max_steps must be >= 0"),
        ], ValidationError)


@dataclass(frozen=True)
class StepControl:
    """The step-size rule's state between steps, which a restart carries:
    the next dt and the count of accepted steps since dt last changed."""
    dt: float
    streak: int = 0

    def after(self, accepted: bool, rules: TimeConfig) -> StepControl | None:
        """Halve dt on a rejection (None below dt_min, a NaN dt included, ends
        the run); grow it by grow_factor, up to dt_max, after grow_after
        accepted steps in a row when adaptive."""
        if not accepted:
            dt = 0.5 * self.dt
            return StepControl(dt) if dt >= rules.dt_min else None
        streak = self.streak + 1
        if rules.adaptive and streak >= rules.grow_after:
            return StepControl(min(self.dt * rules.grow_factor, rules.dt_max))
        return StepControl(self.dt, streak)


@dataclass(frozen=True)
class CouplingConfig:
    picard_max: int = 2
    picard_tol: float = 1e-8

    def __post_init__(self):
        require([
            finite_check(self),
            (self.picard_max >= 1, "picard_max must be >= 1"),
            (self.picard_tol > 0.0, "picard_tol must be > 0"),
        ], ValidationError)


@dataclass(frozen=True)
class InitialConfig:
    """Initial phi profile, or the restart file to read; the initial deformation
    is F0 = I + F_amplitude cos(pi x / lx) e1 (x) e1, the identity by default."""
    phi: str = "uniform"          # uniform | random-uniform | tanh-x | tanh-y
    phi_value: float = 0.0
    phi_amplitude: float = 0.05
    phi_width: float = 0.1
    seed: int = 0
    F_amplitude: float = 0.0
    restart_file: str = ""

    def __post_init__(self):
        require([
            finite_check(self),
            (self.phi in _PHI_PROFILES,
             f"initial phi profile must be one of {_PHI_PROFILES}"),
            (self.phi_width > 0.0, "phi_width must be > 0"),
            (self.seed >= 0, "seed must be >= 0"),
        ], ValidationError)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    snapshot_every: int = 0       # 0: initial and final snapshot only
    diagnostics_every: int = 1

    def __post_init__(self):
        require([
            finite_check(self),
            (self.snapshot_every >= 0, "snapshot_every must be >= 0"),
            (self.diagnostics_every >= 1, "diagnostics_every must be >= 1"),
        ], ValidationError)


@dataclass(frozen=True)
class ConfigSpec:
    grid: GridSpec
    params: ModelParams
    time: TimeConfig = field(default_factory=TimeConfig)
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {"grid": GridSpec, "params": ModelParams, "time": TimeConfig,
             "coupling": CouplingConfig, "initial": InitialConfig,
             "output": OutputConfig}
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}
# section -> file key -> (field name, type), in field order; built once
_KEYS = {section: {f.metadata.get("key", f.name): (f.name, _TYPES[f.type])
                   for f in fields(cls)}
         for section, cls in _SECTIONS.items()}


def _coerce(section: str, key: str, typ: type, raw: str):
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return typ(raw)
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"[{section}]: {key}: cannot parse {raw!r} as "
                              f"{typ.__name__}") from exc


def _section(section: str, build, *args, **kwargs):
    """build(*args, **kwargs) for one config section; any error it raises
    becomes a ValidationError that names the section."""
    try:
        return build(*args, **kwargs)
    except (PreconditionError, ValidationError, TypeError) as exc:
        raise ValidationError(f"[{section}]: {exc}") from exc


def parse_config(text: str) -> ConfigSpec:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config syntax error: {exc}") from exc

    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        body = values[section] = {}
        for key, raw in cp.items(section, raw=True):
            if key not in _KEYS[section]:
                raise ValidationError(f"[{section}]: unknown key {key!r}")
            name, typ = _KEYS[section][key]
            body[name] = _coerce(section, key, typ, raw)

    if "grid" not in values:
        raise ValidationError("config must contain a [grid] section")

    return ConfigSpec(**{section: _section(section, cls, **values.get(section, {}))
                         for section, cls in _SECTIONS.items()})


def load_config(path: str | Path) -> ConfigSpec:
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not UTF-8 text: {exc}") from exc


def dump_config(cfg: ConfigSpec) -> str:
    """Canonical `key = value` text that parses back to an equal ConfigSpec.

    The driver drops this next to the diagnostics so a run records the
    grid, every model constant and the seed that produced it.
    """
    lines = []
    for section, keys in _KEYS.items():
        body = getattr(cfg, section)
        lines.append(f"[{section}]")
        for key, (name, _) in keys.items():
            val = getattr(body, name)
            if isinstance(val, bool):
                val = str(val).lower()
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def with_overrides(cfg: ConfigSpec, output_dir: str | None = None,
                   seed: int | None = None,
                   max_steps: int | None = None) -> ConfigSpec:
    """CLI-flag overrides on top of a parsed config, checked like file values."""
    for section, name, value in (("output", "directory", output_dir),
                                 ("initial", "seed", seed),
                                 ("time", "max_steps", max_steps)):
        if value is not None:
            body = _section(section, replace, getattr(cfg, section), **{name: value})
            cfg = replace(cfg, **{section: body})
    return cfg
