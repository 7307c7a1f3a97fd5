"""Run configuration: INI-style files with sections, named scenarios and
schemes, CLI overrides, strict key checking, and reproducible manifests.

Key `section.name` sets field `name` of `RunConfig` for [run], and of
`RunConfig.<section>` for every other section.  A scenario
(`mobility.PRESETS`) and a scheme (`dcc.SCHEMES`) are each a named set of
keys that `resolve` layers over the defaults."""

from __future__ import annotations

import configparser
import difflib
import json
import math
from dataclasses import Field, asdict, fields

from . import dcc, mobility
from .channel import ChannelModel
from .dcc import RangeControlConfig, RateControlConfig
from .engine import RunConfig
from .mac_sps import CrConfig, SpsConfig
from .metrics import MetricsConfig


class ConfigError(Exception):
    """Raised with one message per violation, newline-joined."""

    def __init__(self, errors):
        self.errors = list(errors) if isinstance(errors, (list, tuple)) else [errors]
        super().__init__("\n".join(str(e) for e in self.errors))


# A run whose estimated memory (RunConfig.memory_estimate_mib) exceeds this is
# rejected before anything is allocated, naming the keys the estimate grows with.
MEMORY_LIMIT_MIB = 4096

_NESTED = {"metrics": MetricsConfig, "cr": CrConfig, "channel": ChannelModel,
           "sps": SpsConfig, "rate": RateControlConfig, "range": RangeControlConfig,
           "scenario": mobility.ScenarioConfig}


def _run_fields() -> list[Field]:
    """The RunConfig fields that are [run] keys."""
    return [f for f in fields(RunConfig) if f.name not in _NESTED]


def default_config() -> dict[str, object]:
    """Flat {section.key: value} map with every supported key, each default
    taken from the dataclass that the key configures."""
    out: dict[str, object] = {"run.scenario": "freeway-high", "run.scheme": "baseline"}
    for f in _run_fields():
        out[f"run.{f.name}"] = f.default
    for name, cls in _NESTED.items():
        out.update({f"{name}.{k}": v for k, v in asdict(cls()).items()})
    return out


# A value is converted to the type of its key's default, never to that of a
# value layered before it
_DEFAULTS = default_config()
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _float(key: str, raw) -> float:
    """`raw`, a number or its text, as a float, which must be finite."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    except OverflowError:       # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _convert(key: str, raw, default):
    """`raw` as a value of the type of the key's `default`.  Text is parsed;
    any other value must have that type already, except that an int serves
    a float key.  A float key takes only a finite number."""
    kind = type(default)
    if isinstance(raw, str):
        text = raw.strip()
        if kind is float:
            return _float(key, raw)
        if kind is str:
            return text
        if kind is bool and text.lower() in ("true", "yes", "on", "1"):
            return True
        if kind is bool and text.lower() in ("false", "no", "off", "0"):
            return False
        if kind is int:
            try:
                return int(text)
            except ValueError:
                pass
    elif kind is float and type(raw) in (int, float):
        return _float(key, raw)
    elif type(raw) is kind:
        return raw
    raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}")


def _reject_unknown(key: str, known: dict) -> None:
    if key in known:
        return
    hint = difflib.get_close_matches(key, known.keys(), n=1)
    suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
    raise ConfigError(f"unknown config key {key!r}{suffix}")


def _apply(resolved: dict, updates: dict[str, object], errors: list) -> None:
    for key, raw in updates.items():
        try:
            _reject_unknown(key, resolved)
            resolved[key] = _convert(key, raw, _DEFAULTS[key])
        except ConfigError as e:
            errors.extend(e.errors)


def read_config_file(path: str) -> dict[str, object]:
    """Parse an INI config (or a run manifest in JSON) into {section.key: raw}.
    A file that cannot be read or parsed, or an INI with a [DEFAULT]
    section, is a ConfigError that names it; an INI value is taken
    literally, `%` included."""
    try:
        with open(path) as f:
            text = f.read()
        if not path.endswith(".json"):
            parser = configparser.ConfigParser(interpolation=None)
            parser.read_string(text, source=path)
            if parser.defaults():   # configparser drops its keys or copies them to each section
                raise configparser.Error("a [DEFAULT] section is not supported; use named sections")
            return {f"{section}.{key}": value
                    for section in parser.sections() for key, value in parser.items(section)}
        data = json.loads(text)
    except (OSError, ValueError, configparser.Error) as e:
        raise ConfigError(f"{path}: {e}") from None
    values = data.get("config", data) if isinstance(data, dict) else data
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: its config is not a JSON object")
    return dict(values)


def resolve(file_values: dict[str, object] | None = None,
            overrides: dict[str, object] | None = None,
            scenario: str | None = None, scheme: str | None = None,
            seed: int | None = None) -> dict[str, object]:
    """Layer defaults, the scheme's keys, the scenario's keys, file, then
    overrides.

    CLI arguments (scenario/scheme/seed) beat the file's [run] entries; every
    key is validated against the schema with a nearest-name suggestion.
    """
    errors: list[str] = []
    resolved = dict(_DEFAULTS)
    file_values = dict(file_values or {})
    overrides = dict(overrides or {})

    names = {}
    for kind, arg, table in (("scheme", scheme, dcc.SCHEMES),
                             ("scenario", scenario, mobility.PRESETS)):
        key = f"run.{kind}"
        name = names[key] = str(arg or overrides.get(key) or file_values.get(key)
                                or _DEFAULTS[key])
        if name in table:
            _apply(resolved, table[name], errors)
        else:
            errors.append(f"unknown {kind} {name!r}; available: {', '.join(table)}")

    _apply(resolved, file_values, errors)
    _apply(resolved, overrides, errors)
    resolved.update(names)
    if seed is not None:
        resolved["run.seed"] = int(seed)
    if errors:
        raise ConfigError(errors)
    return resolved


def section(resolved: dict, name: str) -> dict:
    """The keys of one section of a resolved config, as {field: value}."""
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in resolved.items() if k.startswith(prefix)}


def build_run_config(resolved: dict[str, object]) -> RunConfig:
    """Materialize the typed RunConfig; each violation becomes one ConfigError
    message that starts with the key it rejects."""
    errors: list[str] = []

    nested = {}
    for name, cls in _NESTED.items():
        try:
            nested[name] = cls(**section(resolved, name))
        except (ValueError, TypeError) as e:
            errors.append(f"{name}.{e}")
    if errors:
        raise ConfigError(errors)
    try:
        cfg = RunConfig(**nested, **{f.name: resolved[f"run.{f.name}"] for f in _run_fields()})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    need_mib = cfg.memory_estimate_mib()
    if need_mib > MEMORY_LIMIT_MIB:
        raise ConfigError(f"scenario.vehicle_count = {resolved['scenario.vehicle_count']} and "
                          f"run.duration_s = {resolved['run.duration_s']} need an estimated "
                          f"{need_mib:.0f} MiB, above the {MEMORY_LIMIT_MIB} MiB limit")
    return cfg


def write_manifest(path, resolved: dict[str, object], version: str) -> None:
    body = {"tool": "cv2xsim", "version": version,
            "config": {k: resolved[k] for k in sorted(resolved)}}
    with open(path, "w") as f:
        json.dump(body, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
