"""Run configuration: INI-style files with sections, named presets, CLI
overrides, strict key checking, and reproducible manifests.

Key `section.name` sets field `name` of `RunConfig` for [run], of
`RunConfig.scenario` for [scenario], and of `RunConfig.<section>` otherwise."""

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


_DEFAULT_SCENARIO, _DEFAULT_SCHEME = "freeway-high", "baseline"

# A run whose estimated memory (RunConfig.memory_estimate_mib) exceeds this is
# rejected before anything is allocated, naming the keys the estimate grows with.
MEMORY_LIMIT_MIB = 4096

_NESTED = {"metrics": MetricsConfig, "cr": CrConfig, "channel": ChannelModel,
           "sps": SpsConfig, "rate": RateControlConfig, "range": RangeControlConfig}


def _run_fields() -> list[Field]:
    """The RunConfig fields that are [run] keys."""
    return [f for f in fields(RunConfig) if f.name not in ("scenario", *_NESTED)]


def _scenario_values(preset: mobility.ScenarioPreset) -> dict[str, object]:
    return {f"scenario.{k}": v for k, v in asdict(preset).items()
            if k not in ("name", "adjustments")}


def default_config() -> dict[str, object]:
    """Flat {section.key: value} map with every supported key, each default
    taken from the dataclass that the key configures."""
    out: dict[str, object] = {"run.scenario": _DEFAULT_SCENARIO, "run.scheme": _DEFAULT_SCHEME}
    for f in _run_fields():
        out[f"run.{f.name}"] = f.default
    for section, cls in _NESTED.items():
        out.update({f"{section}.{k}": v for k, v in asdict(cls()).items()})
    out.update(_scenario_values(mobility.preset_by_name(_DEFAULT_SCENARIO)))
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


def _scenario_layer(name: str) -> dict[str, object]:
    preset = mobility.preset_by_name(name)
    return {**_scenario_values(preset), **preset.adjustments}


def read_config_file(path: str) -> dict[str, object]:
    """Parse an INI config (or a run manifest in JSON) into {section.key: raw}."""
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        data = json.loads(text)
        return dict(data["config"] if "config" in data else data)
    parser = configparser.ConfigParser()
    parser.read_string(text, source=path)
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            out[f"{section}.{key}"] = value
    return out


def resolve(file_values: dict[str, object] | None = None,
            overrides: dict[str, object] | None = None,
            scenario: str | None = None, scheme: str | None = None,
            seed: int | None = None) -> dict[str, object]:
    """Layer defaults, scheme preset, scenario preset, file, then overrides.

    CLI arguments (scenario/scheme/seed) beat the file's [run] entries; every
    key is validated against the schema with a nearest-name suggestion.
    """
    errors: list[str] = []
    resolved = dict(_DEFAULTS)
    file_values = dict(file_values or {})
    overrides = dict(overrides or {})

    scheme_name = scheme or overrides.get("run.scheme") or file_values.get("run.scheme") \
        or _DEFAULT_SCHEME
    scenario_name = scenario or overrides.get("run.scenario") or file_values.get("run.scenario") \
        or _DEFAULT_SCENARIO
    try:
        _apply(resolved, dcc.scheme_by_name(str(scheme_name)), errors)
    except KeyError as e:
        errors.append(str(e.args[0]))
    try:
        _apply(resolved, _scenario_layer(str(scenario_name)), errors)
    except KeyError as e:
        errors.append(str(e.args[0]))

    _apply(resolved, file_values, errors)
    _apply(resolved, overrides, errors)
    resolved["run.scheme"] = str(scheme_name)
    resolved["run.scenario"] = str(scenario_name)
    if seed is not None:
        resolved["run.seed"] = int(seed)
    if errors:
        raise ConfigError(errors)
    return resolved


def _section(resolved: dict, name: str) -> dict:
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in resolved.items() if k.startswith(prefix)}


def build_run_config(resolved: dict[str, object]) -> RunConfig:
    """Materialize the typed RunConfig; each violation becomes one ConfigError
    message that starts with the key it rejects."""
    errors: list[str] = []

    def build(section: str, cls, **named):
        try:
            return cls(**named, **_section(resolved, section))
        except (ValueError, TypeError) as e:
            errors.append(f"{section}.{e}")

    nested = {section: build(section, cls) for section, cls in _NESTED.items()}
    preset = build("scenario", mobility.ScenarioPreset, name=resolved["run.scenario"])
    if errors:
        raise ConfigError(errors)
    try:
        cfg = RunConfig(scenario=preset, **nested,
                        **{f.name: resolved[f"run.{f.name}"] for f in _run_fields()})
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
