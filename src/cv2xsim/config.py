"""Run configuration: INI-style files with sections, named presets, CLI
overrides, strict key checking, and reproducible manifests."""

from __future__ import annotations

import configparser
import difflib
import json
from dataclasses import Field, asdict, fields
from typing import get_args, get_type_hints

from . import dcc, mobility
from .channel import ChannelModel
from .dcc import DccScheme, RangeControlConfig, RateControlConfig
from .engine import RunConfig
from .mac_sps import SpsConfig


class ConfigError(Exception):
    """Raised with one message per violation, newline-joined."""

    def __init__(self, errors):
        self.errors = list(errors) if isinstance(errors, (list, tuple)) else [errors]
        super().__init__("\n".join(str(e) for e in self.errors))


_DEFAULT_SCENARIO, _DEFAULT_SCHEME = "freeway-high", "baseline"

# A run whose estimated memory (the sum of RunConfig.memory_estimate_mib) exceeds
# this is rejected before anything is allocated, naming the key of its largest part.
MEMORY_LIMIT_MIB = 4096

# RunConfig fields set from a section other than [run]; every other field of
# RunConfig that is not a nested config is a [run] key of the same name
_RUN_FIELD_KEYS = {
    "bin_width_m": "metrics.bin_width_m", "roi_radius_m": "metrics.roi_radius_m",
    "cr_limit_enabled": "cr.enabled", "cbp_limit": "cr.cbp_limit",
    "cr_calibration": "cr.calibration",
}
_NESTED = {"channel": ChannelModel, "sps": SpsConfig,
           "rate": RateControlConfig, "range": RangeControlConfig}


def _run_fields() -> dict[str, Field]:
    """{section.key: RunConfig field} for the keys that set RunConfig fields."""
    return {_RUN_FIELD_KEYS.get(f.name, f"run.{f.name}"): f for f in fields(RunConfig)
            if f.name not in ("scenario", "scheme", *_NESTED)}


def _scenario_values(preset: mobility.ScenarioPreset) -> dict[str, object]:
    return {f"scenario.{k}": v for k, v in asdict(preset).items()
            if k not in ("name", "adjustments")}


def default_config() -> dict[str, object]:
    """Flat {section.key: value} map with every supported key, each default
    taken from the dataclass that the key configures."""
    out: dict[str, object] = {"run.scenario": _DEFAULT_SCENARIO, "run.scheme": _DEFAULT_SCHEME}
    for key, f in _run_fields().items():
        out[key] = f.default
    out["cr.calibration"] = ",".join(f"{cbp:g}:{density:g}" for cbp, density
                                     in out["cr.calibration"])
    for section, cls in _NESTED.items():
        out.update({f"{section}.{k}": v for k, v in asdict(cls()).items()})
    out.update(_scenario_values(mobility.preset_by_name(_DEFAULT_SCENARIO)))
    return out


# A value is converted to the type of its key's default, never to that of a
# value layered before it
_DEFAULTS = default_config()
# Keys whose field is declared `... | None` (only the nested configs declare
# one); they also take none, null or an empty value, for None
_OPTIONAL_KEYS = frozenset(
    f"{section}.{name}" for section, cls in _NESTED.items()
    for name, hint in get_type_hints(cls).items() if type(None) in get_args(hint))


def _convert(key: str, raw, default):
    """`raw` as the type of the key's `default`; a string is parsed."""
    if raw is None and key not in _OPTIONAL_KEYS:
        raise ConfigError(f"{key}: expected a value, got None")
    if not isinstance(raw, str):
        if isinstance(default, bool):
            return bool(raw)
        if isinstance(default, float) and isinstance(raw, (int, float)):
            return float(raw)
        return raw
    text = raw.strip()
    if key in _OPTIONAL_KEYS and text.lower() in ("none", "null", ""):
        return None
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if isinstance(default, bool):
        if text.lower() in ("true", "yes", "on", "1"):
            return True
        if text.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    return text


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


def _scheme_layer(name: str) -> dict[str, object]:
    scheme = dcc.scheme_by_name(name)
    return {**{f"rate.{k}": v for k, v in asdict(scheme.rate).items()},
            **{f"range.{k}": v for k, v in asdict(scheme.range).items()},
            **scheme.adjustments}


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
        _apply(resolved, _scheme_layer(str(scheme_name)), errors)
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


def parse_calibration(text: str) -> tuple[tuple[float, float], ...]:
    """Comma-separated cbp:density pairs, e.g. "0:0,0.5:100,1:200"."""
    points = []
    for part in str(text).split(","):
        cbp, _, density = part.partition(":")
        points.append((float(cbp), float(density)))
    return tuple(points)


def build_run_config(resolved: dict[str, object]) -> RunConfig:
    """Materialize the typed RunConfig; invariant violations become ConfigError."""
    errors: list[str] = []
    nested = {}
    for section, cls in _NESTED.items():
        try:
            nested[section] = cls(**_section(resolved, section))
        except (ValueError, TypeError) as e:
            errors.append(f"[{section}] {e}")
    try:
        preset = mobility.ScenarioPreset(name=str(resolved["run.scenario"]),
                                         **_section(resolved, "scenario"))
    except (ValueError, TypeError) as e:
        errors.append(f"[scenario] {e}")
    run = {f.name: type(f.default)(resolved[key]) for key, f in _run_fields().items()
           if key != "cr.calibration"}
    try:
        run["cr_calibration"] = parse_calibration(resolved["cr.calibration"])
    except ValueError as e:
        errors.append(f"cr.calibration: {e}")
    if errors:
        raise ConfigError(errors)

    scheme_name = str(resolved["run.scheme"])
    scheme = DccScheme(name=scheme_name, enabled=dcc.scheme_by_name(scheme_name).enabled,
                       rate=nested.pop("rate"), range=nested.pop("range"))
    cfg = RunConfig(scenario=preset, scheme=scheme, **nested, **run)
    try:
        cfg.validate()
    except ValueError as e:
        raise ConfigError([str(e)]) from None
    terms = cfg.memory_estimate_mib()
    need_mib = sum(terms.values())
    if need_mib > MEMORY_LIMIT_MIB:
        key = max(terms, key=terms.get)
        raise ConfigError(f"{key} = {resolved[key]} needs an estimated {need_mib:.0f} MiB, "
                          f"above the {MEMORY_LIMIT_MIB} MiB limit")
    return cfg


def write_manifest(path, resolved: dict[str, object], version: str) -> None:
    body = {"tool": "cv2xsim", "version": version,
            "config": {k: resolved[k] for k in sorted(resolved)}}
    with open(path, "w") as f:
        json.dump(body, f, indent=2, sort_keys=True)
        f.write("\n")
