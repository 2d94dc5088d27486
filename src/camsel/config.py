"""Experiment config files: JSON with strict keys and dotted-path overrides.

A section's keys are the fields of the dataclass it builds, and its values
reach that dataclass unchanged: the dataclasses own every default and check.
A misspelled key fails loudly with its full path. Overrides look like
``agent.alpha=0.5`` and must name a schema key; values are parsed as JSON
with a plain-string fallback.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .core import LinkFunctionSpec
from .environment import WorldConfig
from .errors import ConfigError
from .harness import ExperimentConfig
from .policy import AgentConfig

CONFIG_SCHEMA_VERSION = 1

_TOP_KEYS = ("schema_version", "world", "world_path", "world_seed", "agent",
             "experiment", "schedule")
# the ExperimentConfig fields that the top level fills
_TOP_FIELDS = ("agent", "world", "world_path", "world_seed", "schedule_events")
_SCHEDULE_KEYS = ("round", "camera", "group")


def _names(cls, skip=()) -> list:
    return [f.name for f in fields(cls) if f.name not in skip]


KNOWN_PATHS = frozenset(
    list(_TOP_KEYS)
    + [f"{section}.{key}" for section, cls in (("world", WorldConfig), ("agent", AgentConfig))
       for key in _names(cls) + [f"link.{k}" for k in _names(LinkFunctionSpec)]]
    + [f"experiment.{key}" for key in _names(ExperimentConfig, _TOP_FIELDS)])


def _check_keys(mapping: dict, allowed, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")


def _section(cls, data, where: str, outside=(), **given):
    """``cls`` built from the config section ``data``, which may name any of
    its fields but those ``outside``; ``given`` supplies values from outside
    it. A ``link`` object is built as a nested section; null is the default."""
    _check_keys(data, _names(cls, outside), where)
    kwargs = {**data, **given}
    link = kwargs.pop("link", None)
    if link is not None:
        kwargs["link"] = _section(LinkFunctionSpec, link, f"{where}.link")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # a link's own checks do not say which of the two links failed them
        if isinstance(exc, ConfigError) and cls is not LinkFunctionSpec:
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def _schedule_from(data, where: str) -> tuple:
    if data is None:
        return ()
    if not isinstance(data, list):
        raise ConfigError(f"{where}: expected a list of events")
    events = []
    for i, entry in enumerate(data):
        _check_keys(entry, _SCHEDULE_KEYS, f"{where}[{i}]")
        try:
            events.append(tuple(entry[key] for key in _SCHEDULE_KEYS))
        except KeyError as exc:
            raise ConfigError(f"{where}[{i}]: missing field {exc.args[0]!r}") from exc
    return tuple(events)


def config_from_dict(data: dict) -> ExperimentConfig:
    _check_keys(data, _TOP_KEYS, "config")
    version = data.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config: unsupported schema_version {version}")
    world_path = data.get("world_path")
    world = None
    if world_path is None:
        world = _section(WorldConfig, data.get("world", {}), "world")
    elif "world" in data and data["world"] is not None:
        raise ConfigError("config: give either world or world_path, not both")
    seed = {"world_seed": data["world_seed"]} if "world_seed" in data else {}
    return _section(ExperimentConfig, data.get("experiment", {}), "experiment", _TOP_FIELDS,
                    agent=_section(AgentConfig, data.get("agent", {}), "agent"),
                    world=world, world_path=world_path,
                    schedule_events=_schedule_from(data.get("schedule"), "schedule"), **seed)


def parse_override(item: str):
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like key.path=value")
    path, raw = item.split("=", 1)
    path = path.strip()
    if path not in KNOWN_PATHS:
        raise ConfigError(f"override names unknown key {path!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def apply_overrides(data: dict, overrides) -> dict:
    for item in overrides:
        path, value = parse_override(item)
        keys = path.split(".")
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {path!r} descends into a non-object")
        node[keys[-1]] = value
    return data


def load_config(path, overrides=()) -> ExperimentConfig:
    """Parse, apply overrides, validate; raises ConfigError with field paths."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    data = apply_overrides(data, overrides)
    return config_from_dict(data)
