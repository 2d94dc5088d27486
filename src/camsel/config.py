"""Experiment config files: JSON with strict keys and dotted-path overrides.

Every field is either recognized or rejected; a misspelled key fails loudly
with its full path. Overrides look like ``agent.alpha=0.5`` and must name a
schema key; values are parsed as JSON with a plain-string fallback.
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

_LINK_KEYS = ("kind", "domain_bound")
# the world and agent sections are passed to their classes as keyword arguments
_WORLD_KEYS = tuple(f.name for f in fields(WorldConfig))
_AGENT_KEYS = tuple(f.name for f in fields(AgentConfig))
_EXPERIMENT_KEYS = ("variants", "horizon", "seeds", "window", "target",
                    "greedy_profile_rounds", "workers", "output_dir")
_TOP_KEYS = ("schema_version", "world", "world_path", "world_seed", "agent",
             "experiment", "schedule")
_SCHEDULE_KEYS = ("round", "camera", "group")


def _known_paths():
    paths = set(_TOP_KEYS)
    for key in _WORLD_KEYS:
        paths.add(f"world.{key}")
    for key in _AGENT_KEYS:
        paths.add(f"agent.{key}")
    for key in _EXPERIMENT_KEYS:
        paths.add(f"experiment.{key}")
    for key in _LINK_KEYS:
        paths.add(f"world.link.{key}")
        paths.add(f"agent.link.{key}")
    return paths


KNOWN_PATHS = _known_paths()


def _check_keys(mapping: dict, allowed, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")


def _link_from(data, where: str) -> LinkFunctionSpec:
    if data is None:
        return LinkFunctionSpec()
    _check_keys(data, _LINK_KEYS, where)
    try:
        return LinkFunctionSpec(kind=data.get("kind", "sigmoid"),
                                domain_bound=float(data.get("domain_bound", 2.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _world_from(data, where: str) -> WorldConfig:
    _check_keys(data, _WORLD_KEYS, where)
    kwargs = {k: v for k, v in data.items() if k != "link"}
    if "group_sizes" in kwargs and kwargs["group_sizes"] is not None:
        kwargs["group_sizes"] = tuple(kwargs["group_sizes"])
    try:
        return WorldConfig(link=_link_from(data.get("link"), f"{where}.link"), **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _agent_from(data, where: str) -> AgentConfig:
    _check_keys(data, _AGENT_KEYS, where)
    kwargs = {k: v for k, v in data.items() if k != "link"}
    try:
        return AgentConfig(link=_link_from(data.get("link"), f"{where}.link"), **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
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
            events.append((int(entry["round"]), int(entry["camera"]), int(entry["group"])))
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
        world = _world_from(data.get("world", {}), "world")
    elif "world" in data and data["world"] is not None:
        raise ConfigError("config: give either world or world_path, not both")
    agent = _agent_from(data.get("agent", {}), "agent")
    exp = data.get("experiment", {})
    _check_keys(exp, _EXPERIMENT_KEYS, "experiment")
    try:
        return ExperimentConfig(
            agent=agent,
            world=world,
            world_path=world_path,
            world_seed=int(data.get("world_seed", 0)),
            variants=tuple(exp.get("variants", ("default",))),
            horizon=int(exp.get("horizon", 1000)),
            seeds=tuple(exp.get("seeds", (0,))),
            window=int(exp.get("window", 200)),
            target=float(exp.get("target", 0.8)),
            greedy_profile_rounds=int(exp.get("greedy_profile_rounds", 200)),
            schedule_events=_schedule_from(data.get("schedule"), "schedule"),
            output_dir=exp.get("output_dir"),
            workers=int(exp.get("workers", 1)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


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
