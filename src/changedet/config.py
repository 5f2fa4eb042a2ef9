"""Run-configuration files: sectioned key=value text with strict keys.

Four sections (model, train, data, loss), every key optional with a
documented default, unknown sections or keys rejected outright so a typo
cannot silently fall back to a default.  `effective_text` renders a config
back to file syntax with every default resolved; parsing that text
reproduces the config exactly, which is what makes the echoed header of
each command sufficient to rerun it.  The config dataclasses are the
schema: the key table `SCHEMA` is derived from their fields, and parsing
and rendering both read it.  A checkpoint embeds its [model] block as this
same text and reads it with `parse_run_config`, so there is one grammar.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields, is_dataclass, replace

from .data import SynthConfig
from .errors import ConfigError
from .fileio import read_input
from .model import ModelConfig, preset
from .train import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    data: SynthConfig = SynthConfig()


def _get(config, path: tuple):
    for name in path:
        config = getattr(config, name)
    return config


# Each section's parts of RunConfig, in rendering order.  [model] also
# accepts `preset`, which picks the base model config and is never rendered.
_SECTIONS = {
    "model": (("model",),),
    "train": (("train",), ("train", "augment")),
    "data": (("data",),),
    "loss": (("train", "selection"), ("train", "weights")),
}


def _keys(parts: tuple[tuple, ...]):
    """(key, path) of each field of `parts` in declaration order; nested dataclasses are parts, not keys."""
    for part in parts:
        config = _get(RunConfig(), part)
        for f in fields(config):
            if not is_dataclass(getattr(config, f.name)):
                yield f.metadata.get("key", f.name), part + (f.name,)


# Per section, in rendering order: each key (its field's name, or the field's
# metadata["key"]) and its path into RunConfig.  A value's type is the type
# of its default.
SCHEMA: dict[str, tuple[tuple[str, tuple], ...]] = {s: tuple(_keys(parts)) for s, parts in _SECTIONS.items()}


def _to_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")


def _to_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _to_bool(section: str, key: str, raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ConfigError(f"[{section}] {key}: expected on/off, got {raw!r}")


def _to_int_tuple(section: str, key: str, raw: str) -> tuple[int, ...]:
    if "\n" in raw:  # an indented line joined on; int() would strip the line break after a comma
        raise ConfigError(f"[{section}] {key}: a value must fit on one line, got {raw!r}")
    return tuple(_to_int(section, key, part.strip()) for part in raw.split(","))


# configparser has stripped every value, so a string (or a None default's path) is taken as it is.
_CONVERTERS = {bool: _to_bool, int: _to_int, float: _to_float, tuple: _to_int_tuple}


def _collect(section: str, items: dict[str, str]) -> dict[tuple, object]:
    """One section's raw values, converted and keyed by their path into RunConfig."""
    paths = dict(SCHEMA[section])
    unknown = sorted(set(items) - set(paths))
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {unknown}")
    convert = {key: _CONVERTERS.get(type(_get(RunConfig(), path))) for key, path in paths.items()}
    return {paths[key]: convert[key](section, key, raw) if convert[key] else raw for key, raw in items.items()}


def _build(config, path: tuple, values: dict[tuple, object]):
    """Dataclass `config` at `path` rebuilt with `values`, children first, so each validates once."""
    changes = {}
    for f in fields(config):
        here = path + (f.name,)
        old = getattr(config, f.name)
        changes[f.name] = _build(old, here, values) if is_dataclass(old) else values.get(here, old)
    return replace(config, **changes)


def parse_run_config(text: str) -> RunConfig:
    """Parse sectioned key=value text; unknown sections or keys are errors."""
    # No section can be named "", so [DEFAULT] is an ordinary (unknown) section;
    # a header must end its line, or "[train] epochs = 3" would drop the key.
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="")
    parser.SECTCRE = re.compile(r"\[(?P<header>.+)\]$")
    parser.optionxform = str  # keys are case-sensitive, like sections
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # its message spans lines; an error is one line
        raise ConfigError(" ".join(str(exc).split()))
    base, values = RunConfig(), {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}], expected one of {sorted(SCHEMA)}")
        items = dict(parser.items(section))
        if section == "model" and "preset" in items:
            base = RunConfig(model=preset(items.pop("preset")))
        values.update(_collect(section, items))
    return _build(base, (), values)


def load_run_config(path) -> RunConfig:
    try:
        return parse_run_config(read_input(path, "config file").decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")


def _lines(config: RunConfig, section: str):
    for key, path in SCHEMA[section]:
        value = _get(config, path)
        if isinstance(value, bool):
            value = "on" if value else "off"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        if value is not None:
            yield f"{key} = {value}"


def effective_text(config: RunConfig, sections: tuple[str, ...] = tuple(SCHEMA)) -> str:
    """Render `sections` with every default resolved; parses back to an equal config."""
    return "\n\n".join("\n".join([f"[{s}]", *_lines(config, s)]) for s in sections) + "\n"
