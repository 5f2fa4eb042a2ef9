"""Run-configuration files: sectioned key=value text with strict keys.

Four sections (model, train, data, loss), every key optional with a
documented default, unknown sections or keys rejected outright so a typo
cannot silently fall back to a default.  `effective_text` renders a config
back to file syntax with every default resolved; parsing that text
reproduces the config exactly, which is what makes the echoed header of
each command sufficient to rerun it.  Each section is one flat dataclass,
a field of `RunConfig`, and its keys are that dataclass's fields: `SCHEMA`
is read off them, and parsing and rendering both read it.  A checkpoint
embeds its [model] block as this same text and reads it with
`parse_run_config`, so there is one grammar.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields, replace

from .data import SynthConfig
from .errors import ConfigError
from .fileio import read_input
from .losses import LossConfig
from .model import ModelConfig, preset
from .train import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    data: SynthConfig = SynthConfig()
    loss: LossConfig = LossConfig()


# Each section's keys in rendering order: the fields of its dataclass, whose
# default's type is a value's type.  [model] also accepts `preset`, which
# picks the base model config and is never rendered.
SCHEMA: dict[str, tuple[str, ...]] = {s.name: tuple(f.name for f in fields(s.default)) for s in fields(RunConfig)}


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


# configparser has stripped every value, so a string (or a None default's key) is taken as it is.
_CONVERTERS = {bool: _to_bool, int: _to_int, float: _to_float, tuple: _to_int_tuple}


def _collect(section: str, items: dict[str, str]) -> dict[str, object]:
    """One section's raw values, converted to the types of its fields."""
    unknown = sorted(set(items) - set(SCHEMA[section]))
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {unknown}")
    default = getattr(RunConfig(), section)
    convert = {key: _CONVERTERS.get(type(getattr(default, key))) for key in items}
    return {key: convert[key](section, key, raw) if convert[key] else raw for key, raw in items.items()}


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
        values[section] = _collect(section, items)
    return replace(base, **{s: replace(getattr(base, s), **changes) for s, changes in values.items()})


def load_run_config(path) -> RunConfig:
    try:
        return parse_run_config(read_input(path, "config file").decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")


def _lines(config: RunConfig, section: str):
    for key in SCHEMA[section]:
        value = getattr(getattr(config, section), key)
        if isinstance(value, bool):
            value = "on" if value else "off"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        if value is not None:
            yield f"{key} = {value}"


def effective_text(config: RunConfig, sections: tuple[str, ...] = tuple(SCHEMA)) -> str:
    """Render `sections` with every default resolved; parses back to an equal config."""
    return "\n\n".join("\n".join([f"[{s}]", *_lines(config, s)]) for s in sections) + "\n"
