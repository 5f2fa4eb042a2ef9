"""Run-configuration files: sectioned key=value text with strict keys.

Four sections (model, train, data, loss), every key optional with a
documented default, unknown sections or keys rejected outright so a typo
cannot silently fall back to a default.  `effective_text` renders a config
back to file syntax with every default resolved; parsing that text
reproduces the config exactly, which is what makes the echoed header of
each command sufficient to rerun it.  The config dataclasses are the
schema: the key table `SCHEMA` is derived from their fields, and run-config
parsing, the rendered text and the model text embedded in checkpoints all
read it.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields, is_dataclass, replace

from .data import SynthConfig
from .errors import ConfigError
from .model import ModelConfig, preset
from .train import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    data: SynthConfig = SynthConfig()


def _get(config, path: tuple):
    for step in path:
        config = config[step] if isinstance(step, int) else getattr(config, step)
    return config


# Each section's parts of RunConfig, in rendering order.  [model] also
# accepts `preset`, which picks the base model config and is never rendered.
_SECTIONS = {
    "model": (("model",),),
    "train": (("train",), ("train", "augment")),
    "data": (("data",),),
    "loss": (("train", "selection"), ("train", "weights")),
}

# Fields whose keys are not their names; a pair field is spelled as two keys.
_SPELLING = {
    "enabled": "augment",
    "scale_range": ("scale_min", "scale_max"),
    "blur_sigma": ("blur_sigma_min", "blur_sigma_max"),
    "shape_count": ("shape_min", "shape_max"),
    "change_fraction": ("change_min", "change_max"),
}


def _keys(parts: tuple[tuple, ...]):
    """(key, path) of each field of `parts` in declaration order; nested dataclasses are parts, not keys."""
    for part in parts:
        config = _get(RunConfig(), part)
        for f in fields(config):
            if is_dataclass(getattr(config, f.name)):
                continue
            spelled, path = _SPELLING.get(f.name, f.name), part + (f.name,)
            if isinstance(spelled, str):
                yield spelled, path
            else:
                yield from ((key, path + (i,)) for i, key in enumerate(spelled))


# Per section, in rendering order: each key and its path into RunConfig.  A
# trailing index addresses one end of a pair field.  A value's type is the
# type of its default.
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
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: expected on/off, got {raw!r}")


def _to_int_tuple(section: str, key: str, raw: str) -> tuple[int, ...]:
    return tuple(_to_int(section, key, part.strip()) for part in raw.split(","))


def _to_str(section: str, key: str, raw: str) -> str:
    return raw.strip()


_CONVERTERS = {bool: _to_bool, int: _to_int, float: _to_float, tuple: _to_int_tuple, str: _to_str, type(None): _to_str}


def _collect(section: str, items: dict[str, str]) -> dict[tuple, object]:
    """One section's raw values, converted and keyed by their path into RunConfig."""
    paths = dict(SCHEMA[section])
    unknown = sorted(set(items) - set(paths))
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {unknown}")
    convert = {key: _CONVERTERS[type(_get(RunConfig(), path))] for key, path in paths.items()}
    return {paths[key]: convert[key](section, key, raw) for key, raw in items.items()}


def _build(config, path: tuple, values: dict[tuple, object]):
    """Dataclass `config` at `path` rebuilt with `values`, children first, so each validates once."""
    changes = {}
    for f in fields(config):
        here = path + (f.name,)
        old = getattr(config, f.name)
        if is_dataclass(old):
            changes[f.name] = _build(old, here, values)
        elif isinstance(old, tuple) and here not in values:
            changes[f.name] = tuple(values.get(here + (i,), v) for i, v in enumerate(old))
        else:
            changes[f.name] = values.get(here, old)
    return replace(config, **changes)


def parse_run_config(text: str) -> RunConfig:
    """Parse sectioned key=value text; unknown sections or keys are errors."""
    # No section can be named "", so [DEFAULT] is an ordinary (unknown) section;
    # a header must end its line, or "[train] epochs = 3" would drop the key.
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="")
    parser.SECTCRE = re.compile(r"\[(?P<header>.+)\]$")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}")
    base, values = RunConfig(), {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}], expected one of {sorted(SCHEMA)}")
        items = dict(parser.items(section))
        if section == "model" and "preset" in items:
            base = RunConfig(model=preset(items.pop("preset")))
        values.update(_collect(section, items))
    if len(values.get(("model", "input_size"), ())) == 1:  # one value means a square
        values[("model", "input_size")] *= 2
    return _build(base, (), values)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_run_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")


def _lines(config: RunConfig, section: str, delimiter: str):
    for key, path in SCHEMA[section]:
        value = _get(config, path)
        if isinstance(value, bool):
            value = "on" if value else "off"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        if value is not None:
            yield f"{key}{delimiter}{value}"


def effective_text(config: RunConfig, sections: tuple[str, ...] = tuple(SCHEMA)) -> str:
    """Render `sections` with every default resolved; parses back to an equal config."""
    return "\n\n".join("\n".join([f"[{s}]", *_lines(config, s, " = ")]) for s in sections) + "\n"


def model_text(config: ModelConfig) -> str:
    """The config a checkpoint embeds: the [model] keys as key=value lines."""
    return "".join(line + "\n" for line in _lines(RunConfig(model=config), "model", "="))


def parse_model_text(text: str) -> ModelConfig:
    """Inverse of `model_text`; a missing key takes its default."""
    items = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        key, delimiter, raw = line.partition("=")
        key = key.strip()
        if not delimiter:
            raise ConfigError(f"model config line {lineno}: expected key=value, got {line!r}")
        if key in items:
            raise ConfigError(f"model config line {lineno}: duplicate key {key!r}")
        items[key] = raw.strip()
    return _build(ModelConfig(), ("model",), _collect("model", items))
