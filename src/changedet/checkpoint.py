"""Binary model checkpoints.

Little-endian layout:

    magic  b"EOCD"
    u32    format version (currently 4)
    u32    config byte length, then the UTF-8 [model] block commands echo
    raw    every parameter's values, 4 bytes each, back to back in
           ``parameter_names`` order, and nothing after them

The config alone names and shapes every parameter, so the file stores no
names, shapes or counts; its values are laid out as the optimizer arena's
flat ``data``.  Values are stored as 32-bit reals; a model held in 64-bit
verification mode is narrowed on save.  Loading rebuilds the model from the
embedded config, which must be byte-equal to the block its values render
to; a non-finite value is a format error.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .config import RunConfig, effective_text, parse_run_config
from .errors import ConfigError, FormatError
from .fileio import read_input, write_atomic
from .model import ChangeDetector, conv_specs
from .tensor import REAL32, Tensor

MAGIC = b"EOCD"
VERSION = 4


def save_checkpoint(model: ChangeDetector, path) -> None:
    config_bytes = effective_text(RunConfig(model=model.config), ("model",)).encode("utf-8")
    chunks = [MAGIC, struct.pack("<II", VERSION, len(config_bytes)), config_bytes]
    chunks += [np.ascontiguousarray(p.data, dtype="<f4").tobytes() for p in model.params.values()]  # in config order
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path) -> ChangeDetector:
    """Rebuild a model from a checkpoint file."""
    path = Path(path)
    buf = read_input(path, "checkpoint")
    if buf[:4] != MAGIC:
        raise FormatError(f"{path.name}: bad magic, not a checkpoint file")
    if len(buf) < 12:
        raise FormatError(f"{path.name}: checkpoint truncated: {len(buf)} bytes, the header needs 12")
    version, config_len = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        raise FormatError(f"{path.name}: unsupported format version {version}, expected {VERSION}")
    pos = 12 + config_len
    if pos > len(buf):
        raise FormatError(f"{path.name}: checkpoint truncated: config of {config_len} bytes, {len(buf) - 12} remain")
    try:
        text = buf[12:pos].decode("utf-8")
        config = parse_run_config(text).model
        if effective_text(RunConfig(model=config), ("model",)) != text:
            raise ConfigError("not the [model] block its values render to")
    except (ConfigError, UnicodeDecodeError) as e:
        raise FormatError(f"{path.name}: bad embedded config: {e}")
    params: dict[str, Tensor] = {}
    for spec in conv_specs(config):
        for name, shape in spec.params:
            n_bytes = 4 * math.prod(shape)
            if n_bytes > len(buf) - pos:  # before allocating: a deep config stops at the first layer it lacks
                raise FormatError(
                    f"{path.name}: parameter {name!r} of shape {shape} needs {n_bytes} bytes, {len(buf) - pos} remain"
                )
            data = np.frombuffer(buf, "<f4", n_bytes // 4, pos).reshape(shape).astype(REAL32)
            if not np.isfinite(data).all():
                raise FormatError(f"{path.name}: tensor {name!r} holds non-finite values")
            params[name] = Tensor(data)
            pos += n_bytes
    if pos != len(buf):
        raise FormatError(f"{path.name}: {len(buf) - pos} trailing bytes after the last parameter")
    return ChangeDetector(config, params=params)
