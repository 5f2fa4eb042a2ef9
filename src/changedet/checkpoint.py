"""Binary model checkpoints.

Little-endian layout:

    magic  b"EOCD"
    u32    format version (currently 3)
    u32    config byte length, then the UTF-8 [model] block commands echo
    u32    tensor count
    per tensor:
        u32  name byte length, then UTF-8 name
        u32  dims[4]
        raw  values, 4 bytes each

Values are stored as 32-bit reals; a model held in 64-bit verification mode
is narrowed on save.  Loading rebuilds the model from the embedded config,
which must be byte-equal to the block its values render to; a non-finite
value is a format error.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .config import RunConfig, effective_text, parse_run_config
from .errors import ConfigError, FormatError
from .fileio import read_input, write_atomic
from .model import ChangeDetector
from .tensor import REAL32, Tensor

MAGIC = b"EOCD"
VERSION = 3


def save_checkpoint(model: ChangeDetector, path) -> None:
    config_bytes = effective_text(RunConfig(model=model.config), ("model",)).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(config_bytes)), config_bytes]
    chunks.append(struct.pack("<I", len(model.params)))
    for name, p in model.params.items():
        data = np.ascontiguousarray(p.data, dtype="<f4")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<4I", *data.shape))
        chunks.append(data.tobytes())
    write_atomic(path, b"".join(chunks))


class _Reader:
    def __init__(self, path: Path):
        self.name = path.name
        self.buf = read_input(path, "checkpoint")
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.name}: checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> ChangeDetector:
    """Rebuild a model from a checkpoint file."""
    path = Path(path)
    r = _Reader(path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path.name}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"{path.name}: unsupported format version {version}, expected {VERSION}")
    try:
        text = r.take(r.u32()).decode("utf-8")
        config = parse_run_config(text).model
        if effective_text(RunConfig(model=config), ("model",)) != text:
            raise ConfigError("not the [model] block its values render to")
    except (ConfigError, UnicodeDecodeError) as e:
        raise FormatError(f"{path.name}: bad embedded config: {e}")
    count = r.u32()
    tensors: dict[str, Tensor] = {}
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path.name}: tensor name is not UTF-8: {e}")
        dims = struct.unpack("<4I", r.take(16))
        n_bytes = 4 * math.prod(dims)
        if n_bytes > len(r.buf) - r.pos:
            raise FormatError(
                f"{path.name}: tensor {name!r} of shape {dims} needs {n_bytes} bytes, "
                f"{len(r.buf) - r.pos} remain"
            )
        raw = r.take(n_bytes)
        data = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(REAL32)
        if not np.isfinite(data).all():
            raise FormatError(f"{path.name}: tensor {name!r} holds non-finite values")
        if name in tensors:
            raise FormatError(f"{path.name}: duplicate tensor {name!r}")
        tensors[name] = Tensor(data)
    if r.pos != len(r.buf):
        raise FormatError(f"{path.name}: {len(r.buf) - r.pos} trailing bytes after last tensor")
    try:
        return ChangeDetector(config, params=tensors)
    except ConfigError as e:  # the tensors contradict the embedded config
        raise FormatError(f"{path.name}: {e}")
