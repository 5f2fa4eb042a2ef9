"""Binary model checkpoints.

Little-endian layout:

    magic  b"EOCD"
    u32    format version (currently 1)
    u32    config byte length, then UTF-8 key=value config text
    u32    tensor count
    per tensor:
        u32  name byte length, then UTF-8 name
        u8   dtype code (0 = 32-bit real)
        u32  ndim, then u32 dims[ndim]
        raw  values, 4 bytes each

Values are stored as 32-bit reals; a model held in 64-bit verification mode
is narrowed on save.  Loading rebuilds the model from the embedded config,
so a checkpoint is self-contained; a non-finite value is a format error.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .config import model_text, parse_model_text
from .errors import ConfigError, DataError, FormatError
from .fileio import write_atomic
from .model import ChangeDetector, parameter_names
from .tensor import REAL32, Tensor

MAGIC = b"EOCD"
VERSION = 1
DTYPE_REAL32 = 0


def save_checkpoint(model: ChangeDetector, path) -> None:
    config_bytes = model_text(model.config).encode("utf-8")
    names = parameter_names(model.config)
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(config_bytes)), config_bytes]
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        data = np.ascontiguousarray(model.params[name].data, dtype="<f4")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", DTYPE_REAL32))
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    write_atomic(path, b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]


def load_checkpoint(path) -> ChangeDetector:
    """Rebuild a model from a checkpoint file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    r = _Reader(path.read_bytes())
    if r.take(4) != MAGIC:
        raise FormatError(f"{path.name}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"{path.name}: unsupported format version {version}, expected {VERSION}")
    try:
        config = parse_model_text(r.take(r.u32()).decode("utf-8"))
    except (ConfigError, UnicodeDecodeError) as e:
        raise FormatError(f"{path.name}: bad embedded config: {e}")
    count = r.u32()
    tensors: dict[str, Tensor] = {}
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path.name}: tensor name is not UTF-8: {e}")
        dtype_code = r.u8()
        if dtype_code != DTYPE_REAL32:
            raise FormatError(f"{path.name}: unknown dtype code {dtype_code} for tensor {name!r}")
        ndim = r.u32()
        if ndim != 4:
            raise FormatError(f"{path.name}: tensor {name!r} has ndim {ndim}, expected 4")
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
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
    want = parameter_names(config)
    if set(tensors) != set(want):
        diff = sorted(set(tensors) ^ set(want))
        raise FormatError(f"{path.name}: tensor names do not match the config: {diff[:6]}")
    ordered = {name: tensors[name] for name in want}
    try:
        return ChangeDetector(config, params=ordered)
    except ConfigError as e:  # the tensors contradict the embedded config
        raise FormatError(f"{path.name}: {e}")
