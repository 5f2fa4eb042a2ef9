"""Binary Netpbm I/O: P6 color images, P5 grayscale masks, maxval 255.

Values map to reals by /255 on load and round(v*255) with clamping on save,
so any image already on the 1/255 grid round-trips bit-exactly.  Only the
binary variants are supported; ASCII files are rejected.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError
from .fileio import read_input, write_atomic


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def _read_header(buf: bytes, magic: bytes, path: Path) -> tuple[int, int, int]:
    """Parse '<magic> <width> <height> <maxval>' with comments; returns
    (width, height, payload offset)."""
    if buf[:2] != magic:
        raise FormatError(f"{path.name}: bad magic {buf[:2]!r}, expected {magic.decode()}")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(buf):
            raise FormatError(f"{path.name}: header ended before width/height/maxval")
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(buf) and buf[pos : pos + 1].isdigit():
                pos += 1
            try:
                fields.append(int(buf[start:pos]))
            except ValueError:  # past Python's int-string digit limit
                raise FormatError(f"{path.name}: header number of {pos - start} digits is too long")
        else:
            raise FormatError(f"{path.name}: unexpected byte {c!r} in header")
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise FormatError(f"{path.name}: missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header from payload
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path.name}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path.name}: maxval {maxval} unsupported, expected 255")
    return width, height, pos


def _payload(buf: bytes, offset: int, expected: int, path: Path) -> np.ndarray:
    got = len(buf) - offset
    if got < expected:
        raise FormatError(f"{path.name}: payload has {got} bytes, expected {expected}")
    if got > expected:
        raise FormatError(f"{path.name}: {got - expected} trailing bytes after payload")
    return np.frombuffer(buf, dtype=np.uint8, count=expected, offset=offset)


def save_ppm(image: np.ndarray, path) -> None:
    """Write a (3,H,W) image with values in [0,1] as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise FormatError(f"save_ppm needs a (3,H,W) image, got {image.shape}")
    _, h, w = image.shape
    data = _quantize(image).transpose(1, 2, 0)  # H,W,RGB interleaved
    write_atomic(path, b"P6\n%d %d\n255\n" % (w, h) + data.tobytes())


def load_ppm(path) -> np.ndarray:
    """Read a binary P6 file into a (3,H,W) float32 image in [0,1]."""
    path = Path(path)
    buf = read_input(path, "image")
    w, h, offset = _read_header(buf, b"P6", path)
    flat = _payload(buf, offset, 3 * h * w, path)
    return (flat.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float32)) / np.float32(255.0)


def save_pgm(mask: np.ndarray, path) -> None:
    """Write an (H,W) map with values in [0,1] as binary P5 (0..255)."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise FormatError(f"save_pgm needs an (H,W) map, got {mask.shape}")
    h, w = mask.shape
    write_atomic(path, b"P5\n%d %d\n255\n" % (w, h) + _quantize(mask).tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a binary P5 file into an (H,W) float32 map in [0,1]."""
    path = Path(path)
    buf = read_input(path, "image")
    w, h, offset = _read_header(buf, b"P5", path)
    flat = _payload(buf, offset, h * w, path)
    return flat.reshape(h, w).astype(np.float32) / np.float32(255.0)
