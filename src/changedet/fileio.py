"""Whole-file reads, and writes that never leave a half-written target.

Every input file is read through read_input, which reports a missing one;
every output but the streamed ``--log`` file is written through write_atomic.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import DataError


def read_input(path, what: str) -> bytes:
    """The bytes of the file at path.  A path that names no file, or a directory,
    raises ``DataError("<what> not found: <path>")``, showing an unprintable path
    by repr; one holding a NUL byte, which no OS accepts, raises another DataError."""
    try:
        return Path(path).read_bytes()
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
        shown = str(path) if str(path).isprintable() else repr(str(path))
        raise DataError(f"{what} not found: {shown}") from None
    except ValueError:
        raise DataError(f"{what} path {str(path)!r} holds a NUL byte") from None


def write_atomic(path, payload: bytes) -> None:
    """Write payload to path through a temporary file in the same directory
    and ``os.replace``, so an interrupted write leaves the old file whole.

    The temporary file is removed when the write fails, and an OSError names
    path, not the temporary file.  There is no fsync:
    this survives the process dying, not the machine losing power, and a
    synthetic dataset writes hundreds of files.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            # a fresh error: OSError's text shows filename2 once it is set, even to None
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise
