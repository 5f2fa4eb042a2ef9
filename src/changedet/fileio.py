"""Whole-file writes that never leave a half-written target.

Checkpoints, netpbm images and dataset manifests are written through
write_atomic; only the streamed ``--log`` file is not.
"""

from __future__ import annotations

import os
from pathlib import Path


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
            exc.filename, exc.filename2 = str(path), None
        raise
