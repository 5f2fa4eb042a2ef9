"""One reader reports every missing input file; every file writer replaces
its target whole or not at all."""

import errno
import os
import re
from pathlib import Path

import numpy as np
import pytest

from changedet import netpbm
from changedet.checkpoint import save_checkpoint
from changedet.data import SynthConfig, generate_synthetic_dataset
from changedet.errors import DataError
from changedet.fileio import read_input
from changedet.model import ChangeDetector, preset

WRITERS = {
    "checkpoint": lambda root, target: save_checkpoint(ChangeDetector(preset("nano"), seed=0), target),
    "ppm": lambda root, target: netpbm.save_ppm(np.zeros((3, 2, 2), np.float32), target),
    "pgm": lambda root, target: netpbm.save_pgm(np.zeros((2, 2), np.float32), target),
    "manifest": lambda root, target: generate_synthetic_dataset(
        SynthConfig(image_size=32, train_count=1, val_count=0, test_count=0), root
    ),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_replace_keeps_the_old_file_and_leaves_no_temp(kind, tmp_path, monkeypatch):
    target = tmp_path / "train" / ("manifest.txt" if kind == "manifest" else "old.bin")
    target.parent.mkdir()
    target.write_bytes(b"the previous good file")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("interrupted")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="interrupted"):
        WRITERS[kind](tmp_path, target)
    assert target.read_bytes() == b"the previous good file"
    assert [p.name for p in target.parent.iterdir() if p.is_file()] == [target.name]


@pytest.mark.parametrize("kind", ["checkpoint", "ppm", "pgm"])
def test_missing_directory_error_names_the_target_not_the_temp_file(kind, tmp_path):
    target = tmp_path / "nodir" / "m.pgm"
    with pytest.raises(FileNotFoundError) as info:
        WRITERS[kind](tmp_path, target)
    assert info.value.filename == str(target)
    assert str(info.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(target)!r}"


@pytest.mark.parametrize("name", ["absent.bin", "."], ids=["no-such-file", "a-directory"])
def test_read_input_reports_a_missing_file_or_a_directory_as_not_found(tmp_path, name):
    with pytest.raises(DataError, match=f"^thing not found: {re.escape(str(tmp_path / name))}$"):
        read_input(tmp_path / name, "thing")


@pytest.mark.parametrize("load", [netpbm.load_ppm, netpbm.load_pgm], ids=["ppm", "pgm"])
def test_netpbm_loader_reports_a_missing_file_as_not_found(tmp_path, load):
    with pytest.raises(DataError, match=f"^image not found: {re.escape(str(tmp_path / 'absent'))}$"):
        load(tmp_path / "absent")
