"""Checkpoint round-trips and corruption handling."""

import re
import struct

import numpy as np
import pytest

from changedet import model as M
from changedet.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from changedet.cli import main
from changedet.config import parse_model_text
from changedet.errors import DataError, FormatError


@pytest.fixture
def tiny_model():
    return M.ChangeDetector(M.preset("nano"), seed=100)


def test_round_trip_is_bit_exact(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == tiny_model.config
    for name, p in tiny_model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


def test_round_trip_preserves_forward_outputs(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(101)
    pre = rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32)
    post = rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32)
    a = tiny_model.forward(pre, post)
    b = loaded.forward(pre, post)
    assert np.array_equal(a.logits.data, b.logits.data)
    assert np.array_equal(a.boundary.data, b.boundary.data)


def test_truncated_file_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    for cut in (2, 7, 30, len(blob) // 2, len(blob) - 3):
        short = tmp_path / f"cut_{cut}.ckpt"
        short.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(short)


def test_bad_magic_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_unsupported_version_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", VERSION + 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _first_tensor_offset(blob: bytes) -> int:
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    return 16 + cfg_len  # magic, version, config length, config, tensor count


def _first_dtype_offset(blob: bytes) -> int:
    at = _first_tensor_offset(blob)
    return at + 4 + struct.unpack("<I", blob[at : at + 4])[0]  # past the name length and name


def _with_first_dims(blob: bytes, dims) -> bytes:
    """blob with the first tensor's dims header replaced (same ndim)."""
    dims_at = _first_dtype_offset(blob) + 1 + 4
    return blob[:dims_at] + struct.pack(f"<{len(dims)}I", *dims) + blob[dims_at + 4 * len(dims) :]


def _with_first_name(blob: bytes, name: bytes) -> bytes:
    at = _first_tensor_offset(blob)
    name_len = struct.unpack("<I", blob[at : at + 4])[0]
    assert len(name) == name_len
    return blob[: at + 4] + name + blob[at + 4 + name_len :]


def test_dims_whose_product_overflows_rejected(tiny_model, tmp_path):
    # 65536**4 wraps to 0 in 64-bit integers; the size must still be refused.
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    for dims in ((65536,) * 4, (2**32 - 1, 2**32 - 1, 1, 1), (1, 1, 1, 2**30)):
        bad = tmp_path / "dims.ckpt"
        bad.write_bytes(_with_first_dims(blob, dims))
        with pytest.raises(FormatError, match="needs"):
            load_checkpoint(bad)


def test_non_utf8_tensor_name_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    name_len = len(M.parameter_names(tiny_model.config)[0].encode("utf-8"))
    path.write_bytes(_with_first_name(blob, b"\xff" * name_len))
    with pytest.raises(FormatError, match="UTF-8"):
        load_checkpoint(path)


def test_tensor_name_outside_the_config_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    first = M.parameter_names(tiny_model.config)[0].encode("utf-8")
    path.write_bytes(_with_first_name(path.read_bytes(), first[:-1] + b"z"))
    with pytest.raises(FormatError, match="tensor names do not match the config"):
        load_checkpoint(path)


def test_unknown_dtype_code_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    at = _first_dtype_offset(blob)
    path.write_bytes(blob[:at] + b"\x07" + blob[at + 1 :])
    with pytest.raises(FormatError, match="unknown dtype code 7 for tensor 'stem.pre.w'"):
        load_checkpoint(path)


def test_tensor_of_rank_other_than_4_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    at = _first_dtype_offset(blob) + 1
    path.write_bytes(blob[:at] + struct.pack("<I", 3) + blob[at + 4 :])
    with pytest.raises(FormatError, match="tensor 'stem.pre.w' has ndim 3, expected 4"):
        load_checkpoint(path)


def test_duplicate_tensor_name_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    first, second = (n.encode("utf-8") for n in M.parameter_names(tiny_model.config)[:2])
    assert len(first) == len(second)
    blob = path.read_bytes()
    at = blob.index(second, _first_tensor_offset(blob))
    path.write_bytes(blob[:at] + first + blob[at + len(second) :])
    with pytest.raises(FormatError, match="duplicate tensor 'stem.pre.w'"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_tensor_rejected(tiny_model, tmp_path, value):
    name = M.parameter_names(tiny_model.config)[-1]
    tiny_model.params[name].data[0, 0, 0, 0] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    with pytest.raises(FormatError, match=re.escape(f"model.ckpt: tensor {name!r} holds non-finite values")):
        load_checkpoint(path)


@pytest.mark.parametrize("missing", ["absent.ckpt", "."], ids=["no-such-file", "a-directory"])
def test_path_that_is_not_a_file_reported_as_not_found(tmp_path, missing):
    with pytest.raises(DataError, match="checkpoint not found: "):
        load_checkpoint(tmp_path / missing)


def test_cli_eval_on_malformed_checkpoint_exits_2(tiny_model, tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    name_len = len(M.parameter_names(tiny_model.config)[0].encode("utf-8"))
    for i, bad_blob in enumerate((_with_first_dims(blob, (65536,) * 4), _with_first_name(blob, b"\xff" * name_len))):
        bad = tmp_path / f"bad{i}.ckpt"
        bad.write_bytes(bad_blob)
        code = main(["eval", "--ckpt", str(bad), "--data", str(tmp_path / "no_data")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad.name}:")


def test_header_layout_is_the_documented_one(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert struct.unpack("<I", blob[4:8])[0] == VERSION
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    cfg_text = blob[12 : 12 + cfg_len].decode("utf-8")
    assert parse_model_text(cfg_text) == tiny_model.config
    count = struct.unpack("<I", blob[12 + cfg_len : 16 + cfg_len])[0]
    assert count == len(M.parameter_names(tiny_model.config))


TINY_MODEL_TEXT = (
    "stem_channels=8\nencoder_widths=16,32,64,128\nencoder_depths=1,1,2,1\n"
    "head_hidden=64\ninput_size=64,64\nfusion_mode=emff\n"
)


def _with_config_text(blob: bytes, text: bytes) -> bytes:
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + cfg_len :]


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.ckpt"
    save_checkpoint(M.ChangeDetector(M.preset("tiny"), seed=1), path)
    return path.read_bytes()


def test_embedded_model_text_is_pinned(tiny_blob):
    cfg_len = struct.unpack("<I", tiny_blob[8:12])[0]
    assert tiny_blob[12 : 12 + cfg_len].decode("utf-8") == TINY_MODEL_TEXT


def test_every_truncation_and_deletion_of_model_text_raises_only_format_error(tiny_blob, tmp_path):
    text = TINY_MODEL_TEXT
    variants = [text[:i] for i in range(len(text))] + [text[:i] + text[i + 1 :] for i in range(len(text))]
    path = tmp_path / "variant.ckpt"
    for variant in variants:
        path.write_bytes(_with_config_text(tiny_blob, variant.encode("utf-8")))
        try:
            load_checkpoint(path)
        except FormatError:
            pass


def test_duplicate_embedded_key_rejected(tiny_blob, tmp_path):
    path = tmp_path / "dup.ckpt"
    path.write_bytes(_with_config_text(tiny_blob, (TINY_MODEL_TEXT + "head_hidden=64\n").encode("utf-8")))
    with pytest.raises(FormatError, match="duplicate key 'head_hidden'"):
        load_checkpoint(path)


def test_tensor_shape_contradicting_embedded_config_rejected(tiny_blob, tmp_path):
    path = tmp_path / "narrow.ckpt"
    text = TINY_MODEL_TEXT.replace("head_hidden=64\n", "head_hidden=6\n\n")  # same length
    path.write_bytes(_with_config_text(tiny_blob, text.encode("utf-8")))
    want = "narrow.ckpt: parameter 'head.fc1.w' has shape (64, 144, 1, 1), config expects (6, 144, 1, 1)"
    with pytest.raises(FormatError, match=re.escape(want)):
        load_checkpoint(path)


def test_cli_eval_on_one_value_input_size_exits_2(tiny_blob, tmp_path, capsys):
    path = tmp_path / "square.ckpt"
    path.write_bytes(_with_config_text(tiny_blob, TINY_MODEL_TEXT.replace("input_size=64,64", "input_size=96").encode("utf-8")))
    code = main(["eval", "--ckpt", str(path), "--data", str(tmp_path / "no_data")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: square.ckpt: bad embedded config:")
    assert "input_size needs 2 values" in err


def test_fusion_modes_have_different_name_sets(tmp_path):
    emff_names = set(M.parameter_names(M.preset("nano")))
    naive_names = set(M.parameter_names(M.preset("nano", fusion_mode="naive")))
    assert naive_names - emff_names == {"fuse.proj.w", "fuse.proj.b"}
    assert emff_names < naive_names


def test_naive_checkpoint_round_trips(tmp_path):
    net = M.ChangeDetector(M.preset("nano", fusion_mode="naive"), seed=102)
    path = tmp_path / "naive.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config.fusion_mode == "naive"
    assert np.array_equal(loaded.params["fuse.proj.w"].data, net.params["fuse.proj.w"].data)


def test_float64_model_is_narrowed_on_save(tmp_path):
    net = M.ChangeDetector(M.preset("nano"), seed=103, dtype=np.float64)
    path = tmp_path / "wide.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.params["head.fc1.w"].dtype == np.float32
    np.testing.assert_allclose(
        loaded.params["head.fc1.w"].data, net.params["head.fc1.w"].data, rtol=1e-6
    )
