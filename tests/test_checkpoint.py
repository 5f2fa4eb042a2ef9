"""Checkpoint round-trips and corruption handling."""

import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from changedet import model as M
from changedet.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from changedet.cli import main
from changedet.config import RunConfig, effective_text, parse_run_config
from changedet.errors import DataError, FormatError
from changedet.optim import init_state
from changedet.profiling import param_counts


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
        with pytest.raises(FormatError, match=rf"^cut_{cut}\.ckpt: "):
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
    blob = path.read_bytes()
    for version in (1, 2, 3, VERSION + 9):
        path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(FormatError, match=rf"^model\.ckpt: unsupported format version {version}, expected {VERSION}$"):
            load_checkpoint(path)


def test_trailing_garbage_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_config_whose_parameters_outgrow_the_file_rejected(tiny_model, tmp_path):
    # The values are read from where the config says they are; a wider head runs past the
    # end, and 2**40 hidden units (a 288 TiB weight) are refused before anything is allocated.
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    text = blob[12 : 12 + struct.unpack("<I", blob[8:12])[0]]
    for hidden, want in (
        (33, "parameter 'head.fc1.b' of shape (1, 33, 1, 1) needs 132 bytes, 104 remain"),
        (2**40, f"parameter 'head.fc1.w' of shape ({2**40}, 72, 1, 1) needs {4 * 72 * 2**40} bytes, 9608 remain"),
    ):
        wide = text.replace(b"head_hidden = 32\n", f"head_hidden = {hidden}\n".encode())
        assert wide != text
        path.write_bytes(_with_config_text(blob, wide))
        with pytest.raises(FormatError, match=re.escape(f"model.ckpt: {want}") + "$"):
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
    huge_config_len = blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:]
    for i, bad_blob in enumerate((huge_config_len, blob[:-1], blob + b"\x00")):
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
    assert parse_run_config(cfg_text).model == tiny_model.config
    values = b"".join(p.data.astype("<f4").tobytes() for p in tiny_model.params.values())
    assert blob[12 + cfg_len :] == values


TINY_MODEL_TEXT = (
    "[model]\nstem_channels = 8\nencoder_widths = 16,32,64,128\nencoder_depths = 1,1,2,1\n"
    "head_hidden = 64\nfusion_mode = emff\n"
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


@pytest.mark.parametrize("name", sorted(M.PRESETS))
@pytest.mark.parametrize("fusion_mode", M.FUSION_MODES)
def test_embedded_text_is_the_echoed_model_block(tmp_path, name, fusion_mode):
    config = M.preset(name, fusion_mode=fusion_mode)
    model = M.ChangeDetector(config, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    text = effective_text(RunConfig(model=config), ("model",))
    assert blob[12 : 12 + cfg_len].decode("utf-8") == text
    # the rest of the file is the optimizer arena's flat data, so a resumed run can read it in place
    assert len(blob) == 12 + len(text) + 4 * param_counts(model.params).total
    assert blob[12 + cfg_len :] == init_state(model.params).data.astype("<f4").tobytes()


# Spellings of TINY_MODEL_TEXT other than the one its values render to; a config file may accept some.
NON_CANONICAL = {
    "preset-line": lambda t: t.replace("[model]\n", "[model]\npreset = tiny\n"),
    "comment": lambda t: "# tiny\n" + t,
    "reordered-keys": lambda t: t.replace("head_hidden = 64\nfusion_mode = emff\n", "fusion_mode = emff\nhead_hidden = 64\n"),
    "missing-default-key": lambda t: t.replace("fusion_mode = emff\n", ""),
    "extra-section": lambda t: t + "\n[train]\nepochs = 1\n",
    "trailing-blank-line": lambda t: t + "\n",
    "blank-line-after-header": lambda t: t.replace("[model]\n", "[model]\n\n"),
    "upper-case-key": lambda t: t.replace("head_hidden", "HEAD_HIDDEN"),
    "upper-case-section": lambda t: t.replace("[model]", "[MODEL]"),
    "upper-case-value": lambda t: t.replace("emff", "EMFF"),
    "no-spaces-around-equals": lambda t: t.replace(" = ", "="),
    "space-after-comma": lambda t: t.replace("16,32", "16, 32"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("variant", NON_CANONICAL)
def test_only_the_canonical_config_text_loads(tiny_blob, tmp_path, variant):
    text = NON_CANONICAL[variant](TINY_MODEL_TEXT)
    assert text != TINY_MODEL_TEXT
    path = tmp_path / "variant.ckpt"
    path.write_bytes(_with_config_text(tiny_blob, text.encode("utf-8")))
    with pytest.raises(FormatError, match=r"^variant\.ckpt: bad embedded config: "):
        load_checkpoint(path)


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


def test_mutated_checkpoints_load_or_raise_format_error(tmp_path, mutation_sweep):
    path = tmp_path / "toy.ckpt"
    save_checkpoint(M.ChangeDetector(M.ModelConfig(1, (1, 1, 1, 1), (0, 0, 0, 0), 1), seed=0), path)
    blob = path.read_bytes()
    # the header edits reach the version, the config length and the config text
    mutation_sweep(blob, path, lambda: load_checkpoint(path), header=12 + struct.unpack("<I", blob[8:12])[0])


def test_duplicate_embedded_key_rejected(tiny_blob, tmp_path):
    path = tmp_path / "dup.ckpt"
    path.write_bytes(_with_config_text(tiny_blob, (TINY_MODEL_TEXT + "head_hidden = 64\n").encode("utf-8")))
    with pytest.raises(FormatError, match="option 'head_hidden' in section 'model' already exists"):
        load_checkpoint(path)


def test_embedded_text_without_a_section_header_names_the_fault_once(tiny_blob, tmp_path):
    path = tmp_path / "n2.ckpt"
    path.write_bytes(_with_config_text(tiny_blob, TINY_MODEL_TEXT.replace("[model]\n", "").encode("utf-8")))
    with pytest.raises(FormatError, match=r"^n2\.ckpt: bad embedded config: File contains no section headers"):
        load_checkpoint(path)


def test_tensor_shape_contradicting_embedded_config_rejected(tiny_blob, tmp_path):
    path = tmp_path / "narrow.ckpt"
    text = TINY_MODEL_TEXT.replace("head_hidden = 64\n", "head_hidden = 6\n")
    path.write_bytes(_with_config_text(tiny_blob, text.encode("utf-8")))
    want = "narrow.ckpt: 34104 trailing bytes after the last parameter"
    with pytest.raises(FormatError, match=re.escape(want)):
        load_checkpoint(path)


def test_config_naming_far_more_layers_than_the_file_holds_is_rejected_early(tmp_path):
    # The load stops walking the config's layers at the first one the file cannot hold.
    path = tmp_path / "deep.ckpt"
    save_checkpoint(M.ChangeDetector(M.ModelConfig(1, (1, 1, 1, 1), (0, 0, 0, 0), 1)), path)
    blob = path.read_bytes()
    text = blob[12 : 12 + struct.unpack("<I", blob[8:12])[0]]
    deep = text.replace(b"encoder_depths = 0,0,0,0\n", b"encoder_depths = 0,0,0,100000\n")
    assert deep != text
    path.write_bytes(_with_config_text(blob, deep))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        want = "'enc4.res1.conv1.w' of shape (1, 1, 3, 3) needs 36 bytes, 28 remain"
        with pytest.raises(FormatError, match=re.escape(want)):
            load_checkpoint(path)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size + 64 * 1024, f"peak {peak} B"
    assert elapsed < 1.0


def test_cli_eval_on_format_1_checkpoint_exits_2(tiny_blob, tmp_path, capsys):
    path = tmp_path / "old.ckpt"
    path.write_bytes(tiny_blob[:4] + struct.pack("<I", 1) + tiny_blob[8:])
    code = main(["eval", "--ckpt", str(path), "--data", str(tmp_path / "no_data")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: old.ckpt: unsupported format version 1, expected {VERSION}\n"


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
    config = M.preset("nano")
    net = M.ChangeDetector(config, params=M.init_params(config, seed=103, dtype=np.float64))
    path = tmp_path / "wide.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.params["head.fc1.w"].dtype == np.float32
    np.testing.assert_allclose(
        loaded.params["head.fc1.w"].data, net.params["head.fc1.w"].data, rtol=1e-6
    )
