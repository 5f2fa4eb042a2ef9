"""Run-config files: strict keys, resolved defaults, exact round-trips."""

import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from changedet.config import SCHEMA, RunConfig, effective_text, load_run_config, parse_run_config
from changedet.data import SynthConfig
from changedet.errors import ConfigError, DataError
from changedet.losses import LossConfig
from changedet.model import preset
from changedet.train import TrainConfig


def test_empty_text_gives_defaults():
    assert parse_run_config("") == RunConfig()


def test_defaults_round_trip():
    rc = RunConfig()
    assert parse_run_config(effective_text(rc)) == rc


def test_customised_config_round_trips():
    # Every section away from its defaults, including the optional
    # teacher_checkpoint line that is only rendered when set.
    rc = RunConfig(
        model=replace(preset("nano"), fusion_mode="naive"),
        train=TrainConfig(
            batch_size=2,
            base_lr=3e-3,
            weight_decay=0.0,
            epochs=5,
            seed=7,
            teacher_mode="checkpoint",
            teacher_checkpoint="/tmp/teacher.npz",
            augment=False,
        ),
        data=SynthConfig(
            image_size=96,
            train_count=12,
            val_count=3,
            test_count=3,
            shape_min=2,
            shape_max=5,
            change_min=0.15,
            change_max=0.4,
            drift=0.08,
            noise_sigma=0.01,
            seed=3,
        ),
        loss=LossConfig(gt_loss="soft_miou", distill_loss="kl", alpha1=1.0, alpha2=0.0, alpha3=2.0),
    )
    assert parse_run_config(effective_text(rc)) == rc


def test_effective_text_lists_every_default():
    text = effective_text(RunConfig())
    for key in ("encoder_widths", "base_lr", "augment", "change_min", "alpha3"):
        assert f"{key} = " in text
    assert "teacher_checkpoint" not in text  # only rendered when set


DEFAULT_TEXT = """\
[model]
stem_channels = 8
encoder_widths = 16,32,64,128
encoder_depths = 1,1,2,1
head_hidden = 64
fusion_mode = emff

[train]
batch_size = 8
base_lr = 0.0003
weight_decay = 0.01
epochs = 20
seed = 0
teacher_mode = none
augment = on

[data]
image_size = 64
train_count = 200
val_count = 50
test_count = 50
shape_min = 2
shape_max = 5
change_min = 0.05
change_max = 0.35
drift = 0.08
noise_sigma = 0.02
seed = 0

[loss]
gt_loss = ce
distill_loss = mae
alpha1 = 1.0
alpha2 = 0.5
alpha3 = 1.0
"""


def test_effective_text_of_defaults_is_pinned():
    assert effective_text(RunConfig()) == DEFAULT_TEXT


def test_effective_text_renders_only_the_named_sections():
    assert effective_text(RunConfig(), ("data", "loss")) == DEFAULT_TEXT[DEFAULT_TEXT.index("[data]") :]
    assert effective_text(RunConfig(), ()) == "\n"


# One value away from its default per key, spelled as effective_text renders
# it, plus any line another field needs for the result to validate.
AWAY = {
    ("model", "stem_channels"): "6",
    ("model", "encoder_widths"): "8,16,32,64",
    ("model", "encoder_depths"): "0,1,2,3",
    ("model", "head_hidden"): "32",
    ("model", "fusion_mode"): "naive",
    ("train", "batch_size"): "3",
    ("train", "base_lr"): "0.001",
    ("train", "weight_decay"): "0.0",
    ("train", "epochs"): "3",
    ("train", "seed"): "5",
    ("train", "teacher_mode"): "oracle",
    ("train", "teacher_checkpoint"): "runs/teacher.ckpt\nteacher_mode = checkpoint",
    ("train", "augment"): "off",
    ("data", "image_size"): "96",
    ("data", "train_count"): "10",
    ("data", "val_count"): "5",
    ("data", "test_count"): "0",
    ("data", "shape_min"): "3",
    ("data", "shape_max"): "4",
    ("data", "change_min"): "0.1",
    ("data", "change_max"): "0.5",
    ("data", "drift"): "0.0",
    ("data", "noise_sigma"): "0.05",
    ("data", "seed"): "9",
    ("loss", "gt_loss"): "soft_miou",
    ("loss", "distill_loss"): "kl",
    ("loss", "alpha1"): "2.0",
    ("loss", "alpha2"): "0.0",
    ("loss", "alpha3"): "0.25",
}


@pytest.mark.parametrize("section,key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
def test_every_key_round_trips_away_from_its_default(section, key):
    rc = parse_run_config(f"[{section}]\n{key} = {AWAY[section, key]}\n")
    assert rc != RunConfig()
    line = f"{key} = {AWAY[section, key].splitlines()[0]}"
    assert line in effective_text(rc, (section,)).splitlines()
    assert line not in DEFAULT_TEXT.splitlines()
    assert parse_run_config(effective_text(rc)) == rc


def test_each_section_is_one_flat_dataclass():
    # A section's keys are the fields of the one dataclass RunConfig holds
    # for it, in order; none of those fields nests another dataclass.
    assert list(SCHEMA) == [f.name for f in fields(RunConfig)]
    for section in fields(RunConfig):
        names = [f.name for f in fields(section.default)]
        assert not [n for n in names if is_dataclass(getattr(section.default, n))], section.name
        assert SCHEMA[section.name] == tuple(names)


def test_every_truncation_and_deletion_raises_only_config_error():
    text = effective_text(RunConfig())
    variants = [text[:i] for i in range(len(text))] + [text[:i] + text[i + 1 :] for i in range(len(text))]
    for variant in variants:
        try:
            parse_run_config(variant)
        except ConfigError:
            pass


def test_mutated_config_files_load_or_raise_config_error(tmp_path, mutation_sweep):
    path = tmp_path / "run.cfg"
    blob = effective_text(RunConfig()).encode("utf-8")
    mutation_sweep(blob, path, lambda: load_run_config(path), header=len(blob))


def test_readme_example_parses_to_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert parse_run_config(block) == RunConfig()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown config section \[optimizer\]"):
        parse_run_config("[optimizer]\nlr = 0.1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown keys in \[train\].*learning_rate"):
        parse_run_config("[train]\nlearning_rate = 0.1\n")


def test_default_section_rejected():
    # configparser would otherwise merge [DEFAULT] into every other section.
    for text in ("[DEFAULT]\nepochs = 3\n", "[DEFAULT]\nepochs = 3\n[train]\nseed = 1\n"):
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_run_config(text)


def test_text_after_section_header_rejected():
    for text in ("[train] epochs = 3\n", "[model]\npreset = nano\n[train] epochs = 3\n"):
        with pytest.raises(ConfigError):
            parse_run_config(text)


def test_section_names_are_case_sensitive():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_run_config("[TRAIN]\nepochs = 2\n")


def test_keys_are_case_sensitive():
    with pytest.raises(ConfigError, match=re.escape("unknown keys in [train]: ['EPOCHS']")):
        parse_run_config("[train]\nEPOCHS = 3\n")


def test_bad_integer_names_section_and_key():
    with pytest.raises(ConfigError, match=r"\[train\] batch_size: expected an integer"):
        parse_run_config("[train]\nbatch_size = eight\n")


def test_bad_float_reports_offending_value():
    with pytest.raises(ConfigError, match=r"\[loss\] alpha2: expected a number, got 'half'"):
        parse_run_config("[loss]\nalpha2 = half\n")


@pytest.mark.parametrize("text", [
    "[train]\nbase_lr = nan\n",
    "[train]\nweight_decay = inf\n",
    "[data]\ndrift = inf\n",
    "[data]\nnoise_sigma = NaN\n",
    "[loss]\nalpha3 = infinity\n",
])
def test_non_finite_number_rejected(text):
    section, key = re.match(r"\[(\w+)\]\n(\w+)", text).groups()
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected a finite number"):
        parse_run_config(text)


def test_bad_bool_rejected():
    with pytest.raises(ConfigError, match=r"\[train\] augment: expected on/off"):
        parse_run_config("[train]\naugment = maybe\n")


@pytest.mark.parametrize("raw,expected", [("on", True), ("yes", True), ("true", True), ("1", True), ("off", False), ("no", False), ("false", False), ("0", False)])
def test_bool_spellings(raw, expected):
    rc = parse_run_config(f"[train]\naugment = {raw}\n")
    assert rc.train.augment is expected


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="option 'epochs' in section 'train' already exists"):
        parse_run_config("[train]\nepochs = 2\nepochs = 3\n")


def test_key_outside_any_section_rejected():
    with pytest.raises(ConfigError, match="^File contains no section headers"):
        parse_run_config("epochs = 2\n")


def test_value_continued_onto_an_indented_line_rejected():
    # configparser joins "  b" onto the value above it as "a\nb"
    with pytest.raises(ConfigError, match=r"^teacher_checkpoint must fit on one line, got 'a\\nb'$"):
        parse_run_config("[train]\nteacher_mode = checkpoint\nteacher_checkpoint = a\n  b\n")


@pytest.mark.parametrize("section,key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
def test_every_key_refuses_a_continued_value(section, key):
    # configparser joins the indented line onto the value: a list breaks
    # after a comma, any other value repeats; teacher_checkpoint's second
    # line (its mode) follows as it is.
    first, *rest = AWAY[section, key].splitlines()
    continued = first.replace(",", ",\n  ", 1) if "," in first else f"{first}\n  {first}"
    with pytest.raises(ConfigError) as info:
        parse_run_config("\n".join([f"[{section}]", f"{key} = {continued}", *rest]) + "\n")
    assert "\n" not in str(info.value)


def test_model_preset_key_expands():
    rc = parse_run_config("[model]\npreset = nano\n")
    assert rc.model == preset("nano")


def test_model_preset_with_override():
    rc = parse_run_config("[model]\npreset = nano\nhead_hidden = 48\n")
    assert rc.model == replace(preset("nano"), head_hidden=48)


def test_int_tuple_tolerates_spaces():
    rc = parse_run_config("[model]\nencoder_widths = 8, 16, 32, 64\nencoder_depths = 1,1,1,1\nstem_channels = 4\nhead_hidden = 32\n")
    assert rc.model.encoder_widths == (8, 16, 32, 64)


def test_loss_section_feeds_loss_config():
    rc = parse_run_config("[loss]\ngt_loss = soft_miou\ndistill_loss = mse\nalpha2 = 0.0\n")
    assert rc.loss == LossConfig(gt_loss="soft_miou", distill_loss="mse", alpha1=1.0, alpha2=0.0, alpha3=1.0)
    assert rc.train == TrainConfig()


@pytest.mark.parametrize("key", ["alpha1", "alpha2", "alpha3"])
def test_bad_loss_weight_names_its_key(key):
    with pytest.raises(ConfigError, match=rf"^{key} must be finite and non-negative, got -1.0$"):
        parse_run_config(f"[loss]\n{key} = -1\n")


def test_field_validation_still_applies():
    # Values flow into the dataclasses, whose own validation rejects them.
    with pytest.raises(ConfigError, match="fusion_mode"):
        parse_run_config("[model]\npreset = nano\nfusion_mode = banana\n")
    with pytest.raises(ConfigError, match="teacher_mode"):
        parse_run_config("[train]\nteacher_mode = checkpoint\n")


def test_comments_and_blank_lines_ignored():
    rc = parse_run_config("# run recipe\n[train]\n\n; tuned by hand\nepochs = 3\n")
    assert rc.train.epochs == 3


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(DataError, match="config file not found: "):
        load_run_config(tmp_path / "absent.cfg")


def test_load_run_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[data]\nimage_size = 96\n", encoding="utf-8")
    assert load_run_config(path).data.image_size == 96


def test_crlf_config_file_loads_equal_to_its_lf_text(tmp_path):
    rc = RunConfig(model=preset("nano"), train=TrainConfig(epochs=3, seed=5), data=SynthConfig(image_size=96))
    path = tmp_path / "run.cfg"
    text = effective_text(rc)
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert load_run_config(path) == parse_run_config(text) == rc


def test_config_file_with_a_byte_order_mark_loads_equal_to_its_text(tmp_path):
    path = tmp_path / "run.cfg"
    text = effective_text(RunConfig(model=preset("nano"), data=SynthConfig(image_size=96)))
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_run_config(path) == parse_run_config(text)
