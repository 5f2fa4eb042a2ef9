"""Command-line surface: synth, train, eval, predict, bench, ablate, gradcheck.

Every command first echoes its effective configuration (all defaults
resolved) as config-file text with the command arguments as comment lines,
so a run can be reproduced from its own output.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, 3 runtime abort (a
numeric failure, or a model too large for the machine's memory).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import SCHEMA, RunConfig, effective_text, load_run_config
from .data import SPLITS, generate_synthetic_dataset, load_index, load_sample
from .errors import ChangeDetError, ConfigError, DataError
from .gradcheck import DEFAULT_INSTANCES, check_all, check_op
from .losses import LossConfig
from .metrics import evaluate
from .model import ChangeDetector, predict_mask, preset
from .netpbm import load_ppm, save_pgm
from .profiling import count_flops, environment_info, measure_latency, param_counts
from .train import fit, make_teacher


class _Output:
    """Mirrors every printed line to an optional log file, which main opens."""

    fh = None

    def line(self, text: str, err: bool = False):
        print(text, file=sys.stderr if err else sys.stdout)
        if self.fh:
            self.fh.write(text + "\n")

    def close(self):
        if self.fh:
            self.fh.close()


def _echo(out: _Output, command: str, args_pairs: list[tuple[str, object]], run_config: RunConfig, names,
          config_file=None):
    out.line(f"# changedet {command} (v{__version__})")
    for key, value in args_pairs:  # an unprintable value, such as one holding a line break, by repr
        out.line(f"# {key} = {value if str(value).isprintable() else repr(str(value))}")
    if config_file:  # one --config file may serve every command; name the sections this one never reads
        out.line("# not read: " + " ".join(f"[{s}]" for s in SCHEMA if s not in names))
    out.line(effective_text(run_config, names).rstrip("\n"))
    out.line("# end config")


def _load_config_arg(path) -> RunConfig:
    return load_run_config(path) if path else RunConfig()


def _with_flags(config, **flags):
    """`config` with the value of each flag that was given; a flag left out (None) keeps the config's."""
    return replace(config, **{key: value for key, value in flags.items() if value is not None})


def cmd_synth(args, out: _Output) -> int:
    rc = _load_config_arg(args.config)
    data = _with_flags(rc.data, image_size=args.size, train_count=args.n_train, val_count=args.n_val,
                       test_count=args.n_test, seed=args.seed)
    out_root = Path(args.out)
    if out_root.exists() and any(out_root.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out_root} is not empty; pass --force to overwrite")
    _echo(out, "synth", [("out", out_root), ("force", args.force)], replace(rc, data=data), ("data",), args.config)
    indexes = generate_synthetic_dataset(data, out_root)
    for split in SPLITS:
        index = indexes[split]
        if len(index) == 0:
            out.line(f"{split}: 0 samples")
            continue
        fractions = [load_sample(index, sid).mask.mean() for sid in index.ids]
        out.line(f"{split}: {len(index)} samples, mean change fraction {float(np.mean(fractions)):.4f}")
    return 0


def cmd_train(args, out: _Output) -> int:
    rc = _load_config_arg(args.config)
    train_cfg = rc.train
    if args.teacher is not None:
        train_cfg = replace(train_cfg, teacher_mode="checkpoint", teacher_checkpoint=args.teacher)
    elif args.oracle_teacher:
        train_cfg = replace(train_cfg, teacher_mode="oracle", teacher_checkpoint=None)
    rc = replace(rc, train=train_cfg)
    _echo(
        out, "train",
        [("data", args.data), ("out", args.out)],
        rc, ("model", "train", "loss"), args.config,
    )
    ckpt = Path(args.out)  # checked before training, so a run is never lost to an unwritable --out
    if ckpt.is_dir():
        raise ConfigError(f"--out {ckpt} is a directory, not a checkpoint file")
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    teacher = make_teacher(train_cfg)
    student = ChangeDetector(rc.model, seed=train_cfg.seed)
    result = fit(student, teacher, args.data, train_cfg, log=out.line, loss=rc.loss)
    save_checkpoint(result.model, ckpt)
    best = result.logs[result.best_epoch - 1]
    out.line(f"checkpoint = {ckpt}")
    out.line(
        f"best epoch {result.best_epoch}: val_iou={best.val_iou:.4f} "
        f"val_f1={best.val_f1:.4f} val_oa={best.val_oa:.4f}"
    )
    return 0


def cmd_eval(args, out: _Output) -> int:
    model = load_checkpoint(args.ckpt)
    rc = RunConfig(model=model.config)
    _echo(out, "eval", [("ckpt", args.ckpt), ("data", args.data), ("split", args.split),
                        ("batch_size", args.batch_size)], rc, ("model",))
    index = load_index(args.data, args.split)
    report = evaluate(model, index, batch_size=args.batch_size)
    c = report.counts
    out.line(f"split = {args.split} ({len(index)} samples)")
    out.line(f"iou = {report.iou:.6f}")
    out.line(f"f1 = {report.f1:.6f}")
    out.line(f"oa = {report.oa:.6f}")
    out.line(f"counts: tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}")
    out.line(f"degenerate = {'yes' if report.degenerate else 'no'}")
    return 0


def cmd_predict(args, out: _Output) -> int:
    model = load_checkpoint(args.ckpt)
    rc = RunConfig(model=model.config)
    _echo(
        out, "predict",
        [("ckpt", args.ckpt), ("pre", args.pre), ("post", args.post), ("out", args.out)],
        rc, ("model",),
    )
    pre = load_ppm(args.pre)
    post = load_ppm(args.post)
    mask = predict_mask(model.predict_probs(pre[None], post[None]))[0]
    save_pgm(mask.astype(np.float32), args.out)
    changed = int(mask.sum())
    out.line(f"mask = {args.out}")
    out.line(f"changed pixels: {100.0 * changed / mask.size:.2f}% ({changed} of {mask.size})")
    return 0


def cmd_bench(args, out: _Output) -> int:
    if args.ckpt is not None:
        model = load_checkpoint(args.ckpt)
        source = ("ckpt", args.ckpt)
    elif args.config is not None:
        model = ChangeDetector(_load_config_arg(args.config).model)
        source = ("config", args.config)
    else:
        model = ChangeDetector(preset(args.preset))
        source = ("preset", args.preset)
    rc = RunConfig(model=model.config)
    _echo(
        out, "bench",
        [source, ("size", args.size), ("warmup", args.warmup), ("runs", args.runs)],
        rc, ("model",), args.config,
    )
    size = (args.size, args.size)
    p = param_counts(model.params)
    f = count_flops(model.config, size)
    samples = measure_latency(model, size, warmups=args.warmup, runs=args.runs)
    out.line(f"input size = {args.size}x{args.size}")
    for kind, counts in (("params", p), ("flops", f)):
        for part in ("total", "stem", "encoder", "fusion", "head"):
            out.line(f"{kind} {part} = {getattr(counts, part)}")
    marker = "  [low confidence: single run]" if args.runs < 2 else ""
    out.line(
        f"latency median = {statistics.median(samples):.3f} ms over {args.runs} runs ({args.warmup} warmups){marker}"
    )
    env = environment_info()
    for key in sorted(env):
        out.line(f"env {key} = {env[key]}")
    return 0


def _ablation_rows(preset_name: str, model_preset: str):
    """Each row: (label, model config, loss config, teacher mode)."""
    if preset_name == "components":
        base = preset(model_preset)
        return [
            ("naive", replace(base, fusion_mode="naive"), LossConfig(alpha2=0.0), "none"),
            ("emff", base, LossConfig(alpha2=0.0), "none"),
            ("emff+bce", base, LossConfig(), "none"),
            ("emff+bce+mae", base, LossConfig(), "oracle"),
        ]
    if preset_name == "losses":
        base = preset(model_preset)
        pairs = [("ce", "kl"), ("ce", "mse"), ("soft_miou", "mae"), ("ce", "mae")]
        return [(f"{gt}+{distill}", base, LossConfig(gt, distill), "oracle") for gt, distill in pairs]
    if preset_name == "backbones":
        return [(name, preset(name), LossConfig(), "oracle") for name in ("nano", "tiny", "small")]
    raise ConfigError(f"unknown ablation preset {preset_name!r}")


def cmd_ablate(args, out: _Output) -> int:
    rows = _ablation_rows(args.preset, args.model_preset)
    rc = _load_config_arg(args.config)
    train = rc.train if args.config else replace(rc.train, epochs=4, batch_size=8, seed=0)
    train = _with_flags(train, epochs=args.epochs, seed=args.seed, batch_size=args.batch_size)
    base_train = replace(train, teacher_mode="none", teacher_checkpoint=None)
    _echo(
        out, "ablate",
        [("data", args.data), ("preset", args.preset), ("model_preset", args.model_preset)],
        replace(rc, train=base_train), ("train",), args.config,
    )
    # probe the dataset's image size once so FLOPs match the evaluated input
    test_index = load_index(args.data, "test")
    if len(test_index) == 0:
        raise DataError("ablation needs a non-empty test split")
    sample = load_sample(test_index, test_index.ids[0])
    size = (sample.pre.shape[1], sample.pre.shape[2])
    out.line(f"{'row':<14} {'iou':>8} {'f1':>8} {'oa':>8} {'params':>10} {'flops':>14}")
    for label, model_cfg, loss, teacher_mode in rows:
        train_cfg = replace(base_train, teacher_mode=teacher_mode)
        student = ChangeDetector(model_cfg, seed=train_cfg.seed)
        fit(student, make_teacher(train_cfg), args.data, train_cfg, loss=loss)
        report = evaluate(student, test_index, batch_size=train_cfg.batch_size)
        params = param_counts(student.params).total
        flops = count_flops(model_cfg, size).total
        out.line(f"{label:<14} {report.iou:>8.4f} {report.f1:>8.4f} {report.oa:>8.4f} {params:>10} {flops:>14}")
    return 0


def cmd_gradcheck(args, out: _Output) -> int:
    _echo(out, "gradcheck", [("op", args.op), ("seed", args.seed), ("instances", args.instances)], RunConfig(), ())
    if args.op == "all":
        reports = check_all(instances=args.instances, seed=args.seed)
    else:
        reports = [check_op(args.op, instances=args.instances, seed=args.seed)]
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        out.line(f"{status} {r.op:<24} max_rel_err={r.max_rel_err:.3e} ({r.instances} instances, {r.seconds:.2f}s)")
    out.line(f"{len(reports) - failed} of {len(reports)} ops passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="changedet",
        description="Early-fusion change detection on bitemporal image pairs.",
    )
    parser.add_argument("--version", action="version", version=f"changedet {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log", help="mirror output lines to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic bitemporal dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--config", help="run-config file; its [data] section supplies defaults")
    p.add_argument("--size", type=int, help="square image size (multiple of 32)")
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-val", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true", help="write into a non-empty directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train a student model")
    p.add_argument("--config", help="run-config file")
    p.add_argument("--data", required=True, help="dataset root with train/ and val/")
    p.add_argument("--out", required=True, help="checkpoint path for the best model")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--teacher", help="teacher checkpoint (distillation)")
    group.add_argument("--oracle-teacher", action="store_true", help="use the deterministic oracle teacher")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on one split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--batch-size", type=int, default=8)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[common], help="predict a change mask for one image pair")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pre", required=True, help="earlier image (PPM)")
    p.add_argument("--post", required=True, help="later image (PPM)")
    p.add_argument("--out", required=True, help="output mask (PGM, 0=unchanged 255=changed)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", parents=[common], help="report params, FLOPs, and latency")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ckpt")
    group.add_argument("--config")
    group.add_argument("--preset", default="tiny", help="model preset (used when no --ckpt/--config)")
    p.add_argument("--size", type=int, default=224)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--runs", type=int, default=50)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", parents=[common], help="re-train and compare model/loss variants")
    p.add_argument("--data", required=True)
    p.add_argument("--preset", required=True, choices=("components", "losses", "backbones"))
    p.add_argument("--config", help="run-config file for the shared training settings")
    p.add_argument("--model-preset", default="tiny", help="model preset for non-backbone ablations")
    p.add_argument("--epochs", type=int, help="default: the --config file's [train] epochs, else 4")
    p.add_argument("--batch-size", type=int, help="default: the --config file's [train] batch_size, else 8")
    p.add_argument("--seed", type=int, help="default: the --config file's [train] seed, else 0")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", parents=[common], help="finite-difference gradient verification")
    p.add_argument("--op", default="all", help="op name, or 'all'")
    p.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output()
    try:
        if args.log:
            out.fh = open(args.log, "w", encoding="utf-8")
        return args.func(args, out)
    except (ChangeDetError, OSError) as exc:
        out.line(f"error: {exc}", err=True)
        return exc.exit_code if isinstance(exc, ChangeDetError) else 2
    except MemoryError as exc:  # a well-formed config that asks for more memory than the machine has
        out.line(f"error: {exc}", err=True)
        return 3
    finally:
        out.close()


if __name__ == "__main__":
    sys.exit(main())
