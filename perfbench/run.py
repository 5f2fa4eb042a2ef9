"""changedet benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced segments of the loop with segments that run under every wrapper of
``tracing.PATCH_TABLE``, and prints the per-layer metrics and the tracing
overhead.  ``--workload all`` runs every workload, each in its own
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when an output check failed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train", "infer224", "eval_disk")
# setup_s is the median of this many set-ups before and after the timed loop,
# so that a slow spell of the host at one moment does not decide it.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
TRACE_ROUNDS = 4  # a traced run alternates this many untraced and traced segments
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better)
END_TO_END = (
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def loop_metrics(outs) -> dict:
    """Latency and throughput from each piece of a window at its fastest repeat.

    Every window of a workload repeats the same work, so operation k of a
    window, and segment k between two of its clock marks, is timed once per
    window.  On a shared host the same fixed loop runs up to 1.7 times
    slower for seconds at a time; figures over the whole run follow that,
    the fastest repeat of each piece much less.  A change to the program
    moves every repeat alike.  p50 and p90 are taken over the operations of
    one window, each at its fastest repeat; throughput is a window's items
    over the sum of its segments, each at its fastest repeat.
    """
    import numpy as np

    windows = [w for out in outs for w in out.windows if w.items]
    if not windows:
        return {"latency_ms_p50": 0.0, "latency_ms_p90": 0.0, "throughput_per_s": 0.0}

    def fastest(rows):
        n = min(len(r) for r in rows)
        return np.min([r[:n] for r in rows], axis=0)

    latencies = fastest([w.latencies_ms for w in windows])
    return {
        "latency_ms_p50": float(np.percentile(latencies, 50)),
        "latency_ms_p90": float(np.percentile(latencies, 90)),
        "throughput_per_s": max(w.items for w in windows) / float(fastest([w.segments_s for w in windows]).sum()),
    }


def flop_cross_check(seed: int) -> dict:
    """conv2d FLOPs of one 224x224 forward under a FlopCounter vs profiling.count_flops."""
    import numpy as np
    from changedet import model, profiling, tensor

    config = model.preset("tiny")
    rng = np.random.default_rng(seed)
    pre, post = (rng.random((1, 3, 224, 224), dtype=np.float32) for _ in range(2))
    with tensor.FlopCounter() as counter:
        model.ChangeDetector(config, seed=seed).forward(pre, post)
    counted = counter.by_op["conv2d"]
    expected = profiling.count_flops(config, (224, 224)).by_op["conv2d"]
    return {"counted": counted, "expected": expected, "ok": counted == expected}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: dict, out_dir: Path = OUT) -> dict:
    """Set up, run and check one workload; returns the result plus details."""
    from workloads import WORKLOADS

    setup = WORKLOADS[name]
    work = out_dir / f"work-{name}-{os.getpid()}"
    try:
        if trace:
            return _traced_run(name, seed, seconds, size, setup, work, out_dir)
        setup_s = []

        def timed_setup():
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()
            t0 = time.perf_counter()
            run = setup(seed, work, size)
            setup_s.append(time.perf_counter() - t0)
            return run

        for _ in range(SETUPS_BEFORE):
            run = timed_setup()
        out = run(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        del run
        for _ in range(SETUPS_AFTER):
            timed_setup()
        values = {
            **loop_metrics([out]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        return dict(correct=out.failed == 0, attempted=out.attempted, failed=out.failed, metrics=values,
                    units=END_TO_END, detail=_detail(name, seed, seconds, [out], setup_s_each=setup_s))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced_run(name, seed, seconds, size, setup, work, out_dir) -> dict:
    """Alternate untraced and traced segments of the loop.

    Alternating keeps a slow drift in the host's speed from reading as
    tracing overhead.  Spans and conv FLOPs come from the traced segments.
    """
    from changedet import model, profiling, tensor
    from tracing import PER_LAYER, Tracer, layer_metrics

    flops = flop_cross_check(seed)
    side = size["image_size"]
    forward_mflop = profiling.count_flops(model.preset("tiny"), (side, side)).total / 1e6
    tracer = Tracer()
    with tracer.patched():
        run = setup(seed, work, size)  # its spans hold the checkpoint load
    mark = tracer.mark()
    plain, traced, conv_flops = [], [], 0
    for k in range(TRACE_ROUNDS):
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if with_trace:
                with tracer.patched(), tensor.FlopCounter() as counter:
                    traced.append(run(seconds / (2 * TRACE_ROUNDS)))
                conv_flops += counter.by_op.get("conv2d", 0)
            else:
                plain.append(run(seconds / (2 * TRACE_ROUNDS)))
    p50 = [loop_metrics(outs)["latency_ms_p50"] for outs in (plain, traced)]
    overhead = 100 * (p50[1] - p50[0]) / p50[0] if p50[0] else 0.0
    values = layer_metrics(tracer, mark, sum(out.attempted for out in traced), conv_flops, forward_mflop, overhead)
    trace_file = out_dir / "trace" / f"{name}-seed{seed}.json"
    tracer.dump(trace_file)
    outs = plain + traced
    detail = _detail(name, seed, seconds, outs, flop_check=flops, spans=len(tracer.spans),
                     trace_file=str(trace_file.relative_to(out_dir.parent)))
    failed = sum(out.failed for out in outs)
    return dict(correct=failed == 0 and flops["ok"] and len(detail["digests"]) == 1,
                attempted=sum(out.attempted for out in outs), failed=failed,
                metrics=values, units=PER_LAYER, detail=detail)


def _detail(name, seed, seconds, outs, **extra) -> dict:
    attempted = sum(out.attempted for out in outs)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "samples": sum(len(out.latencies_ms) for out in outs),
        "windows": sum(len(out.windows) for out in outs),
        "error_rate": sum(out.failed for out in outs) / max(attempted, 1),
        "digests": sorted({out.digest for out in outs}),
        "fingerprint": fingerprint(),
        **extra,
    }


def report(result: dict) -> dict:
    """Print the detail line and the metric table; return the contract's result object."""
    print(json.dumps({"detail": result["detail"]}))
    for name, unit, better in result["units"]:
        print(f"{name:<36} {result['metrics'][name]:>14.6g} {unit:<8} ({better} is better)")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit, _ in result["units"]},
    }


def run_all(argv_tail: list[str]) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name, *argv_tail],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            one = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"perfbench: workload {name} printed no result (exit code {proc.returncode})")
        merged["correct"] &= one["correct"] and proc.returncode == 0
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="changedet benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "changedet" / "__init__.py").is_file():
        print(f"perfbench: the changedet sources are missing under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One client on one BLAS thread unless the caller's environment says
    # otherwise.  On a 2-core host a second BLAS thread spins on the other
    # core; it saved little latency and widened the run-to-run spread.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    if args.workload == "all":
        result = run_all(["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
    else:
        from workloads import FULL

        result = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL[args.workload]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
