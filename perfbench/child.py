"""The benchmark's child processes; ``run.py`` starts one per step.

    python3 perfbench/child.py generate --workload W --seed N --inputs DIR
    python3 perfbench/child.py ready    --workload W --state DIR
    python3 perfbench/child.py import   --module repro
    python3 perfbench/child.py measure  --workload W --inputs DIR --scratch DIR
                                        --seconds S --trace 0|1 --out FILE

``ready`` and ``import`` print the system-wide monotonic clock when the
system is built (or the module imported), so the parent can time a fresh
interpreter's start-up from before it spawned the process.  ``measure``
writes its operations, outputs and resource use as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import OPERATION, Tracer, layer_metrics, render_tree, span_tree  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_system,
    cold_window_digest,
    generate_inputs,
    normalised,
    run_for,
    stream_pass,
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def cmd_generate(args: argparse.Namespace) -> int:
    sizes = generate_inputs(WORKLOADS[args.workload], args.seed, Path(args.inputs))
    print(json.dumps(sizes))
    return 0


def cmd_ready(args: argparse.Namespace) -> int:
    build_system(WORKLOADS[args.workload], Path(args.state))
    print(repr(monotonic()), flush=True)
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    importlib.import_module(args.module)
    print(repr(monotonic()), flush=True)
    return 0


def measure(workload, inputs: Path, scratch: Path, seconds: float, trace: bool) -> dict:
    """Time the workload, then compute the references its outputs are checked against.

    With *trace*, half the time runs untraced and half traced: the two
    halves' mean normalised seconds per operation give the tracing
    overhead, and their outputs must agree byte for byte.
    """
    report: dict = {}
    ops, outputs = run_for(workload, inputs, scratch, seconds / 2 if trace else seconds)
    # Read before the untimed references below can raise the high-water mark.
    report["peak_rss_mb"] = _peak_mb(resource.RUSAGE_SELF)
    if trace:
        with Tracer() as tracer:
            traced_ops, traced_outputs = run_for(
                workload,
                inputs,
                scratch,
                seconds / 2,
                wrap_op=lambda op: lambda: tracer.call(OPERATION, op, (), {}),
            )
        # Means: both halves run whole units, so the same mix of window fills.
        report["untraced_mean_s"] = statistics.fmean(
            normalised(op.seconds, op.kernel_s) for op in ops
        )
        report["traced_mean_s"] = statistics.fmean(
            normalised(op.seconds, op.kernel_s) for op in traced_ops
        )
        report["traced_ops"] = len(traced_ops)
        report["layers"] = layer_metrics(tracer.spans, len(traced_ops))
        report["tree"] = render_tree(span_tree(tracer.spans, len(traced_ops)))
        ops, outputs = ops + traced_ops, outputs + traced_outputs
    report["worker_peak_rss_mb"] = _peak_mb(resource.RUSAGE_CHILDREN)
    if workload.out_of_core:
        _, report["reference"] = stream_pass(
            workload, inputs, scratch / "reference", single_pass=True
        )
    elif workload.streaming:
        report["cold_window"] = cold_window_digest(workload, inputs, scratch / "cold.json")
    report["ops"] = [dataclasses.asdict(op) for op in ops]
    report["outputs"] = outputs
    return report


def cmd_measure(args: argparse.Namespace) -> int:
    report = measure(
        WORKLOADS[args.workload],
        Path(args.inputs),
        Path(args.scratch),
        args.seconds,
        bool(args.trace),
    )
    Path(args.out).write_text(json.dumps(report) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    generate = sub.add_parser("generate")
    generate.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--inputs", required=True)
    generate.set_defaults(func=cmd_generate)
    ready = sub.add_parser("ready")
    ready.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ready.add_argument("--state", required=True)
    ready.set_defaults(func=cmd_ready)
    probe = sub.add_parser("import")
    probe.add_argument("--module", required=True)
    probe.set_defaults(func=cmd_import)
    timed = sub.add_parser("measure")
    timed.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    timed.add_argument("--inputs", required=True)
    timed.add_argument("--scratch", required=True)
    timed.add_argument("--seconds", type=float, required=True)
    timed.add_argument("--trace", type=int, choices=(0, 1), default=0)
    timed.add_argument("--out", required=True)
    timed.set_defaults(func=cmd_measure)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
