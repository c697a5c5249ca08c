"""SMASH end-to-end benchmark.

    python3 perfbench/run.py --workload day_batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One run:

1. generates the workload's inputs from ``--seed`` in a child process
   and writes them to disk (untimed; see ``workloads.py``);
2. with ``--trace 0``, times several fresh interpreters from spawn to a
   ready system (``setup_s``, the median);
3. runs the closed-loop workload for about ``--seconds`` in a fresh
   child process: untraced with ``--trace 0``; half untraced and half
   traced with ``--trace 1`` (``spans.py``).  A fixed kernel timed before
   each operation normalises its time to a reference host speed
   (``workloads.kernel_seconds``);
4. checks every operation's output: campaign JSON and alert-log digests
   against ``golden.json`` at the default seed, against a single-pass
   reference (``ooc_window``) or a cold re-mine of the final window
   (``week_stream``) at any seed, and across repeated passes;
5. prints the environment, input sizes and (traced) span tree, then as
   the last line one JSON object: ``correct``, ``attempted``, ``failed``
   and the end-to-end (``--trace 0``) or per-layer (``--trace 1``)
   metrics named in ``BENCHMARK.json``.

It exits 0 only when every output was correct, and 2 without a result
when the checkout holds no program to benchmark.  Everything it writes
lives under ``.perfbench/`` in the checkout and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, kernel_seconds, median, normalised  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Fresh interpreters timed per traced run for each import cost.
IMPORT_PROBES = 3
#: Wall-clock budget of one run, child processes included.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def _git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


class Runner:
    """Starts child processes against one deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        source = str(ROOT / "src")
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = source if not existing else source + os.pathsep + existing

    def child(self, *args: str) -> str:
        """Run ``child.py *args``; its stdout, or BenchError on failure."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        command = [sys.executable, str(HERE / "child.py"), *args]
        # A session of its own, so a timeout can stop the child's own
        # children (subprocess shard workers) too.
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise BenchError(f"child {args[0]} exceeded the run budget") from None
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if process.returncode != 0:
            tail = " | ".join(stderr.strip().splitlines()[-6:])
            raise BenchError(f"child {args[0]} exited {process.returncode}: {tail}")
        return stdout

    def startup_seconds(self, *args: str) -> float:
        """Spawn-to-ready time of one fresh interpreter running ``child.py *args``."""
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = float(self.child(*args).split()[-1])
        return ready - start


# -- correctness ----------------------------------------------------------------------


def check_outputs(workload, seed: int, measured: dict, golden: dict) -> set[int]:
    """Indices of operations whose output is wrong (or that raised).

    Stream outputs are per pass: ``day_campaigns`` (one digest per day;
    the last is the final-window campaigns) and ``alerts``.  A wrong
    alert log fails the last operation of its pass.
    """
    ops = measured["ops"]
    outputs = measured["outputs"]
    failed = {index for index, op in enumerate(ops) if op["error"]}
    expected = None
    if seed == DEFAULT_SEED:
        if workload.name not in golden:
            raise BenchError(f"golden.json has no digests for {workload.name}")
        expected = golden[workload.name]

    if not workload.streaming:
        want = expected["campaigns"] if expected else outputs[0]["campaigns"]
        failed |= {index for index, op in enumerate(ops) if op["digest"] != want}
        return failed

    references = [expected or outputs[0]]
    if "reference" in measured:
        # Out-of-core mining must equal the single-pass stream, day by day.
        references.append(measured["reference"])
    first = 0
    for output in outputs:
        days = output["day_campaigns"]
        for reference in references:
            for day, digest in enumerate(days):
                if digest != reference["day_campaigns"][day]:
                    failed.add(first + day)
            if len(days) == workload.days and output["alerts"] != reference["alerts"]:
                failed.add(first + len(days) - 1)
        if "cold_window" in measured and len(days) == workload.days:
            if days[-1] != measured["cold_window"]:
                failed.add(first + len(days) - 1)
        first += len(days)
    return failed


# -- metrics --------------------------------------------------------------------------


def end_to_end_values(measured: dict, setup: list[float], wall: bool = False) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Times are normalised to the reference host speed, each operation by
    the kernel timed just before it, unless *wall*.  Throughput is all
    requests over all timed seconds.  Day latency is the median over
    units (a batch operation or a whole stream pass) of the seconds per
    day, so every value covers the same mix of window fills; a median
    over single stream days would pick one window fill, and which one
    shifts with the seed.
    """
    ops = measured["ops"]
    seconds = [op["seconds"] if wall else normalised(op["seconds"], op["kernel_s"]) for op in ops]
    day_seconds, first = [], 0
    for output in measured["outputs"]:
        last = first + len(output.get("day_campaigns", [None]))
        day_seconds.append(sum(seconds[first:last]) / (last - first))
        first = last
    return {
        "setup_s": median(setup),
        "requests_per_s": sum(op["requests"] for op in ops) / sum(seconds),
        "day_latency_s": median(day_seconds),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer_values(measured: dict, imports: dict[str, float]) -> dict[str, float]:
    """Span-derived layers plus tracing overhead, worker memory and import costs.

    *imports* maps ``repro`` and ``repro.core.shardworker`` to the
    median fresh-interpreter import time of each.
    """
    values = dict(measured["layers"])
    values["trace.overhead_ratio"] = measured["traced_mean_s"] / measured["untraced_mean_s"] - 1.0
    values["dispatch.worker_peak_rss_mb"] = measured["worker_peak_rss_mb"]
    values["package.import_s"] = imports["repro"]
    values["shardworker.import_s"] = imports["repro.core.shardworker"]
    return values


# -- one run --------------------------------------------------------------------------


def run(args: argparse.Namespace, benchmark: dict, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text())
    deadline = time.monotonic() + RUN_BUDGET_S
    runner = Runner(deadline)
    inputs, scratch = work / "inputs", work / "scratch"
    scratch.mkdir(parents=True)

    print("env: " + json.dumps(environment(), sort_keys=True))
    named = ("--workload", workload.name)
    sizes = json.loads(
        runner.child("generate", *named, "--seed", str(args.seed), "--inputs", str(inputs))
    )
    print("inputs: " + json.dumps(sizes, sort_keys=True))

    if not args.trace:
        setup = []
        for probe in range(SETUP_PROBES):
            kernel_s = kernel_seconds()
            state = str(work / f"ready-{probe}")
            seconds = runner.startup_seconds("ready", *named, "--state", state)
            setup.append(normalised(seconds, kernel_s))
    report_path = work / "measured.json"
    runner.child(
        "measure",
        *named,
        *("--inputs", str(inputs), "--scratch", str(scratch), "--out", str(report_path)),
        *("--seconds", str(args.seconds), "--trace", str(args.trace)),
    )
    measured = json.loads(report_path.read_text())
    ops = measured["ops"]
    print("outputs: " + json.dumps(measured["outputs"][0], sort_keys=True))
    failed = check_outputs(workload, args.seed, measured, golden)
    print(
        f"operations: {len(ops)} timed, {len(failed)} failed, "
        f"error_rate {len(failed) / max(len(ops), 1):.4f}"
    )
    for index in sorted(failed):
        print(f"  failed op {index}: {ops[index]['error'] or 'output digest mismatch'}")

    if args.trace:
        imports = {
            module: median(
                [runner.startup_seconds("import", "--module", module) for _ in range(IMPORT_PROBES)]
            )
            for module in ("repro", "repro.core.shardworker")
        }
        values = per_layer_values(measured, imports)
        print(f"span tree ({measured['traced_ops']} traced operations):")
        print(measured["tree"])
        declared = benchmark["per_layer"]
    else:
        values = end_to_end_values(measured, setup)
        wall = end_to_end_values(measured, setup, wall=True)
        print(f"operation seconds: {[round(op['seconds'], 3) for op in ops]}")
        print(f"kernel seconds: {[round(op['kernel_s'], 4) for op in ops]}")
        print(f"normalised setup probe seconds: {[round(s, 3) for s in setup]}")
        print(
            "wall clock, not normalised: "
            f"requests_per_s {wall['requests_per_s']:.1f}, "
            f"day_latency_s {wall['day_latency_s']:.4f}"
        )
        declared = benchmark["end_to_end"]

    names = {metric["name"] for metric in declared}
    if set(values) != names:
        raise BenchError(f"metrics {sorted(set(values) ^ names)} disagree with BENCHMARK.json")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result


def _terminate(signum, frame) -> None:
    # Unwind through Runner.child, which stops the running child's
    # process group, and through main, which removes the work directory.
    raise BenchError(f"terminated by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not benchmark_file.is_file():
        print(f"error: no SMASH source tree (src/repro) to benchmark under {ROOT}", file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_file.read_text())
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    work_root = ROOT / ".perfbench"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, benchmark, work)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
