"""The benchmark's workloads: seeded inputs on disk, the system under test,
and the closed-loop operations that are timed.

Every workload is a daily SMASH job driven through the public API.  Its
inputs are generated from the seed by :func:`generate_inputs` in a
process of their own and written the way ``smash generate`` writes them
(``trace.jsonl`` plus ``whois.json`` / ``redirects.json`` sidecars, one
directory per day).  The timed process only reads them back, so the
generator's time and memory never count against the system.

The load is a closed loop with one client: the next operation starts
only after the previous result is on disk.

* batch workloads (``window == 0``): one operation is trace file ->
  ``read_jsonl`` + sidecars -> ``SmashPipeline.run`` ->
  ``write_result_json``, repeated on the same day;
* stream workloads: one operation is one day's files ->
  ``StreamingSmash.ingest_day`` (alerts flushed to the JSONL sink) ->
  ``save_checkpoint``.  A pass ingests every day in order into a fresh
  engine, store, alert log and checkpoint; only whole passes are run, so
  every run times the same mix of window fills.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro.synth.scenarios`` factory the inputs come from.
    scenario: str
    scale: float
    days: int
    #: Rolling-window size of the streaming engine; 0 = batch workload.
    window: int
    out_of_core: bool = False

    @property
    def streaming(self) -> bool:
        return self.window > 0

    def spec(self, seed: int):
        from repro.synth import scenarios

        factory = getattr(scenarios, self.scenario)
        if self.scenario == "small_scenario":  # tiny inputs, for the tests
            return factory(seed=seed, days=self.days)
        return factory(scale=self.scale, seed=seed)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("day_batch", "data2011day", scale=0.25, days=1, window=0),
        Workload("week_stream", "data2012week", scale=0.05, days=5, window=3),
        # The first days of the same week and window, mined out of core
        # by subprocess shard workers: the per-day campaigns must equal
        # week_stream's on every day both cover.
        Workload("ooc_window", "data2012week", scale=0.05, days=3, window=3, out_of_core=True),
    )
}

#: Seed the golden digests in ``golden.json`` were recorded at.
DEFAULT_SEED = 1


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def day_dir(inputs: Path, day: int) -> Path:
    return inputs / f"day-{day}"


# -- inputs ---------------------------------------------------------------------------


def generate_inputs(workload: Workload, seed: int, inputs: Path) -> dict:
    """Write the workload's input days under *inputs*; returns their sizes."""
    from repro.httplog.loader import write_jsonl
    from repro.synth.generator import TraceGenerator

    generator = TraceGenerator(workload.spec(seed))
    requests_per_day = []
    for day in range(workload.days):
        dataset = generator.generate_day(day)
        target = day_dir(inputs, day)
        target.mkdir(parents=True)
        requests_per_day.append(write_jsonl(dataset.trace, target / "trace.jsonl"))
        whois = [record.to_dict() for record in sorted(dataset.whois, key=lambda r: r.domain)]
        (target / "whois.json").write_text(json.dumps(whois, indent=1) + "\n")
        (target / "redirects.json").write_text(
            json.dumps(dataset.redirects.to_dict(), indent=1) + "\n"
        )
        if workload.streaming:
            # The IDS signature generations and blacklists the scenario
            # evidence sources adopt for this day (generator ground truth,
            # which has no text format of its own).
            evidence = {
                "ids2012": dataset.ids2012,
                "ids2013": dataset.ids2013,
                "blacklists": dataset.blacklists,
            }
            (target / "evidence.pickle").write_bytes(pickle.dumps(evidence))
    sizes = {
        "scenario": workload.scenario,
        "scale": workload.scale,
        "seed": seed,
        "days": workload.days,
        "window": workload.window,
        "requests_per_day": requests_per_day,
    }
    (inputs / "inputs.json").write_text(json.dumps(sizes, indent=1) + "\n")
    return sizes


def load_day(inputs: Path, day: int):
    """One day's files -> ``(trace, whois, redirects)``, as ``smash run`` reads them."""
    from repro.httplog.loader import read_jsonl
    from repro.synth.oracles import RedirectOracle
    from repro.whois.record import WhoisRecord
    from repro.whois.registry import WhoisRegistry

    source = day_dir(inputs, day)
    trace = read_jsonl(source / "trace.jsonl")
    whois = WhoisRegistry(
        WhoisRecord.from_dict(entry) for entry in json.loads((source / "whois.json").read_text())
    )
    redirects = RedirectOracle.from_dict(json.loads((source / "redirects.json").read_text()))
    return trace, whois, redirects


# -- the system under test ------------------------------------------------------------


def smash_config(workload: Workload):
    from repro.config import SmashConfig

    config = SmashConfig()
    if workload.out_of_core:
        # One shard per CPU of a 2-CPU box, run side by side; the reduce
        # stays serial in the coordinator (threads gain nothing under the
        # GIL and make its memory high-water mark timing-dependent).
        config = config.replace(
            out_of_core=True, dispatch="subprocess", shards=2, workers=2, executor="serial"
        )
    return config


def build_system(workload: Workload, state: Path, single_pass: bool = False):
    """A ready system: the batch pipeline, or a store-backed streaming engine.

    *single_pass* swaps in the default single-pass mining configuration
    (the cross-mode reference run of ``ooc_window`` mines its days so).
    """
    from repro.config import SmashConfig
    from repro.core.pipeline import SmashPipeline

    config = SmashConfig() if single_pass else smash_config(workload)
    if not workload.streaming:
        return SmashPipeline(config)
    from repro.stream import JsonlSink, StreamingSmash
    from repro.stream.scoring import scenario_evidence

    return StreamingSmash(
        config=config,
        window_size=workload.window,
        store_dir=state / "store",
        sinks=(JsonlSink(state / "alerts.jsonl"),),
        evidence=scenario_evidence(),
    )


# -- timed loops ----------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation and what it produced."""

    seconds: float
    #: Seconds :func:`kernel_seconds` took just before the operation.
    kernel_s: float
    requests: int
    #: sha256 of the campaign JSON the operation's result serialises to.
    digest: str | None = None
    error: str | None = None


def kernel_seconds(every_cpu: bool = False) -> float:
    """Wall seconds of a fixed pure-Python kernel: an integer loop, then
    splitting strings into a dict of sets and serialising it.

    It runs no code of the program, so its time measures only how fast
    the host runs Python at that moment.  On a shared host that speed
    drifts by a third or more over minutes, and differs between CPUs; dividing
    each operation by the kernel timed just before it, on the CPUs the
    operation runs on, removes the drift (see :func:`normalised`).  With
    *every_cpu* (operations whose shard workers use every CPU) it is the
    mean of one kernel pinned to each CPU the process may use.
    """
    # The collector off: a collection would walk the program's heap.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if not every_cpu:
            return _kernel()
        cpus = os.sched_getaffinity(0)
        seconds = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                seconds.append(_kernel())
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(seconds) / len(seconds)
    finally:
        if collecting:
            gc.enable()


def _kernel() -> float:
    start = time.perf_counter()
    total = 0
    for number in range(200_000):
        total += number * number
    owners: dict[str, set[str]] = {}
    for index in range(20_000):
        line = f"client{index % 977}|host{index % 3001}.example|/p/{index % 211}.js"
        client, host, _ = line.split("|")
        owners.setdefault(host, set()).add(client)
    json.dumps(sorted((host, len(clients)) for host, clients in owners.items()))
    return time.perf_counter() - start


#: About the median :func:`kernel_seconds` (38-48 ms) on the host the
#: baseline in README.md was measured on (2-CPU Intel Xeon KVM guest,
#: Python 3.11.7).  Fixed: changing it rescales every timing.
REFERENCE_KERNEL_S = 0.044


def normalised(seconds: float, kernel_s: float) -> float:
    """*seconds* as they would read at the reference host speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def _timed(call, every_cpu: bool = False) -> tuple[float, float, object, str | None]:
    """``(seconds, kernel_s, value, error)`` of one call, the kernel timed first."""
    kernel_s = kernel_seconds(every_cpu)
    start = time.perf_counter()
    try:
        value = call()
    except Exception as error:  # noqa: BLE001 - a failed operation is a measurement
        return time.perf_counter() - start, kernel_s, None, f"{type(error).__name__}: {error}"
    return time.perf_counter() - start, kernel_s, value, None


def batch_op(pipeline, inputs: Path, out: Path, wrap_op=None) -> Op:
    """Trace file -> campaign JSON on disk; *wrap_op* may wrap the timed call."""
    from repro.eval.export import write_result_json

    def op() -> int:
        trace, whois, redirects = load_day(inputs, 0)
        write_result_json(pipeline.run(trace, whois=whois, redirects=redirects), out)
        return len(trace)

    seconds, kernel_s, requests, error = _timed(wrap_op(op) if wrap_op else op)
    if error:
        return Op(seconds, kernel_s, 0, error=error)
    return Op(seconds, kernel_s, requests, sha256_file(out))


def stream_pass(
    workload: Workload, inputs: Path, state: Path, wrap_op=None, single_pass: bool = False
) -> tuple[list[Op], dict]:
    """Ingest every day into a fresh engine under *state*.

    Returns the per-day operations and the pass outputs: the per-day
    campaign JSON digests (the last is the final-window campaigns) and
    the alerts JSONL digest.  Serialising each day's campaigns for its
    digest happens between operations, untimed.  A raised error ends
    the pass: later days of a broken stream are not attempted.
    """
    from repro.eval.export import write_result_json
    from repro.stream import save_checkpoint

    state.mkdir(parents=True)
    engine = build_system(workload, state, single_pass=single_pass)
    checkpoint = state / "stream.ckpt"
    campaigns = state / "campaigns.json"
    ops: list[Op] = []
    try:
        for day in range(workload.days):

            def op(day: int = day):
                trace, whois, redirects = load_day(inputs, day)
                evidence = pickle.loads((day_dir(inputs, day) / "evidence.pickle").read_bytes())
                for source in engine.evidence:
                    source.bind_dataset(SimpleNamespace(**evidence))
                update = engine.ingest_day(day, trace, whois=whois, redirects=redirects)
                save_checkpoint(engine, checkpoint)
                return len(trace), update

            seconds, kernel_s, value, error = _timed(
                wrap_op(op) if wrap_op else op, every_cpu=workload.out_of_core
            )
            if error:
                ops.append(Op(seconds, kernel_s, 0, error=error))
                break
            requests, update = value
            write_result_json(update.result, campaigns)
            ops.append(Op(seconds, kernel_s, requests, sha256_file(campaigns)))
    finally:
        engine.close()
    alerts = state / "alerts.jsonl"
    outputs = {
        "day_campaigns": [op.digest for op in ops],
        "alerts": sha256_file(alerts) if alerts.exists() else None,
    }
    shutil.rmtree(state)
    return ops, outputs


def run_for(
    workload: Workload, inputs: Path, scratch: Path, seconds: float, wrap_op=None
) -> tuple[list[Op], list[dict]]:
    """Run whole units (batch operations or stream passes) for about *seconds*.

    A unit starts only while the elapsed time plus the mean unit so far
    fits in *seconds*, so every run measures whole passes and overshoots
    by no more than one unit's noise.  At least one pass, or three batch
    operations, always run.  Returns the operations and each unit's
    outputs (``{"campaigns": digest}`` per batch operation).
    """
    ops: list[Op] = []
    outputs: list[dict] = []
    minimum = 1 if workload.streaming else 3
    pipeline = None if workload.streaming else build_system(workload, scratch)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(outputs) >= minimum and elapsed + elapsed / len(outputs) > seconds:
            break
        if workload.streaming:
            state = scratch / f"pass-{time.monotonic_ns()}"
            unit, output = stream_pass(workload, inputs, state, wrap_op)
        else:
            op = batch_op(pipeline, inputs, scratch / "campaigns.json", wrap_op)
            unit, output = [op], {"campaigns": op.digest}
        ops.extend(unit)
        outputs.append(output)
        if any(op.error for op in unit):
            break
    return ops, outputs


def cold_window_digest(workload: Workload, inputs: Path, out: Path) -> str:
    """Campaign JSON digest of a cold batch run over the final window.

    The incremental, store-backed stream must produce exactly this for
    its last day (cached dimensions are spliced in only when provably
    identical to a re-mine).
    """
    from repro.core.pipeline import SmashPipeline
    from repro.eval.export import write_result_json
    from repro.stream import RollingWindow
    from repro.stream.window import DayPartition

    window = RollingWindow(workload.window)
    for day in range(workload.days - workload.window, workload.days):
        trace, whois, redirects = load_day(inputs, day)
        window.append(DayPartition(day=day, trace=trace, whois=whois, redirects=redirects))
    trace, whois, redirects = window.combined()
    result = SmashPipeline(smash_config(workload)).run(trace, whois=whois, redirects=redirects)
    write_result_json(result, out)
    return sha256_file(out)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
