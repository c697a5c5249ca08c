"""Section VI (Overhead) — parallel per-dimension mining.

``SmashPipeline.mine`` runs one independent build-graph + Louvain job per
dimension (main + urifile + ipset + whois by default).  This bench times
serial mining against process-pool fan-out on the full Data2011day
trace, asserts the outputs are structurally identical (the determinism
guarantee that makes the fan-out verifiable at all), and records the
wall times in BENCH style.

The speedup is hardware-dependent: process fan-out pays a trace-pickling
tax, so on a box with few CPUs the parallel row can be *slower* — the
table records whatever the hardware gives.
"""

from __future__ import annotations

import os
import time

from repro.core.pipeline import SmashPipeline


def _timed_mine(config, dataset, **changes):
    pipeline = SmashPipeline(config.replace(**changes))
    start = time.perf_counter()
    mined = pipeline.mine(dataset.trace, whois=dataset.whois)
    return mined, time.perf_counter() - start


def test_parallel_mine_equivalence_and_speed(runner, emit):
    dataset = runner.dataset("2011")
    workers = max(4, os.cpu_count() or 1)

    serial, serial_s = _timed_mine(runner.config, dataset, workers=1)
    processed, process_s = _timed_mine(runner.config, dataset, workers=workers, executor="process")

    # Identical results at any worker count — the determinism guarantee.
    assert processed.main == serial.main
    assert processed.secondary == serial.secondary

    rows = [
        ("serial (workers=1)", serial_s),
        (f"process pool (workers={workers})", process_s),
    ]
    lines = [
        "Parallel per-dimension mining (main + %d secondary dimensions)"
        % len(serial.secondary),
        f"trace: {len(dataset.trace)} requests, "
        f"{len(dataset.trace.servers)} servers, cpus: {os.cpu_count()}",
    ]
    for label, seconds in rows:
        speedup = serial_s / seconds if seconds > 0 else float("inf")
        lines.append(f"{label:<28} {seconds * 1000:8.1f} ms  ({speedup:.2f}x)")
    emit("parallel_mine_speedup", "\n".join(lines))
