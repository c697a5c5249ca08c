"""Tests of the benchmark itself: ``python -m pytest perfbench``.

Every workload runs at a tiny size (``small_scenario`` inputs) through
the same code the timed child process uses.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
from spans import OPERATION, TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE_KERNEL_S,
    WORKLOADS,
    generate_inputs,
    run_for,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_SEED = 5


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], scenario="small_scenario")


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """Inputs of every workload at tiny size, generated once."""
    root = tmp_path_factory.mktemp("inputs")
    for name in WORKLOADS:
        generate_inputs(tiny(name), TINY_SEED, root / name)
    return root


# -- BENCHMARK.json -------------------------------------------------------------------


def test_benchmark_file_follows_its_schema():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(BENCHMARK) == keys
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_golden_digests_agree_across_modes():
    """Out-of-core per-day campaigns equal the single-pass stream's."""
    golden = json.loads((HERE / "golden.json").read_text())
    assert set(golden) == set(WORKLOADS)
    ooc = golden["ooc_window"]["day_campaigns"]
    assert ooc == golden["week_stream"]["day_campaigns"][: len(ooc)]


# -- tracing --------------------------------------------------------------------------


def _wrappers_left() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for owner_name, value in vars(module).items():
            owners = [(owner_name, value)]
            if isinstance(value, type):
                owners += [(f"{owner_name}.{k}", v) for k, v in vars(value).items()]
            found += [
                f"{name}.{label}"
                for label, item in owners
                if "Tracer.wrap" in getattr(item, "__qualname__", "")
            ]
    return found


def test_tracer_wraps_from_imports_and_removes_every_wrapper():
    import repro.core.pipeline as pipeline
    import repro.httplog.loader as loader
    from repro.core.pipeline import SmashPipeline

    original_read = loader.read_jsonl
    original_mine = SmashPipeline.__dict__["mine"]
    tracer = Tracer()
    with tracer:
        assert loader.read_jsonl is not original_read
        # preprocess reached through pipeline's from-import is wrapped too
        assert "Tracer.wrap" in pipeline.preprocess.__qualname__
        assert SmashPipeline.__dict__["mine"] is not original_mine
        assert len(_wrappers_left()) >= len(TARGETS)
    assert not tracer.patches
    assert loader.read_jsonl is original_read
    assert SmashPipeline.__dict__["mine"] is original_mine
    assert _wrappers_left() == []


def test_tracer_records_nesting_and_unattributed_residual():
    from spans import span_tree

    tracer = Tracer(targets=())

    def leaf():
        return 1

    def parent():
        return tracer.call("leaf", leaf, (), {})

    tracer.call("leaf", leaf, (), {})  # outside any operation: not recorded
    tracer.call(OPERATION, parent, (), {})
    spans = tracer.spans
    assert [s.name for s in spans] == [OPERATION, "leaf"]
    assert spans[1].parent == 0
    rows = span_tree(spans, 1)
    assert [r["name"] for r in rows] == [OPERATION, "leaf", "unattributed"]
    assert rows[2]["busy_s"] == pytest.approx(rows[0]["busy_s"] - rows[1]["busy_s"])


# -- workloads at tiny size -----------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_tiny_and_traced_outputs_are_byte_identical(name, tiny_inputs, tmp_path):
    workload = tiny(name)
    report = child.measure(workload, tiny_inputs / name, tmp_path, seconds=0.0, trace=True)
    assert not [op for op in report["ops"] if op["error"]]
    half = len(report["outputs"]) // 2
    assert report["outputs"][:half] == report["outputs"][half:]
    failed = run.check_outputs(workload, TINY_SEED, report, golden={})
    assert not failed

    values = run.per_layer_values(report, {"repro": 0.5, "repro.core.shardworker": 0.6})
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}
    if workload.streaming:
        assert values["stream.advance_s"] > 0 and values["checkpoint.bytes"] > 0
    else:
        assert values["stream.advance_s"] == 0 and values["graph.louvain_calls"] > 0
    if workload.out_of_core:
        assert values["dispatch.jobs"] > 0 and values["dispatch.worker_peak_rss_mb"] > 0
    else:
        assert values["dispatch.jobs"] == 0


def test_end_to_end_metric_names_match_benchmark(tiny_inputs, tmp_path):
    report = child.measure(tiny("day_batch"), tiny_inputs / "day_batch", tmp_path, 0.0, False)
    values = run.end_to_end_values(report, setup=[0.4, 0.5, 0.6])
    assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in values.values())


def test_times_are_normalised_per_operation_and_taken_per_unit():
    """Each operation is scaled by the kernel timed just before it; a
    stream pass is one unit of throughput and day latency."""
    ops = [
        {"seconds": 1.0, "kernel_s": REFERENCE_KERNEL_S, "requests": 100},
        # The same work on a host running twice as slow.
        {"seconds": 4.0, "kernel_s": 2 * REFERENCE_KERNEL_S, "requests": 100},
    ]
    measured = {"ops": ops, "outputs": [{"day_campaigns": ["a", "b"]}], "peak_rss_mb": 50.0}
    values = run.end_to_end_values(measured, setup=[0.5])
    assert values["day_latency_s"] == pytest.approx(1.5)
    assert values["requests_per_s"] == pytest.approx(200 / 3.0)
    wall = run.end_to_end_values(measured, setup=[0.5], wall=True)
    assert wall["day_latency_s"] == pytest.approx(2.5)


def test_a_wrong_digest_counts_as_a_failed_operation(tiny_inputs, tmp_path):
    workload = tiny("week_stream")
    ops, outputs = run_for(workload, tiny_inputs / "week_stream", tmp_path, 0.0)
    measured = {"ops": [dataclasses.asdict(op) for op in ops], "outputs": outputs}
    golden = {"week_stream": json.loads(json.dumps(outputs[0]))}
    assert not run.check_outputs(workload, DEFAULT_SEED, measured, golden)
    golden["week_stream"]["day_campaigns"][1] = "0" * 64
    golden["week_stream"]["alerts"] = "0" * 64
    assert run.check_outputs(workload, DEFAULT_SEED, measured, golden) == {1, len(ops) - 1}


def test_operation_span_is_the_root_of_each_traced_operation(tiny_inputs, tmp_path):
    workload = tiny("day_batch")
    tracer = Tracer()
    with tracer:
        run_for(
            workload,
            tiny_inputs / "day_batch",
            tmp_path,
            0.0,
            wrap_op=lambda op: lambda: tracer.call(OPERATION, op, (), {}),
        )
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == [OPERATION] * 3


# -- the command ----------------------------------------------------------------------


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload", "day_batch", "--seconds", "1"]
    completed = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
