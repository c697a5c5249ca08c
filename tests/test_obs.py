"""Observability tests: registry semantics, histogram bucketing, the
Prometheus exposition golden, snapshot round-trips, span nesting over a
full pipeline run, stream instrumentation, structured logging, and the
NullRecorder identity guarantee (enabled vs disabled outputs are
byte-identical, enforced in-process and across subprocess hash seeds).
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.config import SmashConfig
from repro.core.pipeline import SmashPipeline, dimension_build_stats
from repro.errors import ObsError
from repro.eval.export import result_to_dict
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace
from repro.obs import (
    NULL_RECORDER,
    PROMETHEUS_CONTENT_TYPE,
    JsonLogFormatter,
    MetricsRegistry,
    NullRecorder,
    configure_logging,
    detect_format,
    parse_prometheus_text,
    read_snapshot,
    render_stats,
    serve_prometheus_once,
    to_prometheus_text,
    write_prometheus,
    write_snapshot,
)
from repro.stream import DayPartition, StreamingSmash

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# -- registry semantics ------------------------------------------------------------


class TestRegistry:
    def test_counter_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs.")
        assert counter.labels().value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().value == 3.5

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.counter("jobs_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Depth.")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.labels().value == 7.0

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "X.")
        again = registry.counter("x_total")
        assert first is again
        assert registry.get("x_total") is first
        assert registry.get("missing") is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ObsError):
            registry.gauge("x_total")

    def test_label_set_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("kind",))
        with pytest.raises(ObsError):
            registry.counter("x_total", labels=("other",))

    def test_labels_call_must_match_declared_names(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("kind",))
        with pytest.raises(ObsError):
            family.labels(wrong="v")
        with pytest.raises(ObsError):
            family.inc()  # labelled family has no zero-label child
        family.labels(kind="a").inc()
        assert family.labels(kind="a").value == 1.0

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ObsError):
            registry.histogram("h_seconds", buckets=(1.0, 3.0))

    def test_histogram_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.histogram("h_seconds", buckets=(2.0, 1.0))

    def test_invalid_metric_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.counter("0bad name")


class TestHistogram:
    def test_bucketing_is_cumulative_with_inf_tail(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.5, 1.0))
        for value in (0.25, 0.75, 2.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 3
        assert child.sum == pytest.approx(3.0)
        assert child.cumulative_buckets() == [
            (0.5, 1),
            (1.0, 2),
            (float("inf"), 3),
        ]

    def test_boundary_value_falls_in_its_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.5, 1.0))
        histogram.observe(0.5)  # le is inclusive
        assert histogram.labels().cumulative_buckets()[0] == (0.5, 1)


# -- exporters ---------------------------------------------------------------------


def _golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("jobs_total", "Jobs processed.", labels=("kind",)).labels(
        kind="mine"
    ).inc(3)
    histogram = registry.histogram("latency_seconds", "Latency.", buckets=(0.5, 1.0))
    for value in (0.25, 0.75, 2.0):
        histogram.observe(value)
    registry.gauge("queue_depth", "Queue depth.").set(2)
    return registry


GOLDEN_EXPOSITION = """\
# HELP jobs_total Jobs processed.
# TYPE jobs_total counter
jobs_total{kind="mine"} 3
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.5"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 3
latency_seconds_count 3
# HELP queue_depth Queue depth.
# TYPE queue_depth gauge
queue_depth 2
"""


class TestPrometheusExposition:
    def test_golden_rendering(self):
        assert to_prometheus_text(_golden_registry()) == GOLDEN_EXPOSITION

    def test_rendering_is_deterministic(self):
        assert to_prometheus_text(_golden_registry()) == to_prometheus_text(
            _golden_registry()
        )

    def test_parse_round_trip(self):
        series = parse_prometheus_text(GOLDEN_EXPOSITION)
        assert series["jobs_total"] == [({"kind": "mine"}, 3.0)]
        assert series["queue_depth"] == [({}, 2.0)]
        assert series["latency_seconds_count"] == [({}, 3.0)]
        assert series["latency_seconds_bucket"][-1] == ({"le": "+Inf"}, 3.0)

    def test_label_values_escape_and_round_trip(self):
        registry = MetricsRegistry()
        awkward = 'quo"te\\slash\nnewline'
        registry.counter("x_total", labels=("name",)).labels(name=awkward).inc()
        series = parse_prometheus_text(to_prometheus_text(registry))
        assert series["x_total"] == [({"name": awkward}, 1.0)]

    def test_parse_rejects_malformed_lines(self):
        for bad in ("just-a-name", 'x{le="0.5" 1', "x notanumber"):
            with pytest.raises(ObsError):
                parse_prometheus_text(bad)

    def test_write_prometheus_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "metrics.prom"
        write_prometheus(_golden_registry(), out)
        assert out.read_text() == GOLDEN_EXPOSITION

    def test_serve_once_over_http(self):
        registry = _golden_registry()
        address: list[tuple[str, int]] = []
        bound = threading.Event()

        def ready(addr):
            address.append(addr)
            bound.set()

        server = threading.Thread(
            target=serve_prometheus_once, args=(registry,), kwargs={"ready": ready}
        )
        server.start()
        try:
            assert bound.wait(timeout=10)
            host, port = address[0]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                body = response.read().decode("utf-8")
        finally:
            server.join(timeout=10)
        assert body == GOLDEN_EXPOSITION


class TestSnapshot:
    def test_write_read_round_trip(self, tmp_path):
        registry = _golden_registry()
        with registry.span("work", metric=None, kind="demo") as span:
            with registry.span("inner"):
                pass
        out = write_snapshot(registry, tmp_path / "trace.jsonl")
        loaded = read_snapshot(out)
        names = {row["name"] for row in loaded["metrics"]}
        assert names == {"jobs_total", "latency_seconds", "queue_depth"}
        spans = loaded["spans"]
        assert [row["name"] for row in spans] == ["work", "inner"]
        assert spans[0]["parent"] is None
        assert spans[1]["parent"] == spans[0]["index"]
        assert spans[0]["attributes"] == {"kind": "demo"}
        assert span.seconds >= 0.0

    def test_read_rejects_non_snapshot_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "metric", "name": "x"}\n')
        with pytest.raises(ObsError):  # no meta header
            read_snapshot(bad)
        bad.write_text("not json\n")
        with pytest.raises(ObsError):
            read_snapshot(bad)

    def test_detect_format_and_render(self, tmp_path):
        registry = _golden_registry()
        with registry.span("work"):
            pass
        prom = write_prometheus(registry, tmp_path / "m.prom")
        snap = write_snapshot(registry, tmp_path / "t.jsonl")
        assert detect_format(prom) == "prometheus"
        assert detect_format(snap) == "snapshot"
        prom_report = render_stats(prom)
        snap_report = render_stats(snap)
        assert "jobs_total" in prom_report
        assert "queue_depth" in snap_report
        assert "work" in snap_report  # span tree only exists in snapshots
        assert "work" not in prom_report


# -- spans over real runs ----------------------------------------------------------


def _child_names(registry: MetricsRegistry, name: str) -> list[str]:
    (root,) = registry.spans_named(name)
    return [span.name for span in registry.children_of(root)]


class TestPipelineSpans:
    def test_full_run_span_tree(self, small_dataset):
        registry = MetricsRegistry()
        pipeline = SmashPipeline(SmashConfig(metrics=registry))
        mined = pipeline.mine(small_dataset.trace, whois=small_dataset.whois)
        pipeline.finish(mined, redirects=small_dataset.redirects)

        mine_children = _child_names(registry, "pipeline.mine")
        assert mine_children[0] == "pipeline.mine.preprocess"
        dimension_spans = [
            span
            for span in registry.spans_named("pipeline.mine.dimension")
        ]
        assert {span.attributes["dimension"] for span in dimension_spans} == {
            "client",
            "urifile",
            "ipset",
            "whois",
        }
        for span in dimension_spans:
            assert span.seconds > 0.0
            assert "enumerated_pairs" in span.attributes
        assert _child_names(registry, "pipeline.finish") == [
            "pipeline.finish.correlate",
            "pipeline.finish.prune",
            "pipeline.finish.infer",
        ]
        assert registry.histogram("smash_mine_seconds").labels().count == 1
        assert registry.counter(
            "smash_louvain_levels_total", labels=("dimension",)
        ).labels(dimension="client").value > 0
        stats = dimension_build_stats(mined)
        assert set(stats) >= {"client"}
        assert all("enumerated_pairs" in entry for entry in stats.values())

    def test_shard_index_spans_nest_under_preprocess(self, small_dataset):
        # Map-phase spans are siblings of the merge, not its children.
        registry = MetricsRegistry()
        config = SmashConfig(metrics=registry).replace(shards=3)
        SmashPipeline(config).mine(small_dataset.trace, whois=small_dataset.whois)
        (preprocess,) = registry.spans_named("pipeline.mine.preprocess")
        index_spans = registry.spans_named("pipeline.mine.shard_index")
        assert [span.attributes["shard"] for span in index_spans] == [0, 1, 2]
        assert {span.parent for span in index_spans} == {preprocess.index}
        assert _child_names(registry, "pipeline.mine.shard_merge") == []

    def test_enabled_and_disabled_results_identical(self, small_dataset):
        plain = SmashPipeline()
        mined_plain = plain.mine(small_dataset.trace, whois=small_dataset.whois)
        result_plain = plain.finish(mined_plain, redirects=small_dataset.redirects)

        instrumented = SmashPipeline(SmashConfig(metrics=MetricsRegistry()))
        mined_inst = instrumented.mine(
            small_dataset.trace, whois=small_dataset.whois
        )
        result_inst = instrumented.finish(
            mined_inst, redirects=small_dataset.redirects
        )
        assert json.dumps(result_to_dict(result_plain), sort_keys=True) == json.dumps(
            result_to_dict(result_inst), sort_keys=True
        )


def _tiny_partition(day: int) -> DayPartition:
    # Content varies with the day so the incremental cache never reuses
    # a dimension and every advance really mines.
    requests = [
        HttpRequest(
            timestamp=float(i),
            client=f"c{i % 2}",
            host=f"d{day}h{i}.example",
            server_ip=f"10.0.{day}.{i}",
            uri="/x.html",
        )
        for i in range(4)
    ]
    return DayPartition(
        day=day, trace=HttpTrace(requests, name=f"day{day}"), whois=None
    )


class TestStreamMetrics:
    def test_advance_metrics_and_build_stats(self):
        registry = MetricsRegistry()
        engine = StreamingSmash(window_size=2, metrics=registry)
        updates = [engine.ingest_day(day, _tiny_partition(day).trace) for day in (0, 1)]

        assert len(registry.spans_named("stream.advance")) == 2
        assert registry.counter("smash_requests_ingested_total").labels().value == 8.0
        assert registry.gauge("smash_window_days").labels().value == 2.0
        assert registry.histogram("smash_advance_seconds").labels().count == 2
        mined = registry.counter(
            "smash_dimensions_mined_total", labels=("dimension",)
        )
        assert mined.labels(dimension="client").value == 2.0
        for update in updates:
            assert "client" in update.build_stats
            assert "enumerated_pairs" in update.build_stats["client"]

    def test_null_recorder_is_default_and_inert(self):
        engine = StreamingSmash(window_size=2)
        assert engine.metrics is NULL_RECORDER
        assert isinstance(engine.metrics, NullRecorder)
        assert not engine.metrics.enabled
        # Every recorder operation is a no-op returning shared singletons.
        with NULL_RECORDER.span("anything", metric="x_seconds", a=1) as span:
            span.set(b=2)
        assert NULL_RECORDER.counter("x_total") is NULL_RECORDER.gauge("y")
        NULL_RECORDER.counter("x_total").labels(kind="k").inc(5)
        NULL_RECORDER.record_span("external", 1.0)


# -- structured logging ------------------------------------------------------------


class TestLogging:
    def teardown_method(self):
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)
        root.propagate = True

    def test_silent_without_configuration(self):
        assert logging.getLogger("repro").handlers == []

    def test_configure_is_idempotent(self):
        configure_logging("debug")
        configure_logging("info", json_mode=True)
        handlers = logging.getLogger("repro").handlers
        assert len(handlers) == 1
        assert isinstance(handlers[0].formatter, JsonLogFormatter)

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging("loud")

    def test_json_formatter_merges_data(self):
        record = logging.LogRecord(
            "repro.stream", logging.INFO, __file__, 1, "advance", None, None
        )
        record.data = {"day": 3, "requests": 10}
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["message"] == "advance"
        assert payload["level"] == "info"
        assert payload["day"] == 3
        assert payload["requests"] == 10


# -- hash-seed identity: metrics on vs off -----------------------------------------


def _run_stream(tmp: Path, tag: str, hash_seed: int, with_obs: bool) -> dict[str, bytes]:
    """One subprocess `repro stream` run; returns its artifact bytes."""
    out_dir = tmp / tag
    out_dir.mkdir()
    args = [
        sys.executable,
        "-m",
        "repro",
        "stream",
        "--scenario",
        "small",
        "--days",
        "2",
        "--seed",
        "7",
        "--window",
        "2",
        "--out",
        str(out_dir / "summary.json"),
        "--campaigns-out",
        str(out_dir / "campaigns.json"),
        "--alerts",
        str(out_dir / "alerts.jsonl"),
        "--checkpoint",
        str(out_dir / "ckpt.json"),
    ]
    if with_obs:
        args += [
            "--metrics-out",
            str(out_dir / "metrics.prom"),
            "--trace-out",
            str(out_dir / "trace.jsonl"),
        ]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        args, env=env, cwd=out_dir, capture_output=True, text=True, timeout=600
    )
    assert completed.returncode == 0, (
        f"stream run {tag} failed:\n{completed.stdout}\n{completed.stderr}"
    )
    if with_obs:
        # The exports must themselves be well-formed.
        parse_prometheus_text((out_dir / "metrics.prom").read_text())
        read_snapshot(out_dir / "trace.jsonl")
    return {
        name: (out_dir / name).read_bytes()
        for name in ("summary.json", "campaigns.json", "alerts.jsonl", "ckpt.json")
    }


def test_outputs_identical_with_metrics_on_or_off_across_hash_seeds(tmp_path):
    """Recording is metadata-only: every comparable artifact is
    byte-identical with and without the recorder, under different
    interpreter hash seeds."""
    baseline = _run_stream(tmp_path, "off-seed0", hash_seed=0, with_obs=False)
    for tag, hash_seed, with_obs in (
        ("on-seed0", 0, True),
        ("off-seed1", 1, False),
        ("on-seed1", 1, True),
    ):
        artifacts = _run_stream(tmp_path, tag, hash_seed=hash_seed, with_obs=with_obs)
        for name, content in baseline.items():
            assert artifacts[name] == content, f"{name} diverged in run {tag}"
