"""Span tracing from outside the program, for the traced run.

:class:`Tracer` wraps the public functions and methods each layer
exposes (:data:`TARGETS`).  A module-level function is patched in every
loaded ``repro`` module that holds it, so a caller that did
``from repro.x import f`` records as well; methods are patched on their
class.  Each call becomes a :class:`Span` (name, start, end, parent,
counts) kept in memory until the run ends.  :meth:`Tracer.remove`
restores every patched name to the original object.

:func:`span_tree` and :func:`layer_metrics` turn the spans into busy
time, self time, counts and the ``unattributed`` residual of each parent
(the part of its interval no child span covers).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


#: Name of the root span the benchmark opens around each timed operation.
OPERATION = "operation"


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or None.
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _read_jsonl_counts(args, kwargs, result, token):
    return {"requests": len(result)}


def _preprocess_counts(args, kwargs, result, token):
    report = result[1]
    return {"raw": report.raw_requests, "kept": report.kept_requests}


def _pair_stats(args, kwargs):
    stats = kwargs.get("stats", args[3] if len(args) > 3 else None)
    return stats, (stats.enumerated_pairs if stats is not None else 0)


def _pair_counts(args, kwargs, result, token):
    stats, before = token
    counts = {"candidate_pairs": len(result)}
    if stats is not None:
        counts["enumerated_pairs"] = stats.enumerated_pairs - before
    return counts


def _advance_counts(args, kwargs, result, token):
    return {
        "dimensions_mined": len(result.mined_dimensions),
        "dimensions_reused": len(result.reused_dimensions),
    }


def _checkpoint_counts(args, kwargs, result, token):
    return {"bytes": result.stat().st_size}


def _put_counts(args, kwargs, result, token):
    store = args[0]
    directory = store.path_of(result.day, result.digest)
    return {"bytes": sum(path.stat().st_size for path in directory.iterdir())}


def _dispatch_counts(args, kwargs, result, token):
    return {
        "jobs": len(args[1]),
        "retries": sum(int(job.get("attempts", 1)) - 1 for job in result),
    }


def _partial_counts(args, kwargs, result, token):
    store, name = args[0], args[1]
    return {"bytes": store.path_of(name).stat().st_size}


@dataclass(frozen=True)
class Target:
    """One public callable to trace: ``module`` + dotted ``attribute``."""

    span: str
    module: str
    attribute: str
    #: ``(args, kwargs, result, token) -> counts`` recorded on the span.
    count: object = None
    #: ``(args, kwargs) -> token`` taken before the call.
    prepare: object = None


TARGETS: tuple[Target, ...] = (
    Target("httplog.read_jsonl", "repro.httplog.loader", "read_jsonl", _read_jsonl_counts),
    Target("preprocess", "repro.core.preprocess", "preprocess", _preprocess_counts),
    Target(
        "dimensions.client.build",
        "repro.core.dimensions.client",
        "build_client_graph_from_indices",
    ),
    Target("dimensions.urifile.build", "repro.core.dimensions.urifile", "build_urifile_graph"),
    Target("dimensions.ipset.build", "repro.core.dimensions.ipset", "build_ipset_graph"),
    Target("dimensions.whois.build", "repro.core.dimensions.whoisdim", "build_whois_graph"),
    Target(
        "interning.accumulate_pairs",
        "repro.core.interning",
        "accumulate_pair_counts",
        _pair_counts,
        _pair_stats,
    ),
    Target("graph.louvain", "repro.graph.louvain", "louvain_communities"),
    Target("pipeline.run", "repro.core.pipeline", "SmashPipeline.run"),
    Target("pipeline.mine", "repro.core.pipeline", "SmashPipeline.mine"),
    Target("pipeline.finish", "repro.core.pipeline", "SmashPipeline.finish"),
    Target("shardmine.mine_sharded", "repro.core.shardmine", "mine_sharded"),
    Target("correlation.correlate", "repro.core.correlation", "correlate_ids"),
    Target("pruning.dominant_referrers", "repro.core.pruning", "dominant_referrers"),
    Target("pruning.prune", "repro.core.pruning", "prune_ashes_ids"),
    Target("inference.infer", "repro.core.inference", "infer_campaigns_ids"),
    Target("export.write_result", "repro.eval.export", "write_result_json"),
    Target("stream.advance", "repro.stream.engine", "StreamingSmash.ingest_day", _advance_counts),
    Target("tracker.advance", "repro.stream.tracker", "CampaignTracker.advance"),
    Target("checkpoint.save", "repro.stream.checkpoint", "save_checkpoint", _checkpoint_counts),
    Target("store.put", "repro.stream.store", "TraceStore.put", _put_counts),
    Target("store.get", "repro.stream.store", "TraceStore.get"),
    Target("dispatch.run", "repro.core.dispatch", "ShardDispatcher.run", _dispatch_counts),
    Target("partials.load", "repro.stream.store", "PartialStore.load", _partial_counts),
)


class Tracer:
    """Record spans around :data:`TARGETS` between :meth:`install` and :meth:`remove`."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(owner, attribute, original)`` for every patched name.
        self.patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function, args, kwargs, count=None, prepare=None):
        """Run ``function(*args, **kwargs)`` inside a span called *name*.

        Only an :data:`OPERATION` span may be a root: calls the benchmark
        makes between timed operations (serialising outputs for their
        digests) are not recorded.
        """
        stack = self._stack()
        if not stack and name != OPERATION:
            return function(*args, **kwargs)
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        token = prepare(args, kwargs) if prepare else None
        try:
            result = function(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if count is not None:
            span.counts = count(args, kwargs, result, token)
        return result

    def wrap(self, name: str, function, count=None, prepare=None):
        def traced(*args, **kwargs):
            return self.call(name, function, args, kwargs, count, prepare)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        # Import every target module before patching any: a module
        # imported mid-way would copy an already-wrapped name with its
        # from-import and keep it after remove().
        modules = [importlib.import_module(target.module) for target in self.targets]
        for target, module in zip(self.targets, modules):
            class_name, _, attribute = target.attribute.rpartition(".")
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original, self._traced(target, original))
                continue
            original = getattr(module, attribute)
            traced = self._traced(target, original)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and loaded is not None:
                    if loaded.__dict__.get(attribute) is original:
                        self._patch(loaded, attribute, original, traced)

    def _traced(self, target: Target, original):
        return self.wrap(target.span, original, target.count, target.prepare)

    def _patch(self, owner, attribute: str, original, traced) -> None:
        setattr(owner, attribute, traced)
        self.patches.append((owner, attribute, original))

    def remove(self) -> None:
        """Restore every patched name, newest first."""
        while self.patches:
            owner, attribute, original = self.patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# -- aggregation ----------------------------------------------------------------------


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _children(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return children


def self_seconds(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children = _children(spans)
    return [
        span.seconds
        - _union_seconds(
            [
                (max(spans[c].start, span.start), min(spans[c].end, span.end))
                for c in children.get(index, ())
            ]
        )
        for index, span in enumerate(spans)
    ]


def busy_seconds(spans: list[Span], name: str) -> float:
    """Wall time covered by at least one span called *name*."""
    return _union_seconds([(s.start, s.end) for s in spans if s.name == name])


def count_total(spans: list[Span], name: str, key: str | None = None) -> float:
    """Number of spans called *name*, or the sum of their *key* count."""
    if key is None:
        return sum(1 for span in spans if span.name == name)
    return sum(span.counts.get(key, 0) for span in spans if span.name == name)


def span_tree(spans: list[Span], operations: int) -> list[dict]:
    """Spans grouped by call path, per operation, in first-seen order.

    Each row has ``depth``, ``name``, ``calls``, ``busy_s`` and
    ``self_s``; every path with children is followed by an
    ``unattributed`` row: the share of its time no child span covers.
    """
    own = self_seconds(spans)
    children = _children(spans)
    paths: dict[tuple[str, ...], dict] = {}
    path_of: list[tuple[str, ...]] = []
    for index, span in enumerate(spans):
        path = (path_of[span.parent] if span.parent is not None else ()) + (span.name,)
        path_of.append(path)
        row = paths.setdefault(path, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "parent": False})
        row["calls"] += 1
        row["busy_s"] += span.seconds
        row["self_s"] += own[index]
        row["parent"] = row["parent"] or index in children
    per_op = max(operations, 1)
    rows: list[dict] = []

    def emit(prefix: tuple[str, ...]) -> None:
        for path, row in paths.items():
            if path[:-1] != prefix:
                continue
            entry = {
                "depth": len(path) - 1,
                "name": path[-1],
                "calls": row["calls"] / per_op,
                "busy_s": row["busy_s"] / per_op,
                "self_s": row["self_s"] / per_op,
            }
            rows.append(entry)
            emit(path)
            if row["parent"]:
                rows.append(
                    {
                        "depth": len(path),
                        "name": "unattributed",
                        "calls": 0.0,
                        "busy_s": row["self_s"] / per_op,
                        "self_s": row["self_s"] / per_op,
                    }
                )

    emit(())
    return rows


def render_tree(rows: list[dict]) -> str:
    lines = [f"{'span (per operation)':<48} {'calls':>9} {'busy_s':>10} {'self_s':>10}"]
    for row in rows:
        label = "  " * row["depth"] + row["name"]
        calls = "" if row["name"] == "unattributed" else f"{row['calls']:.2f}"
        lines.append(f"{label:<48} {calls:>9} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}")
    return "\n".join(lines)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _unattributed(spans: list[Span], name: str) -> float:
    own = self_seconds(spans)
    return sum(own[index] for index, span in enumerate(spans) if span.name == name)


_BUSY = {
    "httplog.read_jsonl_s": "httplog.read_jsonl",
    "preprocess.s": "preprocess",
    "dimensions.client.build_s": "dimensions.client.build",
    "dimensions.urifile.build_s": "dimensions.urifile.build",
    "dimensions.ipset.build_s": "dimensions.ipset.build",
    "dimensions.whois.build_s": "dimensions.whois.build",
    "interning.accumulate_pairs_s": "interning.accumulate_pairs",
    "graph.louvain_s": "graph.louvain",
    "pipeline.mine_s": "pipeline.mine",
    "pipeline.finish_s": "pipeline.finish",
    "correlation.correlate_s": "correlation.correlate",
    "pruning.dominant_referrers_s": "pruning.dominant_referrers",
    "pruning.prune_s": "pruning.prune",
    "inference.infer_s": "inference.infer",
    "export.write_result_s": "export.write_result",
    "stream.advance_s": "stream.advance",
    "tracker.advance_s": "tracker.advance",
    "checkpoint.save_s": "checkpoint.save",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "dispatch.run_s": "dispatch.run",
    "partials.load_s": "partials.load",
}

_COUNTS = {
    "httplog.requests_parsed": ("httplog.read_jsonl", "requests"),
    "interning.enumerated_pairs": ("interning.accumulate_pairs", "enumerated_pairs"),
    "interning.candidate_pairs": ("interning.accumulate_pairs", "candidate_pairs"),
    "graph.louvain_calls": ("graph.louvain", None),
    "stream.dimensions_mined": ("stream.advance", "dimensions_mined"),
    "stream.dimensions_reused": ("stream.advance", "dimensions_reused"),
    "checkpoint.bytes": ("checkpoint.save", "bytes"),
    "store.put_bytes": ("store.put", "bytes"),
    "store.gets": ("store.get", None),
    "dispatch.jobs": ("dispatch.run", "jobs"),
    "dispatch.retries": ("dispatch.run", "retries"),
    "partials.bytes": ("partials.load", "bytes"),
}

def layer_metrics(spans: list[Span], operations: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    Seconds, counts and bytes are per timed operation (mean over the
    traced operations); a layer the workload never enters reads 0.
    """
    per_op = max(operations, 1)
    values: dict[str, float] = {}
    for metric, name in _BUSY.items():
        values[metric] = busy_seconds(spans, name) / per_op
    for metric, (name, key) in _COUNTS.items():
        values[metric] = count_total(spans, name, key) / per_op
    values["preprocess.kept_ratio"] = _ratio(
        count_total(spans, "preprocess", "kept"), count_total(spans, "preprocess", "raw")
    )
    values["interning.pair_yield"] = _ratio(
        values["interning.candidate_pairs"], values["interning.enumerated_pairs"]
    )
    mined = values["stream.dimensions_mined"]
    reused = values["stream.dimensions_reused"]
    values["stream.cache_hit_ratio"] = _ratio(reused, mined + reused)
    sharded = busy_seconds(spans, "shardmine.mine_sharded")
    values["shardmine.reduce_s"] = (
        max(sharded - busy_seconds(spans, "dispatch.run"), 0.0) / per_op if sharded else 0.0
    )
    values["pipeline.mine.unattributed_s"] = _unattributed(spans, "pipeline.mine") / per_op
    values["stream.advance.unattributed_s"] = _unattributed(spans, "stream.advance") / per_op
    values["operation.unattributed_s"] = _unattributed(spans, OPERATION) / per_op
    return values
