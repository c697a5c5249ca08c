"""Sharded map-reduce preprocessing over trace partitions.

One :meth:`~repro.core.pipeline.SmashPipeline.mine` call used to hold
the whole window's trace *and* every per-dimension index in memory at
once, which caps mining at single-host window size.  This module runs
the preprocess stage as a deterministic map-reduce whose peak state is
bounded by shard size plus merge state, and hands its index-only result
to the same dimension stage the single-pass mine ends in
(:func:`~repro.core.pipeline.mine_dimensions`):

**Map (index extraction).**  The trace is cut into contiguous shards
(day-partition-aligned when the streaming window provides boundaries).
Each shard job makes one pass over its requests, applying the same SLD
aggregation as :func:`~repro.core.preprocess.preprocess`, and emits
inverted-index partials (clients / IPs / URI files / optional parameter
patterns and time windows / referrer counts, per server) keyed by the
**namespace-stable** ids of :class:`~repro.core.interning.StableInterner`
— a pure content hash of the server label, so shard workers agree on
every id with no global pass and no coordination.  Partials are spilled
to a digest-verified :class:`~repro.stream.store.PartialStore`
immediately, so even a serial map phase never holds more than one
shard's indexes.

**Reduce (merge).**  Partials are merged one at a time in canonical
shard order: vocabularies union with collision detection, index sets
union, request counts add.  The IDF/min-clients filter runs on the
merged client sets, the :class:`~repro.core.preprocess.PreprocessReport`
falls out of the merged accounting, and the prepared trace is an
:class:`IndexOnlyTrace` — the merged indexes and scalars without a
single raw request, so the coordinator never re-scans (or even holds)
the window.  Reduce-side consumers that need window-wide request facts
get them from small per-shard summaries instead: request counts ride in
the partials and the dominant-referrer map (the one ``finish``-stage
request scan) is folded from per-shard referrer counters and pre-seeded
into ``MinedDimensions.stage_cache``.  Any code path that would actually
touch raw requests on the hollow trace raises loudly.

Graph building, Louvain and the
:class:`~repro.core.pipeline.DimensionCache` contract are the
single-pass ones, fed the hollow trace: the builders and the content
signatures read only its indexes, so sharded and single-shard mines
build identical graphs, hit the same cache entries and return results
**byte-identical under any ``PYTHONHASHSEED``** (test-enforced in
subprocesses).  The splice point is :class:`~repro.config.SmashConfig`
``shards``.

**Store-direct map jobs** (``SmashConfig.out_of_core`` on the streaming
path, or a mine given partition references instead of a trace): each
shard job is a small JSON *spec* naming its inputs by ``(day, digest)``
partition references into the :class:`~repro.stream.store.TraceStore`;
the worker loads (and digest-verifies) its own day partitions, extracts,
spills, and reports back nothing but the partial's ``(name, digest)``.
Shard cuts fall on day boundaries exactly like the in-memory boundary
split (:func:`shard_ranges` is computed from :func:`_segment_groups`),
so the per-shard request slices — and therefore the spilled partials —
are byte-identical to the in-memory path's.

**Dispatch seam.**  Where map jobs execute is delegated to a
:class:`~repro.core.dispatch.ShardDispatcher` (``SmashConfig.dispatch``):
on the mine's shared pool (the default), or on long-lived worker
subprocesses speaking the store-paths + digests contract a remote
worker would use.  The pipeline hands out the dispatcher
(:meth:`~repro.core.pipeline.SmashPipeline.shard_dispatcher`) so those
workers outlive one mine.  The reduce and the dimension stage always run
on the coordinator and its pool; dispatch only moves the map phase, and
never decides whether a mine is sharded (``shards``, ``out_of_core`` and
store partitions do).
"""

from __future__ import annotations

import tempfile
import time

from collections import Counter, defaultdict
from itertools import accumulate
from pathlib import Path

from repro.config import SmashConfig
from repro.core.dimensions.timedim import DEFAULT_WINDOW_SECONDS
from repro.core.faults import fire_after_spill, fire_before_load
from repro.core.interning import StableInterner
from repro.core.preprocess import PreprocessReport
from repro.core.pruning import referrer_host
from repro.domains.names import normalize_server_name
from repro.errors import PipelineError
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace
from repro.stream.store import PartialStore, TraceStore
from repro.util.parallel import JobPool

__all__ = [
    "mine_sharded",
    "run_shard_job",
    "IndexOnlyTrace",
    "shard_ranges",
]


# -- shard planning -----------------------------------------------------------------


def shard_ranges(
    total: int, shards: int, boundaries: tuple[int, ...] | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` request ranges for the map phase.

    Without *boundaries* the requests are split evenly.  With
    *boundaries* (per-day request counts from the streaming window, in
    trace order) shard cuts only fall on day-partition edges, so each
    shard job corresponds to whole stored partitions — the
    partition-scoped load path.  Fewer days than shards simply yields
    fewer (day-sized) shards.
    """
    if total <= 0:
        return []
    shards = max(1, min(shards, total))
    if boundaries and len(boundaries) > 1 and sum(boundaries) == total:
        offsets = [0, *accumulate(boundaries)]
        spans = _segment_groups(boundaries, shards)
        return [(offsets[first], offsets[last]) for first, last in spans]
    return [
        (index * total // shards, (index + 1) * total // shards)
        for index in range(shards)
        if index * total // shards < (index + 1) * total // shards
    ]


def _segment_groups(
    boundaries: tuple[int, ...], shards: int
) -> list[tuple[int, int]]:
    """Partition-index spans ``[first, last)`` of the boundary-aligned split.

    Group *g* covers exactly ``partitions[first:last]``: the boundary
    path of :func:`shard_ranges` is these spans' request offsets, and the
    store-direct map phase loads and concatenates those day partitions,
    so both reproduce the same shard's request slice byte for byte — and
    the same group count, hence shard numbering.
    """
    total = sum(boundaries)
    if total <= 0:
        return []
    shards = max(1, min(shards, total))
    segments = len(boundaries)
    groups = min(shards, segments)
    offsets = [0]
    for length in boundaries:
        offsets.append(offsets[-1] + length)
    spans: list[tuple[int, int]] = []
    for group in range(groups):
        first = group * segments // groups
        last = (group + 1) * segments // groups
        if offsets[first] < offsets[last]:
            spans.append((first, last))
    return spans


# -- map: per-shard index extraction -------------------------------------------------


def _resolve_source(spec: dict) -> HttpTrace:
    """Materialise one shard job's input trace from its source spec.

    ``inline`` carries a live :class:`HttpTrace` (the pool dispatcher
    only); ``store`` names whole day partitions by
    ``(day, digest)`` in a :class:`~repro.stream.store.TraceStore`, with
    an optional ``slice [k, n]`` applying the even :func:`shard_ranges`
    cut after concatenation; ``spill`` names a coordinator-spilled
    request partial by ``(name, digest)``.  Every store/spill load is
    digest-verified, so a corrupt input fails the job with a
    :class:`~repro.errors.StreamError` instead of skewing the merge.
    """
    source = spec["source"]
    kind = source.get("kind")
    if kind == "inline":
        return source["trace"]
    if kind == "store":
        store = TraceStore(source["root"])
        traces = [
            store.get(int(day), digest=str(digest)).trace
            for day, digest in source["partitions"]
        ]
        trace = (
            traces[0]
            if len(traces) == 1
            else HttpTrace.concat(traces, name=traces[0].name)
        )
        cut = source.get("slice")
        if cut is not None:
            index, count = int(cut[0]), int(cut[1])
            start, stop = shard_ranges(len(trace), count)[index]
            trace = HttpTrace(trace.requests[start:stop], name=trace.name)
        return trace
    if kind == "spill":
        payload = PartialStore(source["root"]).load(source["name"], source["digest"])
        return HttpTrace(
            (HttpRequest.from_dict(entry) for entry in payload["requests"]),
            name=str(source.get("trace_name", "shard")),
        )
    raise PipelineError(f"unknown shard-job source kind {kind!r}")


def run_shard_job(spec: dict) -> dict:
    """One map job: extract a shard's inverted-index partial and spill it.

    *spec* is JSON-compatible apart from an ``inline`` source's trace
    (see :func:`_resolve_source`), so the same function serves the
    pool dispatcher and the subprocess worker
    (:mod:`repro.core.shardworker`).  The heavy payload travels through
    the digest-verified :class:`PartialStore`; the returned dict carries
    only the partial's identity plus small accounting.

    A retrying dispatcher overrides the spill name per attempt via
    ``spec["spill_name"]`` (fresh names keep a dead attempt's bytes from
    shadowing a later good one), and ``spec["fault"]`` — set only by an
    explicit :class:`~repro.core.faults.FaultPlan` — triggers the
    deterministic injection hooks at job entry and after the spill.
    """
    tick = time.perf_counter()
    shard = int(spec["shard"])
    fault = spec.get("fault")
    fire_before_load(fault, shard)
    trace = _resolve_source(spec)
    aggregate = bool(spec["aggregate"])
    want_patterns = bool(spec["want_patterns"])
    want_windows = bool(spec["want_windows"])
    want_referrers = bool(spec.get("want_referrers", False))
    window_seconds = float(spec["window_seconds"])

    sid_of_host: dict[str, tuple[int, str]] = {}
    vocab = StableInterner()
    clients: dict[int, set[str]] = defaultdict(set)
    ips: dict[int, set[str]] = defaultdict(set)
    files: dict[int, set[str]] = defaultdict(set)
    patterns: dict[int, set[tuple[str, ...]]] = defaultdict(set)
    windows: dict[int, set[int]] = defaultdict(set)
    counts: Counter[int] = Counter()
    file_of_uri: dict[str, str] = {}
    raw_hosts: set[str] = set()
    # Referrer summaries mirror pruning.dominant_referrers: per server
    # (aggregated label), count requests per external landing server, in
    # first-seen order — contiguous shards merged in shard order then
    # reproduce the whole-trace first-seen order, so the reduce-side
    # dominant pick matches Counter.most_common's tie-break exactly.
    referrers: dict[int, dict[str, int]] = {}
    landing_of: dict[str, str | None] = {}
    host_cache: dict[str, str | None] = {}
    for request in trace.requests:
        host = request.host
        cached = sid_of_host.get(host)
        if cached is None:
            raw_hosts.add(host)
            label = normalize_server_name(host) if aggregate else host
            cached = (vocab.intern(label), label)
            sid_of_host[host] = cached
        sid = cached[0]
        clients[sid].add(request.client)
        ips[sid].add(request.server_ip)
        uri = request.uri
        filename = file_of_uri.get(uri)
        if filename is None:
            filename = request.uri_file
            file_of_uri[uri] = filename
        files[sid].add(filename)
        counts[sid] += 1
        if want_patterns:
            names = request.parameter_names
            if names:
                patterns[sid].add(names)
        if want_windows:
            windows[sid].add(int(request.timestamp // window_seconds))
        if want_referrers:
            referrer = request.referrer
            if referrer:
                if referrer in landing_of:
                    landing = landing_of[referrer]
                else:
                    landing = referrer_host(referrer, host_cache)
                    landing_of[referrer] = landing
                if landing is not None and landing != cached[1]:
                    entries = referrers.get(sid)
                    if entries is None:
                        entries = referrers[sid] = {}
                    entries[landing] = entries.get(landing, 0) + 1

    payload: dict[str, object] = {
        "shard": shard,
        "requests": len(trace),
        "raw_hosts": sorted(raw_hosts),
        "vocab": {str(sid): label for sid, label in vocab.to_dict().items()},
        "clients": {str(sid): sorted(found) for sid, found in clients.items()},
        "ips": {str(sid): sorted(found) for sid, found in ips.items()},
        "files": {str(sid): sorted(found) for sid, found in files.items()},
        "counts": {str(sid): count for sid, count in counts.items()},
    }
    if want_patterns:
        payload["patterns"] = {
            str(sid): sorted(list(pattern) for pattern in found)
            for sid, found in patterns.items()
        }
    if want_windows:
        payload["windows"] = {str(sid): sorted(found) for sid, found in windows.items()}
    if want_referrers:
        # Insertion order is data, not cosmetics (see above); JSON
        # round-trips object key order, so it survives the spill.
        payload["referrers"] = {
            str(sid): [[landing, count] for landing, count in entries.items()]
            for sid, entries in referrers.items()
        }
    name = str(spec.get("spill_name") or f"index-{shard:04d}")
    spill = PartialStore(spec["spill_root"])
    digest, spilled = spill.put(name, payload)
    fire_after_spill(fault, spill.path_of(name), shard)
    return {
        "shard": shard,
        "name": name,
        "digest": digest,
        "spilled": spilled,
        "requests": len(trace),
        "seconds": time.perf_counter() - tick,
    }


class _MergedIndexes:
    """Reduce-side accumulator for phase-A partials (one shard at a time)."""

    def __init__(self) -> None:
        self.vocab = StableInterner()
        self.clients: dict[int, set[str]] = defaultdict(set)
        self.ips: dict[int, set[str]] = defaultdict(set)
        self.files: dict[int, set[str]] = defaultdict(set)
        self.patterns: dict[int, set[tuple[str, ...]]] = defaultdict(set)
        self.windows: dict[int, set[int]] = defaultdict(set)
        self.counts: Counter[int] = Counter()
        self.raw_hosts: set[str] = set()
        self.requests = 0
        #: server id -> landing server -> referred-request count, in
        #: global first-seen order (shards merge in canonical order and
        #: cover contiguous trace slices, so appending each shard's
        #: first-seen entries reproduces the whole-trace order).
        self.referrers: dict[int, dict[str, int]] = {}

    def merge(self, payload: dict) -> None:
        self.requests += int(payload["requests"])
        self.raw_hosts.update(payload["raw_hosts"])
        self.vocab.merge({int(sid): label for sid, label in payload["vocab"].items()})
        for attribute in ("clients", "ips", "files"):
            target = getattr(self, attribute)
            for sid, found in payload[attribute].items():
                target[int(sid)].update(found)
        for sid, count in payload["counts"].items():
            self.counts[int(sid)] += count
        for sid, found in payload.get("patterns", {}).items():
            self.patterns[int(sid)].update(tuple(pattern) for pattern in found)
        for sid, found in payload.get("windows", {}).items():
            self.windows[int(sid)].update(found)
        for sid, entries in payload.get("referrers", {}).items():
            target_entries = self.referrers.setdefault(int(sid), {})
            for landing, count in entries:
                target_entries[landing] = target_entries.get(landing, 0) + int(count)


# -- the sharded mine ---------------------------------------------------------------


class IndexOnlyTrace(HttpTrace):
    """A prepared trace holding inverted indexes but no raw requests.

    The sharded reduce builds every per-dimension graph (and every
    content signature) from the merged shard indexes; the scalar facts
    consumers legitimately need — request count, server namespace — are
    injected.  Any path that would actually read raw requests raises a
    :class:`~repro.errors.PipelineError`: silently iterating an empty
    request tuple would corrupt results, failing loudly turns a missed
    consumer into a test failure instead.

    The injected indexes are this trace's whole content, not a cache: it
    pickles with them (process-pool dimension jobs receive them intact),
    refuses to rebuild them from its empty request tuple, and compares
    and hashes by name, length and indexes.
    """

    #: The injected index slots, in comparison order.
    _INDEXES = (
        "_clients_by_server",
        "_ips_by_server",
        "_files_by_server",
        "_servers_by_client",
        "_servers",
        "_patterns_by_server",
        "_windows_by_server",
    )

    def __init__(self, name: str, num_requests: int) -> None:
        super().__init__((), name=name)
        self._num_requests = num_requests
        self._patterns_by_server: dict[str, frozenset[tuple[str, ...]]] | None = None
        self._windows_by_server: dict[str, frozenset[int]] | None = None

    def _no_requests(self) -> PipelineError:
        return PipelineError(
            f"trace {self.name!r} is index-only (sharded mine): raw "
            "requests were never assembled in the coordinator"
        )

    def __len__(self) -> int:
        return self._num_requests

    def __iter__(self):
        raise self._no_requests()

    def __getstate__(self) -> dict[str, object]:
        return self.__dict__.copy()

    def _value(self) -> tuple:
        return (
            self.name,
            self._num_requests,
            *(getattr(self, slot) for slot in self._INDEXES),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HttpTrace):
            return NotImplemented
        return isinstance(other, IndexOnlyTrace) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash((self.name, self._num_requests, self._servers))

    def _build_indices(self) -> None:
        raise self._no_requests()

    _build_file_index = _build_request_index = _build_indices

    @property
    def requests(self):
        raise self._no_requests()


def _assemble_hollow(
    merged: _MergedIndexes,
    config: SmashConfig,
    trace_name: str,
    want_patterns: bool,
    want_windows: bool,
    want_referrers: bool,
) -> tuple[IndexOnlyTrace, PreprocessReport, dict[str, str]]:
    """Finish preprocessing without ever materialising the window trace.

    Applies ``preprocess()``'s IDF/min-clients filter to the merged
    client sets and injects the merged inverted indexes into an
    :class:`IndexOnlyTrace` — no request is ever resident in the
    coordinator.  Also folds the per-shard referrer summaries into the
    ``dominant_referrers`` map the finish stage would otherwise derive
    by scanning the prepared trace (same majority rule, same
    ``most_common`` tie-break via first-seen insertion order).
    """
    pre = config.preprocess
    label_of = merged.vocab.to_dict()
    popular = {sid for sid, clients in merged.clients.items() if len(clients) > pre.idf_threshold}
    too_rare = {sid for sid, clients in merged.clients.items() if len(clients) < pre.min_clients}
    kept = {
        sid: label
        for sid, label in label_of.items()
        if sid not in popular and sid not in too_rare
    }

    kept_requests = sum(merged.counts[sid] for sid in kept)
    prepared = IndexOnlyTrace(f"{trace_name}:preprocessed", kept_requests)
    order = sorted(kept, key=lambda sid: kept[sid])
    clients_by_server = {kept[sid]: frozenset(merged.clients[sid]) for sid in order}
    servers_of: dict[str, set[str]] = defaultdict(set)
    for label, clients in clients_by_server.items():
        for client in clients:
            servers_of[client].add(label)
    prepared._clients_by_server = clients_by_server
    prepared._ips_by_server = {kept[sid]: frozenset(merged.ips[sid]) for sid in order}
    prepared._files_by_server = {kept[sid]: frozenset(merged.files[sid]) for sid in order}
    prepared._servers_by_client = {
        client: frozenset(found) for client, found in servers_of.items()
    }
    prepared._servers = frozenset(clients_by_server)
    if want_patterns:
        # Only servers with >= 1 parameterised request, matching
        # parameter_patterns_by_server's scan output on the kept trace.
        prepared._patterns_by_server = {
            kept[sid]: frozenset(merged.patterns[sid])
            for sid in order
            if merged.patterns.get(sid)
        }
    if want_windows:
        # Every kept server has >= 1 request, hence >= 1 active window.
        prepared._windows_by_server = {
            kept[sid]: frozenset(merged.windows[sid]) for sid in order
        }

    referrer_of: dict[str, str] = {}
    if want_referrers:
        for sid in order:
            entries = merged.referrers.get(sid)
            if not entries:
                continue
            landing, hits = max(entries.items(), key=lambda item: item[1])
            if hits * 2 > merged.counts[sid]:
                referrer_of[kept[sid]] = landing

    report = PreprocessReport(
        raw_servers=len(merged.raw_hosts),
        aggregated_servers=len(label_of),
        popular_servers_removed=len(popular),
        kept_servers=len(kept),
        raw_requests=merged.requests,
        kept_requests=kept_requests,
    )
    return prepared, report, referrer_of


def _store_specs(
    partitions,
    store_root,
    boundaries: tuple[int, ...],
    shards: int,
    common: dict,
) -> list[dict]:
    """Store-direct shard-job specs over ``(day, digest)`` partition refs.

    Multiple partitions are grouped on day boundaries exactly like the
    in-memory boundary split (:func:`_segment_groups`); a single
    partition is split evenly worker-side via a ``slice`` spec applying
    :func:`shard_ranges`.  Either way the request content per shard
    number is identical to the in-memory path's, so the spilled partials
    — and everything merged from them — stay byte-identical.
    """
    refs = [[int(day), str(digest)] for day, digest in partitions]
    if len(refs) != len(boundaries):
        raise PipelineError(
            f"store-direct mining got {len(refs)} partitions but "
            f"{len(boundaries)} shard boundaries; they must correspond 1:1"
        )
    specs: list[dict] = []
    if len(refs) > 1:
        for index, (first, last) in enumerate(_segment_groups(boundaries, shards)):
            source = {
                "kind": "store",
                "root": str(store_root),
                "partitions": refs[first:last],
            }
            specs.append({"shard": index, "source": source, **common})
    else:
        count = len(shard_ranges(sum(boundaries), shards))
        for index in range(count):
            source = {
                "kind": "store",
                "root": str(store_root),
                "partitions": refs,
                "slice": [index, count],
            }
            specs.append({"shard": index, "source": source, **common})
    return specs


def mine_sharded(
    pipeline,
    trace: HttpTrace | None,
    whois,
    config: SmashConfig,
    cache,
    span,
    pool: JobPool,
    boundaries: tuple[int, ...] | None = None,
    spill_dir: str | Path | None = None,
    partitions=None,
    store_root: str | Path | None = None,
    trace_name: str | None = None,
):
    """The sharded mine path; see the module docstring.

    Runs the sharded preprocess (map → merge → :func:`_assemble_hollow`)
    and hands the index-only trace to
    :func:`~repro.core.pipeline.mine_dimensions`, so it returns a
    :class:`~repro.core.pipeline.MinedDimensions` byte-for-byte equal
    (in every output-reachable field) to what the single-pass mine
    produces on the same inputs, apart from the prepared trace being an
    :class:`IndexOnlyTrace`.

    With *partitions* (``(day, digest)`` references into the store at
    *store_root*) instead of *trace*, map jobs load their own day
    partitions, so the coordinator never holds a raw request
    (*boundaries* must then be the per-partition request counts, from
    the partition manifests).  ``config.dispatch`` selects how map jobs
    execute either way.
    """
    from repro.core.pipeline import mine_dimensions

    recorder = pipeline.metrics
    shards = config.shards
    out_of_core = config.out_of_core or trace is None
    if trace is None and (not partitions or store_root is None or not boundaries):
        raise PipelineError(
            "store-direct mining needs partitions, store_root and "
            "shard_boundaries when no trace is given"
        )
    window_name = trace.name if trace is not None else (trace_name or "trace")
    want_patterns = "urlparam" in config.enabled_secondary_dimensions
    want_windows = "time" in config.enabled_secondary_dimensions
    want_referrers = config.pruning.prune_referrer_groups

    if spill_dir is not None:
        parent = Path(spill_dir)
        parent.mkdir(parents=True, exist_ok=True)
        # A crashed coordinator leaks its spill dir; collect stale ones
        # (age- and ownership-checked) before adding our own.
        PartialStore.gc_orphans(parent)
        spill_root = tempfile.mkdtemp(prefix="mine-", dir=str(parent))
    else:
        spill_root = tempfile.mkdtemp(prefix="repro-shardmine-")
    spill = PartialStore(spill_root)
    spill.claim()
    dispatcher = pipeline.shard_dispatcher(pool)
    try:
        with recorder.span("pipeline.mine.preprocess") as pre_span:
            common = {
                "aggregate": config.preprocess.aggregate_second_level,
                "want_patterns": want_patterns,
                "want_windows": want_windows,
                "want_referrers": want_referrers,
                "window_seconds": DEFAULT_WINDOW_SECONDS,
                "spill_root": spill_root,
            }
            input_partials: list[str] = []
            if partitions is not None:
                specs = _store_specs(partitions, store_root, boundaries, shards, common)
            else:
                requests = trace.requests
                specs = []
                for index, (start, stop) in enumerate(
                    shard_ranges(len(trace), shards, boundaries)
                ):
                    shard_trace = HttpTrace(
                        requests[start:stop], name=f"{trace.name}:shard{index}"
                    )
                    if dispatcher.inline_traces:
                        source: dict[str, object] = {
                            "kind": "inline",
                            "trace": shard_trace,
                        }
                    else:
                        # The dispatcher can't share our address space:
                        # spill the shard's requests and hand over a
                        # digest-verified reference instead.
                        input_name = f"input-{index:04d}"
                        digest, _ = spill.put(
                            input_name,
                            {
                                "requests": [
                                    request.to_dict()
                                    for request in shard_trace.requests
                                ]
                            },
                        )
                        input_partials.append(input_name)
                        source = {
                            "kind": "spill",
                            "root": spill_root,
                            "name": input_name,
                            "digest": digest,
                            "trace_name": shard_trace.name,
                        }
                    specs.append({"shard": index, "source": source, **common})
            num_shards = len(specs)
            results = sorted(dispatcher.run(specs), key=lambda entry: entry["shard"])
            for input_name in input_partials:
                spill.delete(input_name)
            if recorder.enabled:
                # Map-phase spans belong to preprocess, beside (not
                # inside) the merge that follows.
                for result in results:
                    attributes = {
                        "shard": result["shard"],
                        "requests": result["requests"],
                        "spill_bytes": result["spilled"],
                    }
                    if "peak_rss_kb" in result:
                        attributes["worker_peak_rss_kb"] = result["peak_rss_kb"]
                    recorder.record_span("pipeline.mine.shard_index", result["seconds"], attributes)
                    recorder.counter(
                        "smash_shard_index_partials_total",
                        "Per-shard index partials produced by the map phase.",
                    ).inc()
                    recorder.counter(
                        "smash_shard_spill_bytes_total",
                        "Bytes of sharded-mine partials spilled, by kind.",
                        labels=("kind",),
                    ).labels(kind="index").inc(result["spilled"])

            merged = _MergedIndexes()
            with recorder.span("pipeline.mine.shard_merge") as merge_span:
                for result in results:
                    merged.merge(spill.load(result["name"], result["digest"]))
                    spill.delete(result["name"])
            prepared, report, referrer_of = _assemble_hollow(
                merged,
                config,
                window_name,
                want_patterns,
                want_windows,
                want_referrers,
            )
            if recorder.enabled:
                merge_span.set(
                    shards=num_shards,
                    servers=len(merged.vocab),
                    kept_servers=report.kept_servers,
                )
                pre_span.set(
                    raw_requests=report.raw_requests,
                    kept_requests=report.kept_requests,
                    raw_servers=report.raw_servers,
                    kept_servers=report.kept_servers,
                    popular_servers_removed=report.popular_servers_removed,
                    shards=num_shards,
                    dispatch=dispatcher.kind,
                    out_of_core=out_of_core,
                )
    finally:
        spill.cleanup()
    # The prepared trace holds its own copies of the merged sets; drop
    # the originals before the dimension stage builds its graphs.
    del merged
    if recorder.enabled:
        span.set(shards=num_shards, dispatch=dispatcher.kind, out_of_core=out_of_core)
    return mine_dimensions(
        prepared,
        report,
        whois,
        config,
        cache,
        span,
        pool,
        recorder,
        stage_cache={"dominant_referrers": referrer_of},
    )
