"""Exporters for :class:`~repro.obs.metrics.MetricsRegistry`.

Two formats:

* **Prometheus text exposition** (:func:`to_prometheus_text`) — the
  ``# HELP`` / ``# TYPE`` format every Prometheus-compatible scraper
  reads, written to a file (:func:`write_prometheus`) or served one-shot
  over HTTP (:func:`serve_prometheus_once`, the seam the future
  ``smash serve`` mode will keep open permanently).  A minimal parser
  (:func:`parse_prometheus_text`) backs the golden tests, the CI smoke
  check and ``smash stats``.
* **JSONL snapshot** (:func:`write_snapshot` / :func:`read_snapshot`) —
  one JSON object per line: a meta header, every metric sample, every
  span.  This is the machine-readable artifact ``--trace-out`` writes
  and ``smash stats`` renders.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import ObsError
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM, Histogram, MetricsRegistry

SNAPSHOT_FORMAT = "repro.obs.snapshot"
SNAPSHOT_VERSION = 1

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _merge_labels(base: str, extra: str) -> str:
    """Append one ``name="value"`` pair to a rendered label block."""
    if not base:
        return "{" + extra + "}"
    return base[:-1] + "," + extra + "}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format.

    Families appear in sorted name order and samples in sorted label
    order, so the rendering of a deterministically-built registry is
    itself deterministic (the golden test relies on this).
    """
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for label_values, child in family.samples():
            labels = _render_labels(family.label_names, label_values)
            if family.kind == HISTOGRAM:
                assert isinstance(child, Histogram)
                for bound, cumulative in child.cumulative_buckets():
                    le = _merge_labels(labels, f'le="{_format_value(bound)}"')
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                lines.append(f"{family.name}_sum{labels} {_format_value(child.sum)}")
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                lines.append(f"{family.name}{labels} {_format_value(child.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus_text(registry))
    return path


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse exposition text into ``name -> [(labels, value), ...]``.

    Histogram series come back under their ``_bucket`` / ``_sum`` /
    ``_count`` sample names.  Malformed lines raise
    :class:`~repro.errors.ObsError` — the CI smoke job uses this to
    prove the artifact actually parses.
    """
    series: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        name_part = name_part.strip()
        if not name_part or not value_part:
            raise ObsError(f"line {lineno}: not a prometheus sample: {raw!r}")
        labels: dict[str, str] = {}
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            if not label_part.endswith("}"):
                raise ObsError(f"line {lineno}: unterminated label block: {raw!r}")
            body = label_part[:-1]
            while body:
                eq = body.index("=")
                key = body[:eq].strip()
                rest = body[eq + 1:].lstrip()
                if not rest.startswith('"'):
                    raise ObsError(f"line {lineno}: unquoted label value: {raw!r}")
                # Scan the quoted value, honouring backslash escapes.
                out: list[str] = []
                i = 1
                while i < len(rest):
                    ch = rest[i]
                    if ch == "\\" and i + 1 < len(rest):
                        nxt = rest[i + 1]
                        out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                        i += 2
                        continue
                    if ch == '"':
                        break
                    out.append(ch)
                    i += 1
                else:
                    raise ObsError(f"line {lineno}: unterminated label value: {raw!r}")
                labels[key] = "".join(out)
                body = rest[i + 1:].lstrip().lstrip(",").lstrip()
        else:
            name = name_part
        value_text = value_part.strip()
        try:
            value = float("inf") if value_text == "+Inf" else float(value_text)
        except ValueError as error:
            raise ObsError(f"line {lineno}: bad sample value {value_text!r}") from error
        series.setdefault(name, []).append((labels, value))
    return series


def serve_prometheus_once(
    registry: MetricsRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
) -> tuple[str, int]:
    """Serve the current exposition for exactly one HTTP request.

    Binds, invokes *ready* (if given) with the bound ``(host, port)`` so
    the caller learns an ephemeral port, handles one request, closes.
    Returns the address it served on.
    """
    # Imported here: http.server is heavy, and nothing else needs it.
    from http.server import BaseHTTPRequestHandler, HTTPServer

    body = to_prometheus_text(registry).encode("utf-8")

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass  # one-shot debug servers must not spam stderr

    server = HTTPServer((host, port), _Handler)
    try:
        address = (server.server_address[0], server.server_address[1])
        if ready is not None:
            ready(address)
        server.handle_request()
    finally:
        server.server_close()
    return address


# -- JSONL snapshot ----------------------------------------------------------------


def snapshot_lines(registry: MetricsRegistry) -> list[dict[str, object]]:
    """The snapshot as JSON-compatible row dicts (meta, metrics, spans)."""
    rows: list[dict[str, object]] = [
        {
            "type": "meta",
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "families": len(registry.families()),
            "spans": len(registry.spans),
        }
    ]
    for family in registry.families():
        for label_values, child in family.samples():
            row: dict[str, object] = {
                "type": "metric",
                "kind": family.kind,
                "name": family.name,
                "help": family.help,
                "labels": dict(zip(family.label_names, label_values)),
            }
            if family.kind == HISTOGRAM:
                assert isinstance(child, Histogram)
                row["buckets"] = [
                    ["+Inf" if math.isinf(bound) else bound, cumulative]
                    for bound, cumulative in child.cumulative_buckets()
                ]
                row["sum"] = round(child.sum, 9)
                row["count"] = child.count
            else:
                row["value"] = child.value
            rows.append(row)
    for span in registry.spans:
        rows.append({"type": "span", **span.to_dict()})
    return rows


def write_snapshot(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in snapshot_lines(registry):
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def read_snapshot(path: str | Path) -> dict[str, list[dict[str, object]]]:
    """Load a snapshot file into ``{"metrics": [...], "spans": [...]}``."""
    metrics: list[dict[str, object]] = []
    spans: list[dict[str, object]] = []
    saw_meta = False
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            raise ObsError(f"{path}:{lineno}: not JSON: {error}") from error
        kind = row.get("type")
        if kind == "meta":
            if row.get("format") != SNAPSHOT_FORMAT:
                raise ObsError(f"{path} is not a {SNAPSHOT_FORMAT} file")
            saw_meta = True
        elif kind == "metric":
            metrics.append(row)
        elif kind == "span":
            spans.append(row)
        else:
            raise ObsError(f"{path}:{lineno}: unknown row type {kind!r}")
    if not saw_meta:
        raise ObsError(f"{path} has no snapshot meta header")
    return {"metrics": metrics, "spans": spans}
