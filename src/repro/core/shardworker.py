"""Shard-job worker entry point: ``python -m repro.core.shardworker``.

A long-lived worker of :class:`~repro.core.dispatch.SubprocessDispatcher`.
It reads one JSON shard-job spec per line from stdin, executes each with
:func:`~repro.core.shardmine.run_shard_job`, and answers each with one
JSON result line on stdout; it exits on stdin EOF, so the coordinator
closing the pipe — or dying — ends it.  The spec names its inputs by
store paths and content digests and the result names the spilled
partial the same way, so this process shares nothing with the
coordinator but the filesystem — the contract a remote worker over any
transport would satisfy.

Each result carries ``peak_rss_kb``, the peak RSS of that job alone (the
kernel's VmHWM, reset before every job; see :mod:`repro.obs.peakrss`).

A failed job is answered with a structured
``{"error": {"kind", "message", "retryable"}}`` line (its traceback goes
to stderr) and the worker stays up for the next spec, so the dispatcher
can re-raise the coordinator-side equivalent — and its retry policy can
tell a transient failure from a fatal one.  Anything library code prints
lands on stderr: stdout carries replies only.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

from repro.core.faults import is_retryable, mark_worker_process
from repro.core.shardmine import run_shard_job
from repro.obs.peakrss import peak_rss_kb, reset_peak_rss


def _serve(line: bytes) -> dict:
    reset_peak_rss()
    try:
        spec = json.loads(line)
        if not isinstance(spec, dict):
            raise ValueError("shard-job spec must be a JSON object")
        result = run_shard_job(spec)
    except Exception as error:
        traceback.print_exc()
        sys.stderr.flush()
        return {
            "error": {
                "kind": type(error).__name__,
                "message": str(error),
                "retryable": is_retryable(error),
            }
        }
    result["peak_rss_kb"] = peak_rss_kb()
    return result


def main() -> int:
    # This process exists only to run shard jobs; injected crash faults
    # may os._exit it the way a real interpreter death would.
    mark_worker_process()
    # Replies own the real stdout; a stray print goes to stderr instead
    # of desynchronising the line protocol.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    requests = sys.stdin.buffer
    while line := requests.readline():
        if line.strip():
            replies.write(json.dumps(_serve(line)) + "\n")
            replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
