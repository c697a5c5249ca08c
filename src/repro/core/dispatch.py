"""Dispatch seam for the sharded mine's map phase.

The coordinator in :mod:`repro.core.shardmine` describes each map job as
a small JSON-compatible *spec* (shard number, input source, output spill
root — see :func:`~repro.core.shardmine.run_shard_job`) and hands the
batch to a :class:`ShardDispatcher`.  Where the jobs execute is the
dispatcher's business alone (``SmashConfig.dispatch``):

* ``"pool"`` — :class:`ShardDispatcher` itself, on the mine's shared
  :class:`~repro.util.parallel.JobPool`: a fail-fast loop in the
  coordinator on a serial pool, a process fan-out on a process pool;
* ``"subprocess"`` — :class:`SubprocessDispatcher`, a pool of long-lived
  ``python -m repro.core.shardworker`` processes speaking a line
  protocol: one JSON spec per line on a worker's stdin, one JSON result
  line per job on its stdout.  The pool spawns lazily and lives until
  :meth:`~ShardDispatcher.close` (the owning
  :class:`~repro.core.pipeline.SmashPipeline` closes it), so a stream
  pays interpreter start-up and imports once, not on every advance.

Both are retry-aware: each shard job runs under a
:class:`~repro.core.faults.RetryPolicy` via
:func:`~repro.core.faults.run_job_outcome`, so a crashed or hung worker,
a torn spill, or a transient store error costs one retry (on a fresh
spill name) instead of the whole mine.  A shard that exhausts its retry
budget is *reassigned* to inline serial execution in the coordinator —
a flaky environment degrades to the in-process path rather than failing
— and only non-retryable errors (a corrupt source partition fails on
every host) abort the batch, deterministically raising the
lowest-numbered shard's error.  Failed spill bytes are quarantined with
a reason file (:meth:`~repro.stream.store.PartialStore.quarantine`), and
the retry / failure / reassignment accounting flows through
:mod:`repro.obs` (``smash_shard_retries_total``,
``smash_shard_worker_failures_total``, ``smash_shard_reassigned_total``
plus per-attempt spans).

The subprocess dispatcher is deliberately the narrowest: specs it
receives reference inputs only by store paths and content digests
(``inline_traces`` is ``False``, so the coordinator never embeds live
request objects), and results travel back the same way — the exact
contract a remote worker over a network transport would need.  Because
shard jobs are deterministic and their outputs digest-verified, both
dispatchers produce byte-identical mining results; dispatch, like the
retry policy and any injected :class:`~repro.core.faults.FaultPlan`, is
an execution strategy, like ``workers`` or ``shards``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from functools import partial

from repro.core.faults import (
    FaultPlan,
    RetryPolicy,
    rebuild_error,
    run_job_outcome,
)
from repro.errors import ShardTimeoutError, WorkerError
from repro.obs import NULL_RECORDER
from repro.util.parallel import JobPool, resolve_workers

#: Span recorded once per shard-job attempt that ran to a conclusion.
ATTEMPT_SPAN = "pipeline.mine.shard_attempt"


class ShardDispatcher:
    """Run a batch of shard-job specs on the mine's :class:`JobPool`.

    :meth:`_run_batch` returns one *outcome* dict per spec (the
    :func:`~repro.core.faults.run_job_outcome` protocol); :meth:`run`
    turns outcomes into results — reassigning exhausted shards inline,
    recording obs accounting, and raising the lowest-numbered shard's
    fatal error.  The pool is owned by the caller (it also serves the
    per-dimension fan-out), so :meth:`close` leaves it alone.
    ``inline_traces`` advertises whether specs may carry live in-memory
    traces (only a dispatcher that shares the coordinator's address
    space, or pickles its jobs, can accept those — the subprocess
    dispatcher forces the coordinator to spill inputs to a store first).
    """

    #: The ``SmashConfig.dispatch`` value this dispatcher implements.
    kind: str = "pool"

    #: Whether job specs may reference in-memory traces directly.
    inline_traces: bool = True

    def __init__(
        self,
        pool: JobPool,
        policy: RetryPolicy | None = None,
        plan: FaultPlan | None = None,
        recorder=None,
    ) -> None:
        self.pool = pool
        self.policy = policy or RetryPolicy()
        self.plan = plan
        self.recorder = NULL_RECORDER if recorder is None else recorder

    def run(self, specs: list[dict]) -> list[dict]:
        """Execute every spec under the retry policy; results in spec order.

        A shard whose retry budget is exhausted by retryable failures is
        re-run inline (fault-free) in the coordinator; a non-retryable
        failure aborts the batch.  When several shards fail fatally the
        lowest shard number's error is raised, deterministically.
        """
        outcomes = self._run_batch(specs)
        results: list[dict] = []
        fatal: list[tuple[int, Exception]] = []
        for spec, outcome in zip(specs, outcomes):
            shard = int(spec["shard"])
            if "ok" in outcome:
                result = outcome["ok"]
                self._record(shard, result.get("failures", []), result.get("seconds"))
                self._count_retries(result.get("attempts", 1) - 1)
                results.append(result)
            elif "exhausted" in outcome:
                detail = outcome["exhausted"]
                self._record(shard, detail.get("failures", []), None)
                self._count_retries(len(detail.get("failures", [])))
                try:
                    results.append(self._reassign(spec))
                except Exception as error:  # noqa: BLE001 - collected, re-raised
                    fatal.append((shard, error))
            elif "error" in outcome:
                detail = outcome["error"]
                self._record(shard, outcome.get("failures", []), None)
                fatal.append(
                    (
                        shard,
                        rebuild_error(
                            detail.get("kind", "PipelineError"),
                            detail.get("message", ""),
                            bool(detail.get("retryable", False)),
                        ),
                    )
                )
            # Outcomes marked {"cancelled": True} were never started
            # (a sibling failed fatally first); nothing to record.
        if fatal:
            fatal.sort(key=lambda item: item[0])
            raise fatal[0][1]
        return results

    def _run_batch(self, specs: list[dict]) -> list[dict]:
        """One outcome dict per spec, in spec order.

        Outcomes are plain dicts, so the retry loop runs inside pool
        workers under a process executor; the pool offers no
        cancellation, so there a fatal error surfaces only after the
        batch drains.
        """
        if not self.pool.parallel:
            return _fail_fast_serial(
                specs, partial(run_job_outcome, policy=self.policy, plan=self.plan)
            )
        return self.pool.run(
            [partial(run_job_outcome, spec, self.policy, self.plan) for spec in specs]
        )

    def _reassign(self, spec: dict) -> dict:
        """Graceful degradation: run an exhausted shard inline, fault-free.

        Subprocess retries failing repeatedly usually means the
        *environment* (spawning interpreters, the spill transport) is
        flaky, not the job — so the coordinator absorbs the job itself
        on a fresh spill name, exactly as a serial pool runs it.
        """
        from repro.core.shardmine import run_shard_job

        shard = int(spec["shard"])
        prepared = dict(spec)
        prepared.pop("fault", None)
        base = str(spec.get("spill_name") or f"index-{shard:04d}")
        prepared["spill_name"] = f"{base}.ra"
        result = run_shard_job(prepared)
        self.recorder.counter(
            "smash_shard_reassigned_total",
            "Shard jobs reassigned to inline execution after exhausting retries.",
        ).inc()
        self.recorder.record_span(
            ATTEMPT_SPAN,
            float(result.get("seconds", 0.0)),
            {"shard": shard, "attempt": "reassigned", "kind": "ok"},
        )
        return result

    def _count_retries(self, retries: int) -> None:
        if retries > 0:
            self.recorder.counter(
                "smash_shard_retries_total",
                "Shard-job attempts beyond the first (retries after failure).",
            ).inc(retries)

    def _record(self, shard: int, failures: list[dict], ok_seconds) -> None:
        """Account for one shard job's attempt history in obs."""
        worker_failures = self.recorder.counter(
            "smash_shard_worker_failures_total",
            "Shard-job attempts that failed, by failure classification.",
            labels=("kind",),
        )
        for entry in failures:
            worker_failures.labels(kind=entry.get("label", "error")).inc()
            self.recorder.record_span(
                ATTEMPT_SPAN,
                float(entry.get("seconds", 0.0)),
                {
                    "shard": shard,
                    "attempt": entry.get("attempt"),
                    "kind": entry.get("label", "error"),
                    "retryable": entry.get("retryable"),
                },
            )
        if ok_seconds is not None:
            self.recorder.record_span(
                ATTEMPT_SPAN,
                float(ok_seconds),
                {"shard": shard, "attempt": len(failures) + 1, "kind": "ok"},
            )

    def close(self) -> None:
        """Release dispatcher resources (idempotent)."""

    def __enter__(self) -> "ShardDispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _fail_fast_serial(specs: list[dict], run_outcome) -> list[dict]:
    """Run outcomes one by one, cancelling the rest after a fatal error."""
    outcomes: list[dict] = []
    for index, spec in enumerate(specs):
        outcome = run_outcome(spec)
        outcomes.append(outcome)
        if "error" in outcome:
            outcomes.extend({"cancelled": True} for _ in specs[index + 1 :])
            break
    return outcomes


def _worker_env() -> dict[str, str]:
    """The coordinator's environment, with this package importable."""
    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
    return env


class _Worker:
    """One long-lived ``python -m repro.core.shardworker`` process.

    Specs go down its stdin one JSON line each and every job's reply
    comes back as one JSON line on its stdout.  stderr goes to an
    anonymous temporary file, so a worker never blocks on a full pipe
    and the tail of what one job wrote there explains a worker death.
    """

    def __init__(self, env: dict[str, str]) -> None:
        self.stderr = tempfile.TemporaryFile()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.core.shardworker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            env=env,
        )
        self._replies = select.poll()
        self._replies.register(self.process.stdout, select.POLLIN)
        self._pending = b""

    @property
    def pid(self) -> int:
        return self.process.pid

    def stderr_size(self) -> int:
        return os.fstat(self.stderr.fileno()).st_size

    def stderr_tail(self, since: int) -> str:
        """The last lines written to stderr after offset *since*."""
        # pread leaves the file offset, which the worker shares, alone.
        size = self.stderr_size()
        start = max(since, size - 4096)
        text = os.pread(self.stderr.fileno(), size - start, start)
        return " | ".join(text.decode("utf-8", "replace").strip().splitlines()[-8:])

    def request(self, spec: dict, deadline: float) -> bytes | None:
        """Send *spec* and read its reply line; ``None`` when the worker is gone.

        Raises :class:`TimeoutError` when no full line arrives by
        *deadline* (a :func:`time.monotonic` instant).
        """
        try:
            self.process.stdin.write(json.dumps(spec).encode("utf-8") + b"\n")
            self.process.stdin.flush()
        except OSError:  # broken pipe: the worker already died
            return None
        fd = self.process.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._replies.poll(remaining * 1000):
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close_stdin(self) -> None:
        try:
            self.process.stdin.close()
        except OSError:
            pass

    def stop(self, kill: bool = False) -> None:
        """Reap the worker: EOF on stdin asks it to exit, a kill forces it."""
        process = self.process
        if kill:
            process.kill()
        self.close_stdin()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
        self.stderr.close()


def _stop_workers(live: list[_Worker]) -> None:
    """Stop and reap every worker in *live*, emptying it in place."""
    workers = list(live)
    live.clear()
    # EOF to all first, so they exit side by side rather than in turn.
    for worker in workers:
        worker.close_stdin()
    for worker in workers:
        worker.stop()


class SubprocessDispatcher(ShardDispatcher):
    """Shard jobs on a pool of long-lived worker interpreters.

    Each worker is a ``python -m repro.core.shardworker`` process
    (:mod:`repro.core.shardworker`) that reads one JSON spec per line on
    stdin and answers each with one JSON result line on stdout.  Workers
    spawn lazily, when a batch finds none idle, so a batch of *n* specs
    runs on at most ``min(workers, n)`` processes; they then serve every
    later batch — every advance of a stream — until :meth:`close`.  A
    ``weakref.finalize`` stops them if the dispatcher is dropped unclosed,
    and a worker exits on stdin EOF, so a coordinator that dies leaves no
    orphans.

    Specs name inputs by store paths + digests and results name the
    spilled partial by ``(name, digest)``: workers share nothing with the
    coordinator but the filesystem.  Worker-side failures come back as a
    structured ``{"error": {...}}`` reply and are re-raised here under the
    coordinator's own exception types, so a corrupt partition fails a
    subprocess-dispatched mine exactly like an in-process one.  A worker
    that dies (EOF) or sends a line that is not a JSON object raises a
    retryable :class:`~repro.errors.WorkerError`; one that misses
    ``policy.timeout`` is killed and raises
    :class:`~repro.errors.ShardTimeoutError`.  Either way that worker is
    reaped and a fresh one spawns for the retry.
    """

    kind = "subprocess"
    inline_traces = False

    def __init__(
        self,
        workers: int = 0,
        policy: RetryPolicy | None = None,
        plan: FaultPlan | None = None,
        recorder=None,
    ) -> None:
        # Jobs run on the worker processes below, never on a JobPool; the
        # serial one given to the base class stays idle.
        super().__init__(JobPool(), policy=policy, plan=plan, recorder=recorder)
        self.workers = resolve_workers(workers)
        self._threads: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._env: dict[str, str] | None = None
        self._idle: list[_Worker] = []
        #: Every live worker.  The finalizer holds this very list, so it
        #: is only ever mutated in place.
        self._live: list[_Worker] = []
        weakref.finalize(self, _stop_workers, self._live)

    @property
    def pids(self) -> tuple[int, ...]:
        """Process ids of the live workers, sorted."""
        with self._lock:
            return tuple(sorted(worker.pid for worker in self._live))

    def _checkout(self) -> _Worker:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        if self._env is None:
            self._env = _worker_env()
        worker = _Worker(self._env)
        with self._lock:
            self._live.append(worker)
        return worker

    def _checkin(self, worker: _Worker) -> None:
        with self._lock:
            self._idle.append(worker)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        with self._lock:
            self._live.remove(worker)
        worker.stop(kill=kill)

    def _run_outcome(self, spec: dict) -> dict:
        return run_job_outcome(spec, self.policy, self.plan, attempt_call=self._run_one)

    def _run_batch(self, specs: list[dict]) -> list[dict]:
        if len(specs) <= 1 or self.workers <= 1:
            return _fail_fast_serial(specs, self._run_outcome)
        if self._threads is None:
            self._threads = ThreadPoolExecutor(max_workers=self.workers)
        # Collect every future's outcome rather than bailing on the
        # first exception: a fatal outcome cancels whatever has not
        # started yet, in-flight siblings are drained (never left
        # running detached), and ``run`` raises the lowest-numbered
        # shard's error from the assembled batch.
        futures = {
            self._threads.submit(self._run_outcome, spec): index
            for index, spec in enumerate(specs)
        }
        outcomes: list[dict] = [{"cancelled": True} for _ in specs]
        pending = set(futures)
        cancelling = False
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if future.cancelled():
                    continue
                outcome = future.result()
                outcomes[futures[future]] = outcome
                if "error" in outcome and not cancelling:
                    cancelling = True
                    for sibling in pending:
                        sibling.cancel()
        return outcomes

    def _run_one(self, spec: dict) -> dict:
        shard = spec.get("shard")
        timeout = self.policy.timeout
        worker = self._checkout()
        since = worker.stderr_size()
        try:
            line = worker.request(spec, time.monotonic() + timeout)
        except TimeoutError:
            self._retire(worker, kill=True)
            raise ShardTimeoutError(
                f"shard {shard} worker timed out after {timeout:.0f}s "
                "(config.shard_timeout)"
            ) from None
        if line is None:
            # EOF: the interpreter died (crash, OOM kill, injected
            # os._exit).  Retryable — a fresh worker on a fresh spill
            # name sees none of this attempt's state.
            tail = worker.stderr_tail(since)
            self._retire(worker, kill=False)
            raise WorkerError(
                f"shard {shard} worker exited with {worker.process.returncode}: {tail}"
            )
        try:
            result = json.loads(line)
        except ValueError:
            result = None
        if not isinstance(result, dict):
            # The reply stream is out of step; this worker cannot be
            # trusted with another job.
            self._retire(worker, kill=True)
            raise WorkerError(f"shard {shard} worker sent a malformed reply: {line[:200]!r}")
        self._checkin(worker)
        if "error" in result:
            error = result["error"]
            kind = str(error.get("kind", ""))
            message = str(error.get("message", ""))
            retryable = bool(error.get("retryable", False))
            if kind in ("StreamError", "WorkerError", "ShardTimeoutError"):
                raise rebuild_error(kind, message, retryable)
            raise rebuild_error(
                "WorkerError" if retryable else "PipelineError",
                f"shard {shard} worker failed: {kind}: {message}",
                retryable,
            )
        return result

    def close(self) -> None:
        """Stop and reap every worker; a later batch spawns fresh ones."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        with self._lock:
            self._idle.clear()
        _stop_workers(self._live)


__all__ = [
    "ATTEMPT_SPAN",
    "ShardDispatcher",
    "SubprocessDispatcher",
]
