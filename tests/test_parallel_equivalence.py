"""Parallel per-dimension mining must equal serial mining exactly.

``SmashPipeline.mine`` fans the main-dimension job and each secondary
dimension out over a configurable executor.  Because the mining core is
deterministic by construction (canonical node order, sorted adjacency,
seeded Louvain shuffle), scheduling must never change the output — these
tests assert full structural equality of the mined dimensions and of the
finished :class:`~repro.core.results.SmashResult` across worker counts
and executor kinds.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.config import SmashConfig
from repro.core.pipeline import SECONDARY_GRAPH_BUILDERS, SmashPipeline
from repro.errors import ConfigError
from repro.util.parallel import DISPATCH_KINDS, EXECUTOR_KINDS, JobPool, resolve_workers


def _boom(message: str) -> None:
    raise RuntimeError(message)


class TestRunJobs:
    """``JobPool.run``: one batch of jobs, results in job order."""

    def test_serial_preserves_order(self):
        with JobPool() as pool:
            assert pool.run([partial(pow, i, 2) for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_process_pool_preserves_order(self):
        with JobPool(workers=3, executor="process") as pool:
            assert pool.parallel
            assert pool.run([partial(pow, i, 2) for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_exception_propagates(self):
        for executor in EXECUTOR_KINDS:
            with JobPool(workers=2, executor=executor) as pool:
                with pytest.raises(RuntimeError, match="job failed"):
                    pool.run([partial(_boom, "job failed")])
                with pytest.raises(RuntimeError, match="job failed"):
                    pool.run([partial(_boom, "job failed"), partial(_boom, "job failed")])

    def test_unknown_executor_rejected(self):
        for executor in ("fibers", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                JobPool(workers=2, executor=executor)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # auto: one per CPU
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestConfigValidation:
    def test_workers_and_executor_fields(self):
        SmashConfig(workers=0, executor="process").validate()
        with pytest.raises(ConfigError):
            SmashConfig(workers=-1).validate()
        with pytest.raises(ConfigError):
            SmashConfig(executor="fibers").validate()

    def test_executor_kinds_exposed(self):
        assert EXECUTOR_KINDS == ("serial", "process")
        assert DISPATCH_KINDS == ("pool", "subprocess")

    def test_serial_is_the_default_executor(self):
        assert SmashConfig().executor == "serial"
        assert SmashConfig().dispatch == "pool"

    def test_thread_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            SmashConfig(executor="thread").validate()

    def test_serial_dispatch_rejected(self):
        with pytest.raises(ConfigError, match="dispatch"):
            SmashConfig(dispatch="serial").validate()


class TestRegistry:
    def test_registry_covers_every_known_dimension(self):
        known = {"urifile", "ipset", "whois", "urlparam", "time"}
        assert set(SECONDARY_GRAPH_BUILDERS) == known

    def test_whois_builder_skips_without_registry(self, small_dataset):
        mined = SmashPipeline().mine(small_dataset.trace, whois=None)
        assert "whois" not in mined.secondary
        assert "urifile" in mined.secondary


def test_trace_pickles_without_index_caches(small_dataset):
    """Process-pool payloads carry requests only; indices rebuild lazily."""
    import pickle

    trace = small_dataset.trace
    expected = trace.clients_by_server  # force the caches to exist
    clone = pickle.loads(pickle.dumps(trace))
    assert clone._clients_by_server is None  # not shipped in the pickle
    assert clone == trace
    assert clone.clients_by_server == expected  # re-derived on demand


class TestParallelEquivalence:
    @pytest.mark.parametrize("executor", ["process"])
    def test_mine_workers_match_serial(self, small_dataset, small_mined, executor):
        """workers=4 on a process pool reproduces the serial MinedDimensions."""
        config = SmashConfig(workers=4, executor=executor)
        parallel = SmashPipeline(config).mine(small_dataset.trace, whois=small_dataset.whois)
        assert parallel.main == small_mined.main  # includes graph equality
        assert parallel.secondary == small_mined.secondary
        assert parallel.preprocess_report == small_mined.preprocess_report
        assert parallel.trace == small_mined.trace

    def test_finish_after_parallel_mine_matches_serial(
        self, small_dataset, small_result
    ):
        """The full SmashResult is equal field-for-field after parallel mine."""
        config = SmashConfig(workers=4, executor="process")
        pipeline = SmashPipeline(config)
        result = pipeline.run(
            small_dataset.trace,
            whois=small_dataset.whois,
            redirects=small_dataset.redirects,
        )
        assert result == small_result

    def test_mine_rejects_bad_overrides_before_preprocessing(self, small_dataset):
        with pytest.raises(ConfigError):
            SmashPipeline(SmashConfig().replace(executor="fibers"))
        with pytest.raises(ConfigError):
            SmashPipeline(SmashConfig().replace(workers=-1))

    def test_streaming_process_pool_matches_serial(self, small_dataset):
        from repro.stream import StreamingSmash

        serial = StreamingSmash()
        parallel = StreamingSmash(config=SmashConfig(workers=2, executor="process"))
        first = serial.ingest_dataset(small_dataset)
        second = parallel.ingest_dataset(small_dataset)
        assert first.result == second.result
        assert [e.to_dict() for e in first.events] == [
            e.to_dict() for e in second.events
        ]
