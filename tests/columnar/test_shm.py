"""Unit tests of the shared-memory columnar transport.

Two properties carry the module: the transport is *transparent* (the same
rows come out of :func:`shm_adjustment` as out of the in-process columnar
pipeline it parallelises) and it is *leak-free* (every segment name the
:class:`SegmentRegistry` ever handed out is unlinked after the run — on the
happy path, after a worker exception, and after a simulated worker death
that orphans a half-written result segment).
"""

from __future__ import annotations

import pytest

from repro.columnar import shm
from repro.columnar.rows import adjust_rows_columnar
from repro.engine.database import Database
from repro.engine.executor import ExchangeNode
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import trace as obs_trace
from repro.workloads.synthetic import SyntheticConfig, generate_random

#: Adopt the Exchange plan for tiny test relations (no cost gates).
PARALLEL = Settings(
    parallel_workers=2,
    parallel_setup_cost=0.0,
    parallel_min_rows=0.0,
)


def _exchange(kind: str = "align", size: int = 120) -> ExchangeNode:
    left, right = generate_random(config=SyntheticConfig(size=size, categories=8, seed=3))
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    if kind == "align":
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.cat"), Column("r.cat")),
        )
    else:
        plan = normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), using=["cat"])
    physical = database.plan(plan, PARALLEL)
    assert isinstance(physical, ExchangeNode)
    return physical


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def _assert_no_leaks(registry: shm.SegmentRegistry) -> None:
    assert registry.handed_out, "the run should have published at least one segment"
    leaked = [name for name in registry.handed_out if _segment_exists(name)]
    assert leaked == []


class TestAvailability:
    def test_repro_shm_0_disables_the_transport(self, monkeypatch):
        assert shm.shm_available()
        monkeypatch.setenv("REPRO_SHM", "0")
        assert not shm.shm_available()

    def test_adjustment_raises_before_any_segment_exists(self, monkeypatch):
        exchange = _exchange()  # planned before the knob flips
        monkeypatch.setenv("REPRO_SHM", "0")
        with pytest.raises(shm.ShmUnavailable):
            shm.shm_adjustment(
                exchange.task,
                list(exchange.left.child),
                list(exchange.right.child),
                workers=2,
                partitions=4,
            )


class TestBlocks:
    def test_round_trip(self):
        import numpy as np

        arrays = [np.arange(5, dtype=np.int64), np.asarray([7, -1], dtype=np.int64)]
        with shm.SegmentRegistry() as registry:
            segment = registry.create(shm.block_nbytes(arrays))
            block = shm.write_block(segment, arrays)
            assert block.lengths == (5, 2)
            attached, views = shm.attach_block(block)
            try:
                assert [view.tolist() for view in views] == [[0, 1, 2, 3, 4], [7, -1]]
            finally:
                attached.close()

    def test_read_block_rejects_foreign_segment(self):
        import numpy as np

        arrays = [np.arange(3, dtype=np.int64)]
        with shm.SegmentRegistry() as registry:
            segment = registry.create(shm.block_nbytes(arrays))
            shm.write_block(segment, arrays)
            with pytest.raises(shm.ShmUnavailable):
                shm.read_block(segment, [3, 3])  # wrong shape expectation

    def test_empty_arrays_round_trip(self):
        import numpy as np

        arrays = [np.asarray([], dtype=np.int64)] * 3
        with shm.SegmentRegistry() as registry:
            segment = registry.create(shm.block_nbytes(arrays))
            block = shm.write_block(segment, arrays)
            attached, views = shm.attach_block(block)
            try:
                assert [view.tolist() for view in views] == [[], [], []]
            finally:
                attached.close()


class TestRegistryLifecycle:
    def test_cleanup_unlinks_created_segments(self):
        registry = shm.SegmentRegistry()
        registry.create(64)
        registry.create(64)
        names = list(registry.handed_out)
        assert all(_segment_exists(name) for name in names)
        registry.cleanup()
        assert registry.handed_out == names  # kept for exactly this assertion
        assert not any(_segment_exists(name) for name in names)

    def test_cleanup_tolerates_reserved_but_never_created_names(self):
        registry = shm.SegmentRegistry()
        registry.reserve()
        registry.reserve()
        registry.cleanup()  # must not raise on the phantom names
        assert len(registry.handed_out) == 2

    def test_cleanup_reclaims_a_dead_workers_orphan(self):
        # Simulated worker kill: the pool died after the worker created its
        # result segment but before the parent consumed it.  The parent never
        # attached — cleanup must still find and unlink the orphan, because
        # the registry handed the name out.
        from multiprocessing import shared_memory

        registry = shm.SegmentRegistry()
        orphan_name = registry.reserve()
        orphan = shared_memory.SharedMemory(name=orphan_name, create=True, size=64)
        orphan.close()
        assert _segment_exists(orphan_name)
        registry.cleanup()
        assert not _segment_exists(orphan_name)

    def test_create_segment_replaces_stale_leftover(self):
        # The in-process retry after a pool death reuses reserved result
        # names; a segment the dead worker already created must be replaced,
        # not tripped over.
        from multiprocessing import shared_memory

        with shm.SegmentRegistry() as registry:
            name = registry.reserve()
            stale = shared_memory.SharedMemory(name=name, create=True, size=8)
            stale.buf[:2] = b"xx"
            stale.close()
            fresh = shm._create_segment(name, 128)
            try:
                assert fresh.size >= 128
            finally:
                fresh.close()


class TestShmAdjustment:
    @pytest.mark.parametrize("kind", ["align", "normalize"])
    @pytest.mark.parametrize("partitions", [1, 4])
    def test_matches_the_in_process_columnar_pipeline(self, kind, partitions):
        exchange = _exchange(kind)
        left_rows = list(exchange.left.child)
        right_rows = list(exchange.right.child)
        expected = sorted(adjust_rows_columnar(exchange.task, left_rows, right_rows))
        output, _mode, registry = shm.shm_adjustment(
            exchange.task, left_rows, right_rows, workers=1, partitions=partitions
        )
        assert sorted(output) == expected
        _assert_no_leaks(registry)

    def test_pooled_run_leaves_no_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_TUPLES", "1")
        exchange = _exchange("align", size=200)
        output, mode, registry = shm.shm_adjustment(
            exchange.task,
            list(exchange.left.child),
            list(exchange.right.child),
            workers=2,
            partitions=4,
            min_items=1,
        )
        assert mode.startswith("pool[")
        assert output  # the pooled run actually produced the relation
        _assert_no_leaks(registry)

    def test_empty_inputs(self):
        exchange = _exchange("align")
        output, _mode, registry = shm.shm_adjustment(
            exchange.task, [], [], workers=2, partitions=4
        )
        assert output == []
        registry.cleanup()
        assert not any(_segment_exists(name) for name in registry.handed_out)

    def test_worker_exception_still_cleans_up(self, monkeypatch):
        # A genuine kernel error must propagate (it is not a transport
        # problem) — but the registry's try/finally still reclaims every
        # segment published before the failure.
        from repro.columnar import kernels

        def boom(*_args, **_kwargs):
            raise ValueError("kernel exploded")

        monkeypatch.setattr(kernels, "align_pieces", boom)
        exchange = _exchange("align")
        captured = {}
        original_cleanup = shm.SegmentRegistry.cleanup

        def capturing_cleanup(self):
            captured["registry"] = self
            original_cleanup(self)

        monkeypatch.setattr(shm.SegmentRegistry, "cleanup", capturing_cleanup)
        with pytest.raises(ValueError, match="kernel exploded"):
            shm.shm_adjustment(
                exchange.task,
                list(exchange.left.child),
                list(exchange.right.child),
                workers=1,
                partitions=4,
            )
        registry = captured["registry"]
        _assert_no_leaks(registry)


class TestExchangeIntegration:
    def test_exchange_run_leaves_no_segments(self):
        exchange = _exchange("align")
        with obs_trace.collect(exchange) as trace:
            rows = list(exchange.execute())
        assert rows
        assert trace.span_for(exchange).attributes["ship"] == "shm"
        assert exchange.shm_registry is not None
        _assert_no_leaks(exchange.shm_registry)

    def test_exchange_falls_back_to_pickle_when_shm_disabled(self, monkeypatch):
        # The planner decided ship=shm, then the environment changed under
        # it — the executor must degrade to pickled rows, not fail.
        exchange = _exchange("align")
        reference = _exchange("align")
        reference.use_shm = False
        monkeypatch.setenv("REPRO_SHM", "0")
        assert exchange.use_shm  # as planned before the knob flipped
        with obs_trace.collect(exchange) as trace:
            rows = sorted(exchange.execute())
        assert trace.span_for(exchange).attributes["ship"] == "pickle"
        assert rows == sorted(reference.execute())
