"""Every injection point actually fails its layer the way the site promises.

Each test arms one site, drives the code path that hosts it, and asserts
both the failure *and* the recovery contract around it — an injected WAL
failure must poison the engine exactly like a real one, an injected shm
failure must fall back to pickled rows without leaking segments, an
injected worker death must be survived by the in-process fallback.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.core.parallel import parallel_map_with_mode
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.storage.engine import StorageError


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "db")


def _open(path, **kwargs):
    database = Database.open(path, **kwargs)
    if "r" not in database.relations:
        database.register_relation("r", TemporalRelation(Schema(["k", "v"])))
    return database


def _insert(database, key, value):
    database.session().execute(
        f"INSERT INTO r (k, v) VALUES ('{key}', {value}) VALID PERIOD [0, 5)"
    )


def _keys(database):
    return {t[0][0] for t in database.get_relation("r").as_set()}


class TestWalSites:
    def test_append_ioerror_poisons_and_recovery_drops_the_failed_write(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("wal.append_ioerror:count=1")
        with pytest.raises(StorageError, match="poisoned"):
            _insert(database, "b", 2)
        assert "append" in database.storage.poisoned
        faults.disarm()
        database.storage.abandon()
        reopened = _open(db_path)
        assert _keys(reopened) == {"a"}  # the failed write was never acked
        reopened.close()

    def test_torn_tail_is_truncated_at_recovery(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("wal.torn_tail:count=1")
        with pytest.raises(StorageError):
            _insert(database, "b", 2)
        faults.disarm()
        database.storage.abandon()
        reopened = _open(db_path)  # recovery chops the half-written frame
        assert _keys(reopened) == {"a"}
        _insert(reopened, "c", 3)  # appends after the truncated tail work
        reopened.close()
        final = _open(db_path)
        assert _keys(final) == {"a", "c"}
        final.close()

    def test_fsync_ioerror_fails_the_commit(self, db_path):
        database = _open(db_path, sync=True)
        faults.arm("wal.fsync_ioerror:count=1")
        with pytest.raises(StorageError):
            _insert(database, "a", 1)
        faults.disarm()
        database.storage.abandon()

    def test_reset_ioerror_poisons_the_checkpoint(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("wal.reset_ioerror:count=1")
        with pytest.raises(StorageError, match="WAL reset"):
            database.storage.checkpoint()
        assert database.storage.poisoned is not None
        faults.disarm()
        database.storage.abandon()
        reopened = _open(db_path)  # the snapshot is authoritative
        assert _keys(reopened) == {"a"}
        reopened.close()


class TestSnapshotSite:
    def test_rename_failure_does_not_poison(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("snapshot.rename_ioerror:count=1")
        with pytest.raises(OSError, match="snapshot.rename_ioerror"):
            database.storage.checkpoint()
        faults.disarm()
        # Old snapshot + full WAL stay authoritative: not poisoned, writes OK.
        assert database.storage.poisoned is None
        _insert(database, "b", 2)
        database.storage.abandon()
        reopened = _open(db_path)
        assert _keys(reopened) == {"a", "b"}
        reopened.close()


class TestShmSites:
    def test_create_fail_raises_shm_unavailable(self):
        from repro.columnar.shm import SegmentRegistry, ShmUnavailable

        faults.arm("shm.create_fail:count=1")
        with SegmentRegistry() as registry:
            with pytest.raises(ShmUnavailable, match="shm.create_fail"):
                registry.create(64)
            segment = registry.create(64)  # count exhausted: next one works
            assert segment.buf is not None

    def test_attach_fail_raises_shm_unavailable(self):
        from repro.columnar.shm import SegmentRegistry, ShmUnavailable

        with SegmentRegistry() as registry:
            segment = registry.create(64)
            faults.arm("shm.attach_fail:count=1")
            with pytest.raises(ShmUnavailable, match="shm.attach_fail"):
                registry.attach(segment.name)

    def test_no_segment_leak_after_injected_attach_failure(self):
        from multiprocessing import shared_memory

        from repro.columnar.shm import SegmentRegistry, ShmUnavailable

        registry = SegmentRegistry()
        registry.create(64)
        faults.arm("shm.attach_fail:count=1")
        with pytest.raises(ShmUnavailable):
            registry.attach(registry.handed_out[0])
        registry.cleanup()
        for name in registry.handed_out:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


def _double(value):
    return value * 2


class TestPoolSites:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the designed fallback notice
    def test_worker_kill_falls_back_in_process(self):
        faults.arm("pool.worker_kill:count=1")
        results, mode = parallel_map_with_mode(
            _double, [1, 2, 3, 4], workers=2, total_items=4, min_items=0
        )
        assert results == [2, 4, 6, 8]
        assert mode.startswith("in-process (fallback")

    def test_worker_stall_still_completes(self):
        faults.arm("pool.worker_stall:count=1:ms=20")
        results, mode = parallel_map_with_mode(
            _double, [1, 2, 3, 4], workers=2, total_items=4, min_items=0
        )
        assert results == [2, 4, 6, 8]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the designed fallback notice
    def test_kill_fires_parent_side_for_observability(self):
        faults.arm("pool.worker_kill:count=1")
        parallel_map_with_mode(_double, [1, 2], workers=2, total_items=2, min_items=0)
        assert faults.active().injected_counts()["pool.worker_kill"] == 1
