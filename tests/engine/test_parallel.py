"""Partition-parallel ALIGN/NORMALIZE: planner gating, executor, determinism.

The central obligation (following the multiple-admissible-outcomes framing of
determination provenance) is *order insensitivity*: the parallel plan must
produce a relation identical to the serial plan on every input — partitioning
and worker placement may change row order, never content.  The tests assert
set-level equality of the engine tables on all three synthetic families and
exercise both executor placements (in-process and pooled).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.parallel import partition_hash, stable_hash
from repro.engine.database import Database
from repro.engine.executor import (
    AdjustmentTask,
    ExchangeNode,
    PartitionNode,
    ValuesNode,
    run_adjustment_task,
)
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.relation.errors import PlanError
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}

#: Settings that force the parallel plan to be considered and adopted for
#: the small relations used in tests (no setup cost, no minimum size, no
#: transport cost — the executor still picks the real transport at runtime).
PARALLEL = Settings(
    parallel_workers=2,
    parallel_setup_cost=0.0,
    parallel_tuple_cost=0.0,
    parallel_min_rows=0.0,
    parallel_pickle_cost=0.0,
    parallel_shm_cost=0.0,
)
SERIAL = Settings(parallel_workers=0)


def _database(family: str, size: int = 250):
    left, right = FAMILIES[family](config=SyntheticConfig(size=size, categories=12, seed=9))
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    return database


def _align(database):
    return align_plan(
        scan(database, "l", "l"),
        scan(database, "r", "r"),
        Comparison("=", Column("l.cat"), Column("r.cat")),
    )


def _normalize(database):
    return normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), using=["cat"])


class TestParallelPlansMatchSerial:
    """Serial and parallel plans are different executions of one relation."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_align_identical_on_family(self, family):
        database = _database(family)
        plan = _align(database)
        serial = database.execute(plan, SERIAL)
        parallel = database.execute(plan, PARALLEL)
        assert sorted(serial.rows) == sorted(parallel.rows)
        assert len(serial.rows) > 0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_normalize_identical_on_family(self, family):
        database = _database(family)
        plan = _normalize(database)
        serial = database.execute(plan, SERIAL)
        parallel = database.execute(plan, PARALLEL)
        assert sorted(serial.rows) == sorted(parallel.rows)

    def test_parallel_result_is_deterministic_across_runs(self):
        database = _database("random")
        plan = _align(database)
        first = database.execute(plan, PARALLEL)
        second = database.execute(plan, PARALLEL)
        # The stable partition hash makes even the merged *order* repeatable.
        assert first.rows == second.rows


class TestPlannerGating:
    """The parallel path is opt-in, keyed, and cost-gated."""

    def test_explain_shows_partition_plan(self):
        database = _database("random")
        explain = database.explain(_align(database), PARALLEL)
        assert "Exchange(align" in explain
        assert explain.count("Partition(") == 2
        normalize_explain = database.explain(_normalize(database), PARALLEL)
        assert "Exchange(normalize" in normalize_explain

    def test_disabled_by_default(self):
        database = _database("random")
        assert "Exchange" not in database.explain(_align(database))

    def test_requires_equality_keys(self):
        database = _database("random")
        keyless = align_plan(scan(database, "l", "l"), scan(database, "r", "r"), None)
        assert "Exchange" not in database.explain(keyless, PARALLEL)

    def test_cost_gate_keeps_small_inputs_serial(self):
        database = _database("random", size=30)
        settings = Settings(parallel_workers=2)  # default setup cost + min rows
        assert "Exchange" not in database.explain(_align(database), settings)

    def test_parallel_estimate_must_undercut_serial(self):
        database = _database("random")
        # A prohibitive per-worker setup cost keeps the serial plan.
        settings = Settings(parallel_workers=2, parallel_setup_cost=1e9, parallel_min_rows=0.0)
        assert "Exchange" not in database.explain(_align(database), settings)


class TestPartitionNode:
    def test_routes_equal_keys_together_and_loses_nothing(self):
        rows = [(f"k{i % 5}", i) for i in range(40)]
        node = PartitionNode(ValuesNode(["k", "v"], rows), key_indexes=[0], partition_count=4)
        buckets = node.partitions()
        assert sum(len(bucket) for bucket in buckets) == len(rows)
        for key in {row[0] for row in rows}:
            owners = [i for i, bucket in enumerate(buckets) if any(r[0] == key for r in bucket)]
            assert len(owners) == 1
        assert sorted(node.execute()) == sorted(rows)

    def test_rejects_bad_arguments(self):
        child = ValuesNode(["k"], [("a",)])
        with pytest.raises(PlanError):
            PartitionNode(child, key_indexes=[3], partition_count=2)
        with pytest.raises(PlanError):
            PartitionNode(child, key_indexes=[0], partition_count=0)

    def test_stable_hash_is_salt_free(self):
        # Literals chosen so a regression to the salted builtin hash would
        # almost surely change at least one routing decision.
        assert stable_hash("C0042") == 2127325890  # crc32, not the salted builtin
        assert partition_hash(("C0042", 7)) == partition_hash(("C0042", 7))

    def test_stable_hash_is_equality_compatible_across_numeric_types(self):
        # 1 == True == 1.0 == Decimal(1) == Fraction(1) in Python, so equal
        # join keys of mixed numeric types must route to the same partition —
        # otherwise the parallel plan would drop matches the serial hash
        # join finds.
        from decimal import Decimal
        from fractions import Fraction

        ones = [1, True, 1.0, Decimal("1"), Fraction(1)]
        assert len({stable_hash(value) for value in ones}) == 1
        assert stable_hash(0) == stable_hash(False) == stable_hash(0.0)
        assert partition_hash((1,)) == partition_hash((1.0,))
        assert stable_hash(2.5) == stable_hash(Fraction(5, 2))


class TestExchangeNode:
    def _task_and_buckets(self):
        database = _database("random", size=120)
        physical = database.plan(_align(database), PARALLEL)
        assert isinstance(physical, ExchangeNode)
        return physical

    def test_task_is_picklable(self):
        exchange = self._task_and_buckets()
        restored = pickle.loads(pickle.dumps(exchange.task))
        assert isinstance(restored, AdjustmentTask)
        assert restored.join_strategy == exchange.task.join_strategy

    def test_pool_and_inprocess_agree(self):
        exchange = self._task_and_buckets()
        pooled = sorted(exchange.execute())
        exchange.workers = 1  # force the in-process path on the same node
        inprocess = sorted(exchange.execute())
        assert pooled == inprocess

    def test_run_adjustment_task_handles_empty_reference(self):
        exchange = self._task_and_buckets()
        left_rows = exchange.left.partitions()
        some = next(bucket for bucket in left_rows if bucket)
        result = run_adjustment_task(exchange.task, some, [])
        # Dangling argument rows survive with their full interval.
        assert len(result) == len(some)

    def test_partition_count_mismatch_rejected(self):
        exchange = self._task_and_buckets()
        other = PartitionNode(exchange.right.child, exchange.right.key_indexes, 3)
        with pytest.raises(PlanError):
            ExchangeNode(exchange.left, other, exchange.task, workers=2)


class TestEffectiveModeInTrace:
    """A traced run records where the Exchange actually ran — on the span.

    The ``executed=`` annotation lives on the :class:`QueryTrace` span, never
    on the node: plan text (``explain()``) stays static, and re-executing one
    plan can't show a stale placement.
    """

    def test_pooled_execution_records_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_TUPLES", "1")
        database = _database("random")
        physical = database.plan(_align(database), PARALLEL)
        assert isinstance(physical, ExchangeNode)
        assert "executed=" not in physical.explain()
        with obs_trace.collect(physical) as trace:
            physical.execute()
        assert trace.span_for(physical).attributes["executed"].startswith("pool[")
        assert "executed=pool[" in trace.render()
        # The node itself is untouched: plan text never carries run state.
        assert "executed=" not in physical.explain()

    def test_fallback_is_visible_on_the_span_and_counted(self, monkeypatch):
        from repro.core import parallel as parallel_support

        parallel_support._warned_fallbacks.clear()

        def refuse(*_args, **_kwargs):
            raise OSError("pools disabled")

        monkeypatch.setenv("REPRO_PARALLEL_MIN_TUPLES", "1")
        monkeypatch.setenv("REPRO_SHM", "0")  # the shm transport has no pool to lose
        monkeypatch.setattr(parallel_support.multiprocessing, "get_context", refuse)
        database = _database("random")
        physical = database.plan(_align(database), PARALLEL)
        serial_rows = sorted(database.execute(_align(database), SERIAL).rows)
        fallbacks = obs_metrics.counter("parallel.fallbacks", label_name="cause")
        before = fallbacks.value("pool:OSError")
        with pytest.warns(RuntimeWarning, match="worker pool unavailable"):
            with obs_trace.collect(physical) as trace:
                rows = sorted(physical.execute())
        assert rows == serial_rows  # the fallback never changes the relation
        assert "fallback" in trace.span_for(physical).attributes["executed"]
        assert "executed=in-process (fallback:" in trace.render()
        assert fallbacks.value("pool:OSError") == before + 1

    def test_reexecution_shows_fresh_annotations_not_stale_ones(self, monkeypatch):
        # Regression: annotations once lived on the node, so a plan whose
        # second execution took a different path kept showing the first one.
        monkeypatch.setenv("REPRO_PARALLEL_MIN_TUPLES", "1")
        monkeypatch.setenv("REPRO_SHM", "0")
        database = _database("random")
        physical = database.plan(_align(database), PARALLEL)
        assert isinstance(physical, ExchangeNode)
        with obs_trace.collect(physical) as first:
            physical.execute()
        assert first.span_for(physical).attributes["executed"].startswith("pool[")
        physical.workers = 1  # the second run must take the in-process path
        with obs_trace.collect(physical) as second:
            physical.execute()
        assert second.span_for(physical).attributes["executed"] == "in-process"
        assert "pool[" not in second.render()
        assert "executed=" not in physical.explain()


class TestShipCostCrossover:
    """The transport-aware cost model moves the Exchange adoption point.

    PR 6 regression pins: with the shared-memory ship the per-row transport
    cost all but vanishes, so under *default* gates (real setup cost, real
    minimum size) the planner adopts Exchange at mid sizes where the
    pickled-row model — every shipped row paying Python serialisation —
    correctly keeps refusing.  Tiny inputs stay serial under both models.
    """

    CROSSOVER_SIZE = 1500  # shm adopts, pickle refuses (probed, then pinned)
    TINY_SIZE = 100

    @staticmethod
    def _explain(size: int, **overrides) -> str:
        database = _database("random", size=size)
        return database.explain(_align(database), Settings(parallel_workers=2, **overrides))

    def test_shm_model_adopts_exchange_at_mid_size(self):
        explain = self._explain(self.CROSSOVER_SIZE)
        assert "Exchange(align" in explain
        assert "kernel=columnar" in explain

    def test_pickle_model_still_refuses_at_mid_size(self):
        explain = self._explain(self.CROSSOVER_SIZE, enable_shm=False)
        assert "Exchange" not in explain

    def test_shm_knob_off_plans_like_the_pickle_model(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        explain = self._explain(self.CROSSOVER_SIZE)
        assert "Exchange" not in explain

    def test_both_models_refuse_tiny_inputs(self):
        assert "Exchange" not in self._explain(self.TINY_SIZE)
        assert "Exchange" not in self._explain(self.TINY_SIZE, enable_shm=False)

    def test_both_models_adopt_at_large_size(self):
        # Past the point where halving the sweep work dominates even the
        # pickle tax, the models agree again.
        explain = self._explain(4000, enable_shm=False)
        assert "Exchange(align" in explain


class TestShmShipInTrace:
    """A traced run reports the transport that actually ran."""

    def test_shm_ship_recorded_after_execution(self):
        database = _database("random")
        physical = database.plan(_align(database), PARALLEL)
        assert isinstance(physical, ExchangeNode)
        assert physical.use_shm
        assert "ship=" not in physical.explain()  # plan text is static
        serial_rows = sorted(database.execute(_align(database), SERIAL).rows)
        with obs_trace.collect(physical) as trace:
            rows = sorted(physical.execute())
        assert rows == serial_rows
        assert trace.span_for(physical).attributes["ship"] == "shm"
        assert "ship=shm" in trace.render()
        assert "ship=" not in physical.explain()

    def test_pickle_ship_recorded_when_shm_unavailable(self, monkeypatch):
        database = _database("random")
        physical = database.plan(_align(database), PARALLEL)
        assert isinstance(physical, ExchangeNode)
        monkeypatch.setenv("REPRO_SHM", "0")  # flips under the planned node
        serial_rows = sorted(database.execute(_align(database), SERIAL).rows)
        with obs_trace.collect(physical) as trace:
            rows = sorted(physical.execute())
        assert rows == serial_rows
        assert trace.span_for(physical).attributes["ship"] == "pickle"
        assert "ship=pickle" in trace.render()
