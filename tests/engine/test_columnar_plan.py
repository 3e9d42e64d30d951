"""Planner dispatch and execution of columnar adjustment plans."""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.executor import ColumnarAdjustmentNode, ExchangeNode
from repro.engine.expressions import Column, Comparison, PythonPredicate
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.sql.interface import Connection
from repro.temporal.interval import Interval
from repro.workloads.synthetic import SyntheticConfig, generate_random

COLUMNAR = Settings()
ROW = Settings(enable_columnar=False)


def _database(size=300, categories=20, seed=5):
    left, right = generate_random(config=SyntheticConfig(size=size, categories=categories, seed=seed))
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    return database


def _align(database, condition="equi"):
    if condition == "equi":
        expr = Comparison("=", Column("l.cat"), Column("r.cat"))
    elif condition == "opaque":
        expr = PythonPredicate(lambda env: True)
    else:
        expr = None
    return align_plan(scan(database, "l", "l"), scan(database, "r", "r"), expr)


class TestPlannerDispatch:
    def test_equality_theta_dispatches_columnar(self):
        database = _database()
        physical = database.plan(_align(database), COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        assert "ColumnarAdjustment(align" in physical.explain()

    def test_absent_theta_dispatches_columnar(self):
        database = _database()
        physical = database.plan(_align(database, condition=None), COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)

    def test_normalize_dispatches_columnar(self):
        database = _database()
        plan = normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"])
        physical = database.plan(plan, COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        assert "ColumnarAdjustment(normalize" in physical.explain()

    def test_one_tuple_normalize_and_absent_theta_align_plan_columnar(self):
        database = _database(size=1)
        plans = [
            _align(database, condition=None),
            normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"]),
        ]
        for plan in plans:
            assert isinstance(database.plan(plan, COLUMNAR), ColumnarAdjustmentNode)
            assert sorted(database.execute(plan, COLUMNAR).rows) == sorted(
                database.execute(plan, ROW).rows
            )

    def test_estimate_keeps_cardinality_and_undercuts_the_row_plan(self):
        database = _database()
        columnar = database.plan(_align(database), COLUMNAR)
        row = database.plan(_align(database), ROW)
        assert columnar.estimated_rows == row.estimated_rows
        assert 0 < columnar.estimated_cost < row.estimated_cost

    def test_strategy_counter_records_each_choice(self):
        def counts():
            entry = obs_metrics.REGISTRY.snapshot()["planner.strategy"]
            labels = entry.get("labels", {})
            return labels.get("columnar", 0), labels.get("row", 0)

        database = _database(size=20)
        columnar_before, row_before = counts()
        database.plan(_align(database), COLUMNAR)
        database.plan(_align(database, condition="opaque"), COLUMNAR)
        assert counts() == (columnar_before + 1, row_before + 1)

    def test_opaque_theta_stays_in_row_mode(self):
        database = _database()
        physical = database.plan(_align(database, condition="opaque"), COLUMNAR)
        assert not isinstance(physical, ColumnarAdjustmentNode)

    def test_disabled_switch_stays_in_row_mode(self):
        database = _database()
        physical = database.plan(_align(database), COLUMNAR.copy(enable_columnar=False))
        assert not isinstance(physical, ColumnarAdjustmentNode)

    def test_any_size_plans_columnar_and_opaque_theta_keeps_rows(self):
        # No row/column crossover: one tuple a side already plans the batch
        # (with the row plan's result), while an opaque θ still needs the
        # row pipeline's per-pair evaluation.
        database = Database()
        for name, interval in (("r", Interval(0, 10)), ("s", Interval(3, 6))):
            relation = TemporalRelation(Schema(["k"]))
            relation.insert(("a",), interval)
            database.register_relation(name, relation)
        connection = Connection(database)
        equi = "SELECT * FROM (r ALIGN s ON r.k = s.k) x"
        plan_lines = connection.execute("EXPLAIN " + equi).rows
        assert any("ColumnarAdjustment(align" in line for (line,) in plan_lines)
        assert sorted(connection.execute(equi).rows) == sorted(
            connection.execute(equi, ROW).rows
        )
        opaque = connection.explain("SELECT * FROM (r ALIGN s ON r.k < s.k) x")
        assert "Adjustment(" in opaque
        assert "ColumnarAdjustment" not in opaque

    def test_parallel_plan_composes_columnar_kernels(self):
        database = _database(size=400)
        settings = COLUMNAR.copy(
            parallel_workers=2, parallel_setup_cost=0.0, parallel_min_rows=0.0
        )
        physical = database.plan(_align(database), settings)
        assert isinstance(physical, ExchangeNode)
        assert physical.task.use_columnar
        assert "kernel=columnar" in physical.describe()


class TestColumnarExecution:
    def test_align_matches_row_pipeline(self):
        database = _database()
        plan = _align(database)
        assert sorted(database.execute(plan, ROW).rows) == sorted(
            database.execute(plan, COLUMNAR).rows
        )

    def test_normalize_matches_row_pipeline(self):
        database = _database()
        plan = normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"])
        assert sorted(database.execute(plan, ROW).rows) == sorted(
            database.execute(plan, COLUMNAR).rows
        )

    def test_duplicate_left_rows_collapse_like_the_sort_group(self):
        # The serial pipeline's partition sort makes two identical argument
        # rows one sweep group; the columnar batch must collapse them too.
        database = _database(size=50)
        database.insert_rows("l", [(("C0001", 1, 5), (0, 10)), (("C0001", 1, 5), (0, 10))])
        plan = _align(database)
        assert sorted(database.execute(plan, ROW).rows) == sorted(
            database.execute(plan, COLUMNAR).rows
        )

    def test_degenerate_intervals_match_row_pipeline(self):
        # Regression (review finding): unmatched empty-interval argument rows
        # must pass through exactly like the serial pipeline emits them —
        # the edge family the relation-level property test covers, driven
        # through the engine plans.
        from repro.engine.table import Table

        database = Database()
        database.register_table(
            Table(
                "l",
                ["cat", "ts", "te"],
                [
                    ("a", 5, 5),   # unmatched degenerate (dangling)
                    ("a", 0, 10),  # matched, split around the reference
                    ("b", 3, 3),   # degenerate, matched by a straddler
                    ("b", 7, 7),   # degenerate, unmatched (meets at a point)
                    ("c", 2, 2),   # degenerate, key matches nothing
                ],
            )
        )
        database.register_table(
            Table(
                "r",
                ["cat", "ts", "te"],
                [("a", 2, 4), ("a", 4, 4), ("b", 1, 7), ("b", 7, 9)],
            )
        )
        for plan in (
            _align(database),
            normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"]),
        ):
            expected = sorted(database.execute(plan, ROW).rows)
            physical = database.plan(plan, COLUMNAR)
            assert isinstance(physical, ColumnarAdjustmentNode)
            actual = sorted(physical.execute())
            assert actual == expected
            parallel = COLUMNAR.copy(
                parallel_workers=2, parallel_setup_cost=0.0, parallel_min_rows=0.0
            )
            assert sorted(database.execute(plan, parallel).rows) == expected

    def test_trace_after_run_shows_executed_path(self):
        database = _database()
        physical = database.plan(_align(database), COLUMNAR)
        assert "executed=" not in physical.explain()
        with obs_trace.collect(physical) as trace:
            list(physical)
        assert trace.span_for(physical).attributes["executed"] == "columnar"
        assert "executed=columnar" in trace.render()
        # The static plan text never mutates — annotations live on the trace.
        assert "executed=" not in physical.explain()

    @pytest.mark.parametrize("bounds", [("x", "y"), (0, 2**63)], ids=["text", "beyond-int64"])
    def test_unencodable_rows_fall_back_to_row_pipeline(self, bounds):
        from repro.engine.table import Table

        database = Database()
        database.register_table(Table("l", ["cat", "ts", "te"], [("a", 0, 10), ("b", *bounds)]))
        database.register_table(Table("r", ["cat", "ts", "te"], [("a", 2, 5)]))
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.cat"), Column("r.cat")),
        )
        physical = database.plan(plan, COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        with obs_trace.collect(physical) as trace:
            rows = sorted(physical.execute())
        assert trace.span_for(physical).attributes["executed"] == "row-fallback"
        assert rows == sorted(database.execute(plan, ROW).rows)
