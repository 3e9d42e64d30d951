"""The ExecAdjustment plane sweep (Fig. 8–11), the planner and the kernel algebra."""

import pytest

from repro import predicates
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.engine.database import Database
from repro.engine.executor import AdjustmentNode, ValuesNode
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import Align, Join, Scan
from repro.engine.temporal_plans import KernelTemporalAlgebra, normalize_plan, scan
from repro.relation.errors import PlanError
from repro.relation.tuple import NULL
from repro.workloads.hotel import hotel_prices, hotel_reservations


class TestAdjustmentNode:
    """The plane sweep of Fig. 10 on the paper's example of Fig. 8/9/11."""

    def _paper_input(self):
        # Group g1 of Fig. 9: r1 = (a, β, [1,7)) joined with s1 ([2,5)) and s2 ([3,4)).
        # Rows: r columns (A, B, ts, te) + P1 + P2, already partitioned and sorted.
        rows = [
            ("a", "β", 1, 7, 2, 5),   # x1 = r1 ∘ s1
            ("a", "β", 1, 7, 3, 4),   # x2 = r1 ∘ s2
            ("b", "β", 3, 9, 3, 4),   # x3 = r2 ∘ s2
            ("b", "β", 3, 9, 7, 9),   # x4 = r2 ∘ s3
            ("c", "γ", 8, 10, NULL, NULL),  # x5 = r3 ∘ ω (dangling)
        ]
        return ValuesNode(["A", "B", "ts", "te", "__p1", "__p2"], rows)

    def test_alignment_sweep_matches_figure_11(self):
        node = AdjustmentNode(self._paper_input(), group_width=4, ts_index=2, te_index=3,
                              isalign=True)
        result = node.execute()
        # Group g1 produces r̃1..r̃4 of Fig. 11: [1,2), [2,5), [3,4), [5,7).
        assert result[:4] == [
            ("a", "β", 1, 2), ("a", "β", 2, 5), ("a", "β", 3, 4), ("a", "β", 5, 7)
        ]
        # Group g2: intersections [3,4), [7,9) plus gaps [4,7) ... sweep order.
        assert ("b", "β", 3, 4) in result and ("b", "β", 7, 9) in result
        assert ("b", "β", 4, 7) in result
        # Dangling r3 keeps its full interval.
        assert result[-1] == ("c", "γ", 8, 10)

    def test_alignment_deduplicates_equal_intersections(self):
        rows = [("a", 1, 7, 2, 5), ("a", 1, 7, 2, 5)]
        node = AdjustmentNode(ValuesNode(["A", "ts", "te", "__p1", "__p2"], rows),
                              group_width=3, ts_index=1, te_index=2, isalign=True)
        assert node.execute() == [("a", 1, 2), ("a", 2, 5), ("a", 5, 7)]

    def test_normalization_sweep(self):
        rows = [("a", 1, 7, 3), ("a", 1, 7, 5), ("b", 0, 4, NULL)]
        node = AdjustmentNode(ValuesNode(["A", "ts", "te", "__p1"], rows),
                              group_width=3, ts_index=1, te_index=2, isalign=False)
        assert node.execute() == [("a", 1, 3), ("a", 3, 5), ("a", 5, 7), ("b", 0, 4)]

    def test_duplicate_split_points_skipped(self):
        rows = [("a", 1, 7, 3), ("a", 1, 7, 3)]
        node = AdjustmentNode(ValuesNode(["A", "ts", "te", "__p1"], rows),
                              group_width=3, ts_index=1, te_index=2, isalign=False)
        assert node.execute() == [("a", 1, 3), ("a", 3, 7)]

    def test_input_width_validated(self):
        with pytest.raises(PlanError):
            AdjustmentNode(ValuesNode(["A", "ts", "te"], []), group_width=3,
                           ts_index=1, te_index=2, isalign=True)
        with pytest.raises(PlanError):
            AdjustmentNode(ValuesNode(["A", "ts", "te", "p1"], []), group_width=3,
                           ts_index=5, te_index=2, isalign=False)


class TestPlanner:
    def _database(self):
        database = Database()
        database.register_relation("r", hotel_reservations())
        database.register_relation("p", hotel_prices())
        return database

    def test_scan_and_filter_plan(self):
        database = self._database()
        plan = Scan("r", database.get_table("r").columns, alias="r")
        table = database.execute(plan)
        assert len(table) == 3
        assert table.columns == ("r.n", "r.ts", "r.te")

    def test_join_strategy_selection_by_settings(self):
        # Use a relation large enough that the cost model prefers hash/merge
        # over nested loop (on tiny inputs nested loop is legitimately cheapest,
        # just like in PostgreSQL).
        from repro.workloads.incumben import IncumbenConfig, generate_incumben

        database = self._database()
        database.register_relation("big", generate_incumben(config=IncumbenConfig(size=300, seed=3)))
        left = Scan("big", database.get_table("big").columns, alias="a")
        right = Scan("big", database.get_table("big").columns, alias="b")
        join = Join(left, right, kind="inner",
                    condition=Comparison("=", Column("a.ssn"), Column("b.ssn")))

        default_plan = database.plan(join).describe()
        assert "HashJoin" in default_plan or "MergeJoin" in default_plan

        nl_only = database.plan(join, Settings(enable_hashjoin=False,
                                               enable_mergejoin=False)).describe()
        assert "NestedLoopJoin" in nl_only

        no_merge = database.plan(join, Settings(enable_mergejoin=False)).describe()
        assert "MergeJoin" not in no_merge

    def test_all_strategies_produce_same_join_result(self):
        database = self._database()
        left = Scan("r", database.get_table("r").columns, alias="a")
        right = Scan("r", database.get_table("r").columns, alias="b")
        join = Join(left, right, kind="inner",
                    condition=Comparison("=", Column("a.n"), Column("b.n")))
        results = []
        for settings in (Settings(), Settings(enable_mergejoin=False),
                         Settings(enable_mergejoin=False, enable_hashjoin=False)):
            results.append(set(database.execute(join, settings).rows))
        assert results[0] == results[1] == results[2]

    def test_normalize_plan_group_join_follows_settings(self):
        database = self._database()
        database.register_relation("inc", hotel_reservations())
        plan = normalize_plan(scan(database, "inc", "x"), scan(database, "inc", "y"), ["n"])
        # The group-construction join exists only in the row pipeline.
        row = Settings(enable_columnar=False)
        with_hash = database.plan(plan, row.copy(enable_mergejoin=False)).explain()
        assert "HashJoin" in with_hash
        nl_only = database.plan(plan, row.copy(enable_mergejoin=False,
                                                enable_hashjoin=False)).explain()
        assert "NestedLoopJoin" in nl_only

    def test_explain_contains_adjustment_node(self):
        database = self._database()
        plan = Align(Scan("r", database.get_table("r").columns, alias="a"),
                     Scan("p", database.get_table("p").columns, alias="b"), None)
        assert "Adjustment(align)" in database.explain(plan, Settings(enable_columnar=False))
        assert "ColumnarAdjustment(align" in database.explain(plan)

    def test_unknown_table(self):
        database = Database()
        from repro.relation.errors import SchemaError

        with pytest.raises(SchemaError):
            database.get_table("missing")


class TestKernelTemporalAlgebra:
    """Engine-backed reduction rules agree with the native implementation."""

    def test_align_matches_native(self, small_pair):
        left, right = small_pair
        theta_native = predicates.attr_eq("cat")
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.align(left, right, Comparison("=", Column("__l.cat"), Column("__r.cat")))
        native_result = align_relation(left, right, theta_native)
        stripped = engine_result.rename(
            {c: f"c{i}" for i, c in enumerate(engine_result.schema.attribute_names)}
        )
        native_renamed = native_result.rename(
            {c: f"c{i}" for i, c in enumerate(native_result.schema.attribute_names)}
        )
        assert stripped.as_set() == native_renamed.as_set()

    def test_normalize_matches_native(self, small_pair):
        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.normalize(left, right, ["cat"])
        native_result = normalize(left, right, ["cat"])
        assert {(t.values, t.interval) for t in engine_result} == {
            (t.values, t.interval) for t in native_result
        }

    def test_join_matches_native(self, small_pair):
        from repro.core import reduction

        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.join(left, right, Comparison("=", Column("__l.cat"), Column("__r.cat")))
        native_result = reduction.temporal_join(left, right, predicates.attr_eq("cat"))
        assert {(t.values, t.interval) for t in engine_result} == {
            (t.values, t.interval) for t in native_result
        }

    def test_left_outer_join_matches_native(self, small_pair):
        from repro.core import reduction

        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.left_outer_join(
            left, right, Comparison("=", Column("__l.cat"), Column("__r.cat"))
        )
        native_result = reduction.temporal_left_outer_join(left, right, predicates.attr_eq("cat"))
        assert {(t.values, t.interval) for t in engine_result} == {
            (t.values, t.interval) for t in native_result
        }

    def test_aggregate_and_projection(self, small_pair):
        from repro.engine.plan import AggregateCall

        left, _ = small_pair
        kernel = KernelTemporalAlgebra()
        aggregated = kernel.aggregate(left, ["cat"], [AggregateCall("COUNT", None, "cnt")])
        assert len(aggregated) > 0
        projected = kernel.projection(left, ["cat"])
        from repro.core import reduction

        native = reduction.temporal_projection(left, ["cat"])
        assert {(t.values_of(["cat"]), t.interval) for t in projected} == {
            (t.values, t.interval) for t in native
        }

    def test_set_operations(self, small_pair):
        from repro.core import reduction

        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_union = kernel.union(left, right)
        native_union = reduction.temporal_union(left, right)
        assert {(t.values, t.interval) for t in engine_union} == {
            (t.values, t.interval) for t in native_union
        }
        engine_diff = kernel.difference(left, right)
        native_diff = reduction.temporal_difference(left, right)
        assert {(t.values, t.interval) for t in engine_diff} == {
            (t.values, t.interval) for t in native_diff
        }
