"""The planner: logical plans → physical executor trees.

Join strategy selection follows the PostgreSQL recipe the paper relies on:
for every join (including the group-construction join hidden inside the
``Align``/``Normalize`` nodes) the planner enumerates the enabled strategies
— nested loop always, hash and sort-merge when an equality key is available —
estimates their costs and picks the cheapest.  Disabling strategies through
:class:`~repro.engine.optimizer.settings.Settings` therefore changes the plan
exactly like ``SET enable_mergejoin = false`` does in the paper's Fig. 13.

The two temporal logical nodes are expanded here into the plan shape of
Fig. 12(b):

    Adjustment ← Sort ← Project ← (left outer) Join ← arguments

with the join planned like any other join.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.engine import plan as logical
from repro.engine.executor import (
    AbsorbNode,
    AdjustmentNode,
    AdjustmentTask,
    ColumnarAdjustmentNode,
    DistinctNode,
    ExchangeNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IntervalJoinNode,
    LimitNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PartitionNode,
    PhysicalNode,
    ProjectNode,
    RelabelNode,
    SeqScanNode,
    SetOpNode,
    SortNode,
    ValuesNode,
    ViewScanNode,
)
from repro.engine.expressions import (
    And,
    Comparison,
    Expression,
    FunctionCall,
    IndexColumn,
    conjunction,
    equijoin_keys,
    equijoin_only,
    resolve_column,
)
from repro.engine.optimizer import cost
from repro.engine.optimizer.cost import Estimate
from repro.engine.optimizer.settings import Settings
from repro.engine.statistics import IntervalStatistics, overlap_selectivity
from repro.obs import metrics as obs_metrics
from repro.relation.errors import PlanError

_STRATEGY_COUNTER = obs_metrics.counter("planner.strategy", label_name="strategy")


class Planner:
    """Translate logical plans into costed physical plans."""

    def __init__(self, database, settings: Optional[Settings] = None):
        self.database = database
        self.settings = settings if settings is not None else database.settings

    # -- entry point -----------------------------------------------------------------

    def plan(self, node: logical.LogicalPlan) -> PhysicalNode:
        method = getattr(self, f"_plan_{type(node).__name__.lower()}", None)
        if method is None:
            raise PlanError(f"no planning rule for logical node {type(node).__name__}")
        return method(node)

    # -- leaves -----------------------------------------------------------------------

    def _plan_scan(self, node: logical.Scan) -> PhysicalNode:
        # A scan of a materialized view becomes a ViewScan: the view refreshes
        # itself at execution time instead of serving a possibly stale table.
        view = self._catalog_view(node.table_name)
        if view is not None:
            physical: PhysicalNode = ViewScanNode(view, columns=node.columns)
            return self._estimated(
                physical, cost.view_scan_cost(self.settings, view.estimated_rows())
            )
        table = self.database.get_table(node.table_name)
        physical = SeqScanNode(table, node.alias)
        estimate = cost.scan_cost(self.settings, len(table))
        return self._estimated(physical, estimate)

    def _plan_values(self, node: logical.Values) -> PhysicalNode:
        physical = ValuesNode(node.columns, node.rows)
        return self._estimated(physical, Estimate(rows=len(node.rows), cost=0.0))

    # -- unary nodes --------------------------------------------------------------------

    def _plan_filter(self, node: logical.Filter) -> PhysicalNode:
        child = self.plan(node.child)
        physical = FilterNode(child, node.condition)
        estimate = cost.filter_cost(
            self.settings, self._estimate(child), self.settings.default_selectivity
        )
        return self._estimated(physical, estimate)

    def _plan_project(self, node: logical.Project) -> PhysicalNode:
        child = self.plan(node.child)
        physical = ProjectNode(child, node.expressions)
        estimate = cost.project_cost(self.settings, self._estimate(child), len(node.expressions))
        return self._estimated(physical, estimate)

    def _plan_rename(self, node: logical.Rename) -> PhysicalNode:
        child = self.plan(node.child)
        physical = RelabelNode(child, node.columns)
        return self._estimated(physical, self._estimate(child))

    def _plan_sort(self, node: logical.Sort) -> PhysicalNode:
        child = self.plan(node.child)
        physical = SortNode(child, node.keys)
        return self._estimated(physical, cost.sort_cost(self.settings, self._estimate(child)))

    def _plan_distinct(self, node: logical.Distinct) -> PhysicalNode:
        child = self.plan(node.child)
        physical = DistinctNode(child)
        return self._estimated(physical, cost.distinct_cost(self.settings, self._estimate(child)))

    def _plan_limit(self, node: logical.Limit) -> PhysicalNode:
        child = self.plan(node.child)
        physical = LimitNode(child, node.count)
        return self._estimated(
            physical, cost.limit_cost(self.settings, self._estimate(child), node.count)
        )

    def _plan_aggregate(self, node: logical.Aggregate) -> PhysicalNode:
        child = self.plan(node.child)
        physical = HashAggregateNode(child, node.group_by, node.aggregates)
        estimate = cost.aggregate_cost(self.settings, self._estimate(child))
        return self._estimated(physical, estimate)

    def _plan_absorb(self, node: logical.Absorb) -> PhysicalNode:
        child = self.plan(node.child)
        start_index = resolve_column(node.start, child.columns)
        end_index = resolve_column(node.end, child.columns)
        physical = AbsorbNode(child, start_index, end_index)
        return self._estimated(physical, cost.absorb_cost(self.settings, self._estimate(child)))

    # -- binary nodes ---------------------------------------------------------------------

    def _plan_setop(self, node: logical.SetOp) -> PhysicalNode:
        left = self.plan(node.left)
        right = self.plan(node.right)
        physical = SetOpNode(node.kind, left, right)
        estimate = cost.setop_cost(
            self.settings, self._estimate(left), self._estimate(right), node.kind
        )
        return self._estimated(physical, estimate)

    def _plan_join(self, node: logical.Join) -> PhysicalNode:
        left = self.plan(node.left)
        right = self.plan(node.right)
        kind = "inner" if node.kind == "cross" else node.kind
        keys = self._key_indexes(node.condition, left.columns, right.columns)
        return self._choose_join(left, right, kind, node.condition, keys)

    # -- temporal nodes ----------------------------------------------------------------------

    def _plan_align(self, node: logical.Align) -> PhysicalNode:
        substituted = self._view_substitute(node, kind="align")
        if substituted is not None:
            return substituted
        left = self.plan(node.left)
        right = self.plan(node.right)
        left_columns = left.columns
        right_columns = right.columns
        left_width = len(left_columns)

        left_ts = resolve_column(node.left_start, left_columns)
        left_te = resolve_column(node.left_end, left_columns)
        right_ts = left_width + resolve_column(node.right_start, right_columns)
        right_te = left_width + resolve_column(node.right_end, right_columns)

        # Group construction: left outer join on θ ∧ overlap (Fig. 8).  The
        # overlap shape admits the interval strategies (indexed probe, plane
        # sweep) in addition to the generic ones; the choice is costed like
        # any other join and shows up in EXPLAIN.
        overlap = And(
            Comparison("<", IndexColumn(left_ts), IndexColumn(right_te)),
            Comparison("<", IndexColumn(right_ts), IndexColumn(left_te)),
        )
        condition = conjunction([node.condition, overlap])
        keys = self._key_indexes(node.condition, left_columns, right_columns)
        bounds = (
            left_ts,
            left_te,
            right_ts - left_width,
            right_te - left_width,
        )
        selectivity = overlap_selectivity(
            self._scan_interval_statistics(node.left, node.left_start, node.left_end),
            self._scan_interval_statistics(node.right, node.right_start, node.right_end),
        )
        join = self._choose_overlap_join(left, right, "left", condition, keys, bounds, selectivity)

        # Project to the r tuple plus the intersection bounds P1/P2.
        expressions: List[Tuple[Expression, str]] = [
            (IndexColumn(i), name) for i, name in enumerate(left_columns)
        ]
        expressions.append(
            (FunctionCall("GREATEST", [IndexColumn(left_ts), IndexColumn(right_ts)]), "__p1")
        )
        expressions.append(
            (FunctionCall("LEAST", [IndexColumn(left_te), IndexColumn(right_te)]), "__p2")
        )
        projected = ProjectNode(join, expressions)
        self._estimated(
            projected, cost.project_cost(self.settings, self._estimate(join), len(expressions))
        )

        sorted_node = self._partition_sort(projected, left_width, extra=2)
        adjustment = AdjustmentNode(
            sorted_node,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=True,
            columns=left_columns,
        )
        estimate = cost.alignment_cost(
            self.settings, self._estimate(sorted_node), len(left_columns)
        )
        self._estimated(adjustment, estimate)

        return self._dispatch_adjustment(
            left,
            right,
            keys=keys,
            condition=condition,
            bounds=bounds,
            overlap=True,
            selectivity=selectivity,
            projections=expressions,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=True,
            serial=adjustment,
            serial_estimate=estimate,
            # Columnar encoding captures equality keys and the overlap itself;
            # any further residual θ forces per-row evaluation (row mode).
            pure_equality=equijoin_only(node.condition, left_columns, right_columns),
        )

    def _plan_normalize(self, node: logical.Normalize) -> PhysicalNode:
        substituted = self._view_substitute(node, kind="normalize")
        if substituted is not None:
            return substituted
        left = self.plan(node.left)
        right = self.plan(node.right)
        left_columns = left.columns
        right_columns = right.columns
        left_width = len(left_columns)

        left_ts = resolve_column(node.left_start, left_columns)
        left_te = resolve_column(node.left_end, left_columns)
        right_ts = resolve_column(node.right_start, right_columns)
        right_te = resolve_column(node.right_end, right_columns)

        # Split points of the reference: π_{B,Ts}(s) ∪ π_{B,Te}(s)  (Sec. 6.3).
        using_right_indexes = [resolve_column(rc, right_columns) for _, rc in node.using]
        key_names = [f"__k{i}" for i in range(len(node.using))]

        def split_projection(point_index: int) -> ProjectNode:
            expressions = [
                (IndexColumn(index), name) for index, name in zip(using_right_indexes, key_names)
            ]
            expressions.append((IndexColumn(point_index), "__p"))
            projection = ProjectNode(right, expressions)
            self._estimated(
                projection,
                cost.project_cost(self.settings, self._estimate(right), len(expressions)),
            )
            return projection

        split_points = SetOpNode(
            "union_all", split_projection(right_ts), split_projection(right_te)
        )
        self._estimated(
            split_points,
            cost.setop_cost(
                self.settings, self._estimate(right), self._estimate(right), "union_all"
            ),
        )

        # Group construction join: equality on the USING attributes plus the
        # requirement that the split point falls strictly inside the interval.
        point_index = left_width + len(node.using)
        conjuncts: List[Expression] = []
        keys: List[Tuple[int, int]] = []
        for i, (left_name, _right_name) in enumerate(node.using):
            left_index = resolve_column(left_name, left_columns)
            conjuncts.append(
                Comparison("=", IndexColumn(left_index), IndexColumn(left_width + i))
            )
            keys.append((left_index, i))
        conjuncts.append(Comparison(">", IndexColumn(point_index), IndexColumn(left_ts)))
        conjuncts.append(Comparison("<", IndexColumn(point_index), IndexColumn(left_te)))
        condition = conjunction(conjuncts)

        join = self._choose_join(left, split_points, "left", condition, keys)

        expressions = [(IndexColumn(i), name) for i, name in enumerate(left_columns)]
        expressions.append((IndexColumn(point_index), "__p1"))
        projected = ProjectNode(join, expressions)
        self._estimated(
            projected, cost.project_cost(self.settings, self._estimate(join), len(expressions))
        )

        sorted_node = self._partition_sort(projected, left_width, extra=1)
        adjustment = AdjustmentNode(
            sorted_node,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=False,
            columns=left_columns,
        )
        estimate = cost.normalization_cost(
            self.settings, self._estimate(sorted_node), len(left_columns)
        )
        self._estimated(adjustment, estimate)

        return self._dispatch_adjustment(
            left,
            split_points,
            keys=keys,
            condition=condition,
            bounds=None,
            overlap=False,
            selectivity=None,
            projections=expressions,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=False,
            serial=adjustment,
            serial_estimate=estimate,
            # The normalize condition is equality on B plus the split-point
            # window — fully captured by the columnar encoding.
            pure_equality=True,
        )

    # -- materialized view substitution ------------------------------------------------------

    def _catalog_view(self, name: str):
        """The named materialized view, when substitution is enabled."""
        if not self.settings.enable_viewscan:
            return None
        catalog = getattr(self.database, "views", None)
        if catalog is None or name not in catalog:
            return None
        return catalog.get(name)

    def _view_substitute(
        self, node, kind: str
    ) -> Optional[PhysicalNode]:
        """Replace an Align/Normalize subtree by a matching materialized view.

        Matching is structural: both inputs must be base-table scans of
        registered relations, the boundary columns the engine defaults, and
        the view catalog must hold an incremental view whose fingerprint
        (tables + alias-normalized condition) equals the node's.  The view
        must still be backed by the *same* relation objects — re-registering
        a table under an old name orphans views built over the former
        relation, and those must not serve the query.
        """
        if not self.settings.enable_viewscan:
            return None
        catalog = getattr(self.database, "views", None)
        if catalog is None or len(catalog) == 0:
            return None
        if not isinstance(node.left, logical.Scan) or not isinstance(node.right, logical.Scan):
            return None
        bounds = (node.left_start, node.left_end, node.right_start, node.right_end)
        if tuple(b.rsplit(".", 1)[-1] for b in bounds) != ("ts", "te", "ts", "te"):
            return None

        from repro.views.catalog import (
            align_fingerprint,
            condition_fingerprint,
            normalize_fingerprint,
        )

        left_table = node.left.table_name
        right_table = node.right.table_name
        if kind == "align":
            fingerprint = align_fingerprint(
                left_table,
                right_table,
                condition_fingerprint(node.condition, node.left.columns, node.right.columns),
            )
        else:
            pairs = [
                (lc.rsplit(".", 1)[-1], rc.rsplit(".", 1)[-1]) for lc, rc in node.using
            ]
            fingerprint = normalize_fingerprint(left_table, right_table, pairs)
        view = catalog.match(fingerprint)
        if view is None or view.kind != kind:
            return None
        if (
            self.database.relations.get(left_table) is not view.base
            or self.database.relations.get(right_table) is not view.reference
        ):
            return None
        physical = ViewScanNode(view, columns=node.left.columns)
        return self._estimated(
            physical, cost.view_scan_cost(self.settings, view.estimated_rows())
        )

    # -- helpers ---------------------------------------------------------------------------

    def _partition_sort(self, child: PhysicalNode, group_width: int, extra: int) -> SortNode:
        """Sort by the partition key (all group columns) then the sweep columns."""
        keys = [(IndexColumn(i), True) for i in range(group_width + extra)]
        sorted_node = SortNode(child, keys)
        self._estimated(sorted_node, cost.sort_cost(self.settings, self._estimate(child)))
        return sorted_node

    def _key_indexes(
        self,
        condition: Optional[Expression],
        left_columns: Sequence[str],
        right_columns: Sequence[str],
    ) -> List[Tuple[int, int]]:
        pairs = equijoin_keys(condition, left_columns, right_columns)
        indexes: List[Tuple[int, int]] = []
        for left_name, right_name in pairs:
            indexes.append(
                (resolve_column(left_name, left_columns), resolve_column(right_name, right_columns))
            )
        return indexes

    def _join_candidates(
        self,
        left_estimate: Estimate,
        right_estimate: Estimate,
        rows: float,
        keys: Sequence[Tuple[int, int]],
        overlap: bool = False,
    ) -> List[Tuple[Estimate, str]]:
        """Enumerate enabled join strategies with their cost estimates.

        ``overlap`` admits the interval strategies (indexed probe, event
        sweep) that exploit an overlap-shaped condition.  Shared by the
        serial choosers and the per-partition strategy choice of the
        parallel plans.
        """
        settings = self.settings
        candidates: List[Tuple[Estimate, str]] = []
        if overlap and settings.enable_intervaljoin:
            candidates.append(
                (cost.interval_probe_join_cost(settings, left_estimate, right_estimate, rows), "probe")
            )
            candidates.append(
                (cost.interval_sweep_join_cost(settings, left_estimate, right_estimate, rows), "sweep")
            )
        if keys and settings.enable_hashjoin:
            candidates.append((cost.hash_join_cost(settings, left_estimate, right_estimate, rows), "hash"))
        if keys and settings.enable_mergejoin:
            candidates.append((cost.merge_join_cost(settings, left_estimate, right_estimate, rows), "merge"))
        if settings.enable_nestloop or not candidates:
            candidates.append((cost.nested_loop_cost(settings, left_estimate, right_estimate, rows), "nestloop"))
        return candidates

    def _choose_join(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        condition: Optional[Expression],
        keys: Sequence[Tuple[int, int]],
    ) -> PhysicalNode:
        settings = self.settings
        left_estimate = self._estimate(left)
        right_estimate = self._estimate(right)
        rows = cost.join_output_rows(settings, left_estimate, right_estimate, bool(keys), kind)

        candidates = self._join_candidates(left_estimate, right_estimate, rows, keys)
        estimate, strategy = min(candidates, key=lambda item: item[0].cost)
        # The full condition is evaluated as a residual predicate by every
        # strategy, so correctness never depends on the choice.
        combined_condition = condition
        if strategy == "hash":
            physical: PhysicalNode = HashJoinNode(left, right, kind, combined_condition, list(keys))
        elif strategy == "merge":
            physical = MergeJoinNode(left, right, kind, combined_condition, list(keys))
        else:
            physical = NestedLoopJoinNode(left, right, kind, combined_condition)
        return self._estimated(physical, estimate)

    def _choose_overlap_join(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        condition: Optional[Expression],
        keys: Sequence[Tuple[int, int]],
        bounds: Tuple[int, int, int, int],
        selectivity: Optional[float],
    ) -> PhysicalNode:
        """Pick a strategy for the overlap-shaped group-construction join.

        Candidates are the generic strategies (hash/merge when θ has an
        equality part, nested loop as fallback) plus the two interval
        strategies that exploit the overlap predicate itself: the indexed
        probe (build an interval index over the reference side, probe per
        argument row — streams the outer input) and the event plane sweep
        (sort both sides once).  The cheapest estimate wins and the chosen
        operator is visible in ``EXPLAIN`` output, mirroring how the paper's
        Fig. 13 experiment reads the strategy off the PostgreSQL plan.
        """
        settings = self.settings
        left_estimate = self._estimate(left)
        right_estimate = self._estimate(right)
        rows = cost.overlap_join_rows(settings, left_estimate, right_estimate, kind, selectivity)

        candidates = self._join_candidates(left_estimate, right_estimate, rows, keys, overlap=True)
        estimate, strategy = min(candidates, key=lambda item: item[0].cost)
        if strategy in ("probe", "sweep"):
            physical: PhysicalNode = IntervalJoinNode(
                left, right, kind, condition, bounds, strategy=strategy
            )
        elif strategy == "hash":
            physical = HashJoinNode(left, right, kind, condition, list(keys))
        elif strategy == "merge":
            physical = MergeJoinNode(left, right, kind, condition, list(keys))
        else:
            physical = NestedLoopJoinNode(left, right, kind, condition)
        return self._estimated(physical, estimate)

    def _dispatch_adjustment(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        keys: Sequence[Tuple[int, int]],
        condition: Optional[Expression],
        bounds: Optional[Tuple[int, int, int, int]],
        overlap: bool,
        selectivity: Optional[float],
        projections: Sequence[Tuple[Expression, str]],
        group_width: int,
        ts_index: int,
        te_index: int,
        isalign: bool,
        serial: PhysicalNode,
        serial_estimate: Estimate,
        pure_equality: bool,
    ) -> PhysicalNode:
        """Row/column dispatch over an adjustment: pick among the serial row
        pipeline, a single columnar batch, and the partition-parallel plan
        (with columnar kernels inside the workers when eligible).

        The parallel plan keeps its cost gate against the serial estimate;
        when it is not adopted, a ``ColumnarAdjustment`` batch replaces the
        serial pipeline whenever the condition is a pure equality and
        ``enable_columnar`` is on — at every input size, since the batch
        wins from a few dozen rows up.  An opaque θ keeps the row pipeline.
        """
        settings = self.settings
        columnar_ok = pure_equality and settings.enable_columnar
        parallel = self._parallel_adjustment_plan(
            left,
            right,
            keys=keys,
            condition=condition,
            bounds=bounds,
            overlap=overlap,
            selectivity=selectivity,
            projections=projections,
            group_width=group_width,
            ts_index=ts_index,
            te_index=te_index,
            isalign=isalign,
            serial_estimate=serial_estimate,
            use_columnar=columnar_ok,
        )
        if parallel is not None:
            _STRATEGY_COUNTER.inc(label="exchange")
            return parallel
        if not columnar_ok:
            _STRATEGY_COUNTER.inc(label="row")
            return serial

        left_estimate = self._estimate(left)
        right_estimate = self._estimate(right)
        # The join strategy only matters if the batch falls back to the row
        # pipeline at runtime (ColumnarUnsupported).
        if overlap:
            rows = cost.overlap_join_rows(
                settings, left_estimate, right_estimate, "left", selectivity
            )
        else:
            rows = cost.join_output_rows(
                settings, left_estimate, right_estimate, bool(keys), "left"
            )
        candidates = self._join_candidates(
            left_estimate, right_estimate, rows, keys, overlap=overlap
        )
        _, strategy = min(candidates, key=lambda item: item[0].cost)
        task = AdjustmentTask(
            left_columns=tuple(left.columns),
            right_columns=tuple(right.columns),
            join_strategy=strategy,
            join_kind="left",
            condition=condition,
            key_pairs=tuple(keys),
            bounds=bounds,
            projections=tuple(projections),
            sort_width=len(projections),
            group_width=group_width,
            ts_index=ts_index,
            te_index=te_index,
            isalign=isalign,
            use_columnar=True,
        )
        # One encoding pass over both inputs plus the emitted pieces.
        columnar_estimate = Estimate(
            rows=serial_estimate.rows,
            cost=left_estimate.cost
            + right_estimate.cost
            + settings.cpu_operator_cost * (left_estimate.rows + right_estimate.rows)
            + settings.cpu_tuple_cost * serial_estimate.rows,
        )
        _STRATEGY_COUNTER.inc(label="columnar")
        return self._estimated(ColumnarAdjustmentNode(left, right, task), columnar_estimate)

    def _parallel_adjustment_plan(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        keys: Sequence[Tuple[int, int]],
        condition: Optional[Expression],
        bounds: Optional[Tuple[int, int, int, int]],
        overlap: bool,
        selectivity: Optional[float],
        projections: Sequence[Tuple[Expression, str]],
        group_width: int,
        ts_index: int,
        te_index: int,
        isalign: bool,
        serial_estimate: Estimate,
        use_columnar: bool = False,
    ) -> Optional[PhysicalNode]:
        """Partition-parallel alternative to a serial adjustment plan.

        Eligibility requires an equality key to hash-partition on,
        ``parallel_workers >= 2`` and enough input rows; the plan is then
        adopted only when :func:`~repro.engine.optimizer.cost.parallel_adjustment_cost`
        undercuts the serial estimate (the estimate already reflects interval
        statistics through the overlap selectivity baked into
        ``serial_estimate``).  Returns ``None`` when the serial plan stands.
        """
        settings = self.settings
        workers = settings.parallel_workers
        if workers < 2 or not keys:
            return None
        left_estimate = self._estimate(left)
        right_estimate = self._estimate(right)
        if left_estimate.rows + right_estimate.rows < settings.parallel_min_rows:
            return None
        # Transport choice: columnar tasks ship partitions as shared-memory
        # frames (near-zero per-row cost) when the facility is available;
        # everything else pickles rows.  The estimate must reflect the
        # transport that will actually run, or the gate would keep refusing
        # parallel plans the hardware now wins (or adopting ones it loses).
        from repro.columnar.shm import shm_available

        use_shm = use_columnar and settings.enable_shm and shm_available()
        ship = "shm" if use_shm else "pickle"
        parallel_estimate = cost.parallel_adjustment_cost(
            settings, left_estimate, right_estimate, serial_estimate, workers, ship=ship
        )
        if parallel_estimate.cost >= serial_estimate.cost:
            return None

        partitions = settings.parallel_partitions or workers * 4
        # Per-partition strategy choice over scaled-down estimates: each
        # bucket sees roughly 1/partitions of either input.
        bucket_left = Estimate(rows=max(1.0, left_estimate.rows / partitions), cost=0.0)
        bucket_right = Estimate(rows=max(1.0, right_estimate.rows / partitions), cost=0.0)
        if overlap:
            bucket_rows = cost.overlap_join_rows(
                settings, bucket_left, bucket_right, "left", selectivity
            )
        else:
            bucket_rows = cost.join_output_rows(settings, bucket_left, bucket_right, True, "left")
        candidates = self._join_candidates(
            bucket_left, bucket_right, bucket_rows, keys, overlap=overlap
        )
        _, strategy = min(candidates, key=lambda item: item[0].cost)

        left_partition = PartitionNode(left, [i for i, _ in keys], partitions)
        self._estimated(left_partition, cost.partition_cost(settings, left_estimate, ship=ship))
        right_partition = PartitionNode(right, [j for _, j in keys], partitions)
        self._estimated(right_partition, cost.partition_cost(settings, right_estimate, ship=ship))

        task = AdjustmentTask(
            left_columns=tuple(left.columns),
            right_columns=tuple(right.columns),
            join_strategy=strategy,
            join_kind="left",
            condition=condition,
            key_pairs=tuple(keys),
            bounds=bounds,
            projections=tuple(projections),
            sort_width=len(projections),
            group_width=group_width,
            ts_index=ts_index,
            te_index=te_index,
            isalign=isalign,
            use_columnar=use_columnar,
        )
        exchange = ExchangeNode(
            left_partition,
            right_partition,
            task,
            workers=workers,
            inprocess_threshold=int(settings.parallel_min_rows),
            use_shm=use_shm,
        )
        return self._estimated(exchange, parallel_estimate)

    def _scan_interval_statistics(
        self, node: logical.LogicalPlan, start_column: str, end_column: str
    ) -> Optional[IntervalStatistics]:
        """Interval statistics of a logical input, when it is a base scan.

        Plans whose adjustment inputs are arbitrary subplans get no endpoint
        statistics (a real system would propagate them); the caller then
        falls back to the default selectivity.
        """
        if not isinstance(node, logical.Scan):
            return None
        try:
            table = self.database.get_table(node.table_name)
        except Exception:
            return None
        statistics = self.database.statistics.for_table(table)
        return statistics.interval_statistics(start_column, end_column)

    def _estimate(self, node: PhysicalNode) -> Estimate:
        return Estimate(rows=node.estimated_rows, cost=node.estimated_cost)

    def _estimated(self, node: PhysicalNode, estimate: Estimate) -> PhysicalNode:
        node.estimated_rows = estimate.rows
        node.estimated_cost = estimate.cost
        return node
