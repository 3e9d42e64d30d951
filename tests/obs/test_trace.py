"""Per-query operator tracing: span trees, the executor hook, the knobs.

The structural contract under test: a :class:`~repro.obs.trace.QueryTrace`'s
span tree mirrors ``explain()`` line-for-line on *every* physical strategy
the planner can emit — serial row plans under both interval-join strategies,
the partition-parallel exchange, the columnar batch, and the shared-memory
exchange — and when no trace is active the executor takes the untouched
fast path (no trace object, no ``last_trace`` mutation).
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.executor import ExchangeNode
from repro.engine.executor.interval_join import IntervalJoinNode
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, scan
from repro.obs import trace as obs_trace
from repro.workloads.synthetic import SyntheticConfig, generate_random

#: Row pipeline with only the interval strategies in play — the chosen
#: IntervalJoin node is then overridden per test case to pin sweep vs probe.
INTERVAL_ONLY = Settings(
    enable_columnar=False,
    parallel_workers=0,
    enable_hashjoin=False,
    enable_mergejoin=False,
    enable_nestloop=False,
)

STRATEGIES = {
    "sweep": INTERVAL_ONLY,
    "index": INTERVAL_ONLY,
    "parallel": Settings(
        enable_columnar=False,
        parallel_workers=2,
        parallel_setup_cost=0.0,
        parallel_min_rows=0.0,
        parallel_pickle_cost=0.0,  # the row exchange must win adoption
    ),
    "columnar": Settings(parallel_workers=0),
    "shm": Settings(
        parallel_workers=2,
        parallel_setup_cost=0.0,
        parallel_min_rows=0.0,
    ),
}


def _database(size=120):
    left, right = generate_random(
        config=SyntheticConfig(size=size, categories=8, seed=11)
    )
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    return database


def _plan(database):
    return align_plan(
        scan(database, "l", "l"),
        scan(database, "r", "r"),
        Comparison("=", Column("l.cat"), Column("r.cat")),
    )


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _physical(database, strategy):
    physical = database.plan(_plan(database), STRATEGIES[strategy])
    if strategy in ("sweep", "index"):
        joins = [n for n in _walk(physical) if isinstance(n, IntervalJoinNode)]
        assert joins, physical.explain()
        joins[0].strategy = "sweep" if strategy == "sweep" else "probe"
    return physical


class TestSpanTreeMatchesExplain:
    @pytest.mark.parametrize("strategy", ["sweep", "index", "parallel", "columnar", "shm"])
    def test_span_tree_mirrors_the_plan_tree(self, strategy):
        database = _database()
        physical = _physical(database, strategy)
        explain_lines = physical.explain().splitlines()
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        assert rows
        rendered = trace.root_span.render().splitlines()
        # Same number of lines, and every span line is its explain line plus
        # an actuals suffix — shape, indentation and labels all match.
        assert len(rendered) == len(explain_lines)
        for span_line, explain_line in zip(rendered, explain_lines):
            assert span_line.startswith(explain_line + " "), (
                span_line,
                explain_line,
            )
        assert trace.root_span.executed
        assert trace.root_span.rows_out == len(rows)
        assert trace.root_span.loops == 1
        # spans() is explain (pre-order) order.
        assert [s.label for s in trace.spans()] == [
            line.strip().rsplit("  (rows=", 1)[0] for line in explain_lines
        ]

    @pytest.mark.parametrize("strategy", ["parallel", "shm"])
    def test_exchange_bypasses_partitions_and_the_trace_says_so(self, strategy):
        # Both exchange transports read the partition nodes' *children*
        # directly — the Partition spans legitimately never execute, and
        # EXPLAIN ANALYZE must render that instead of inventing zeros.
        database = _database()
        physical = _physical(database, strategy)
        assert isinstance(physical, ExchangeNode)
        with obs_trace.collect(physical) as trace:
            physical.execute()
        rendered = trace.root_span.render()
        partition_spans = trace.find("Partition(")
        assert partition_spans and all(not s.executed for s in partition_spans)
        assert "(never executed)" in rendered
        scan_spans = trace.find("SeqScan(")
        assert scan_spans and all(s.executed for s in scan_spans)
        assert trace.root_span.attributes["ship"] in ("shm", "pickle")

    def test_interval_strategy_is_visible_in_both_trees(self):
        database = _database()
        for strategy, expected in (("sweep", "strategy=sweep"), ("index", "strategy=probe")):
            physical = _physical(database, strategy)
            assert expected in physical.explain()
            with obs_trace.collect(physical) as trace:
                physical.execute()
            assert trace.find(expected), trace.render()


class TestDisabledPath:
    def test_no_active_trace_means_no_collection(self):
        database = _database(size=40)
        physical = database.plan(_plan(database), INTERVAL_ONLY)
        assert obs_trace.active_trace() is None
        rows = physical.execute()
        assert rows  # plain execution, nothing recorded anywhere
        assert obs_trace.active_trace() is None

    def test_database_execute_does_not_trace_by_default(self):
        database = _database(size=40)
        assert not obs_trace.tracing_enabled()
        database.execute(_plan(database))
        assert database.last_trace() is None

    def test_set_tracing_makes_every_query_traced(self):
        database = _database(size=40)
        obs_trace.set_tracing(True)
        try:
            table = database.execute(_plan(database))
        finally:
            obs_trace.set_tracing(False)
        trace = database.last_trace()
        assert trace is not None
        assert trace.root_span.rows_out == len(table.rows)
        assert "actual time=" in trace.render()
        # Back off: the next query must not disturb the captured trace.
        database.execute(_plan(database))
        assert database.last_trace() is trace

    def test_annotate_is_a_noop_without_an_active_trace(self):
        sentinel = object()
        obs_trace.annotate(sentinel, executed="nope")  # must not raise

    def test_env_flag_parsing(self):
        assert obs_trace._env_flag("REPRO_NO_SUCH_FLAG") is False


class TestNestedTraces:
    def test_traces_stack_per_thread(self):
        database = _database(size=40)
        physical = database.plan(_plan(database), INTERVAL_ONLY)
        with obs_trace.collect(physical) as outer:
            inner_physical = database.plan(_plan(database), INTERVAL_ONLY)
            with obs_trace.collect(inner_physical) as inner:
                assert obs_trace.active_trace() is inner
                inner_physical.execute()
            assert obs_trace.active_trace() is outer
            physical.execute()
        assert obs_trace.active_trace() is None
        assert outer.root_span.executed and inner.root_span.executed

    def test_foreign_nodes_pass_through_uninstrumented(self):
        # A node from some other plan (e.g. a view recompute running inside
        # a traced query) is not in this trace's span map: instrument() must
        # hand back the iterator untouched instead of recording garbage.
        database = _database(size=40)
        physical = database.plan(_plan(database), INTERVAL_ONLY)
        other = database.plan(_plan(database), INTERVAL_ONLY)
        with obs_trace.collect(physical) as trace:
            rows = other.execute()
        assert rows
        assert trace.span_for(other) is None
        assert not trace.root_span.executed


class TestRendering:
    def test_render_includes_total_and_summary_is_json_able(self):
        import json

        database = _database(size=40)
        physical = database.plan(_plan(database), INTERVAL_ONLY)
        with obs_trace.collect(physical, sql="SELECT 1") as trace:
            physical.execute()
        text = trace.render()
        assert "Execution time:" in text
        assert trace.sql == "SELECT 1"
        summary = trace.summary()
        assert summary["root"]["operator"] == physical.describe()
        json.dumps(summary)

    def test_unexecuted_span_renders_never_executed(self):
        database = _database(size=40)
        physical = database.plan(_plan(database), INTERVAL_ONLY)
        trace = obs_trace.QueryTrace(physical)
        assert "(never executed)" in trace.root_span.render()
