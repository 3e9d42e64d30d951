"""The SQL observability surface: ``EXPLAIN [ANALYZE]`` and ``SHOW METRICS``."""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.obs import metrics as obs_metrics
from repro.relation.errors import QueryError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.sql.interface import Connection
from repro.temporal.interval import Interval


@pytest.fixture
def connection():
    database = Database()
    relation = TemporalRelation(Schema(["k", "v"]))
    relation.insert(("a", 1), Interval(0, 10))
    relation.insert(("b", 2), Interval(5, 15))
    database.register_relation("t", relation)
    other = TemporalRelation(Schema(["k", "v"]))
    other.insert(("a", 9), Interval(2, 8))
    database.register_relation("s", other)
    return Connection(database)


def _plan_lines(table):
    assert table.columns == ("plan",)
    return [row[0] for row in table.rows]


class TestExplain:
    def test_explain_prints_the_physical_plan(self, connection):
        lines = _plan_lines(connection.execute("EXPLAIN SELECT k FROM t"))
        assert lines
        assert any("SeqScan(t" in line for line in lines)
        assert all("actual time=" not in line for line in lines)

    def test_explain_analyze_annotates_every_operator(self, connection):
        lines = _plan_lines(connection.execute("EXPLAIN ANALYZE SELECT k FROM t"))
        assert lines[-1].startswith("Execution time:")
        for line in lines[:-1]:
            # Per-operator actuals: wall time, row count, loop count.
            assert "actual time=" in line and "rows=" in line and "loops=" in line
        # And the database keeps the trace for programmatic inspection.
        trace = connection.database.last_trace()
        assert trace is not None
        assert trace.render().splitlines() == lines

    def test_explain_analyze_executes_but_returns_the_plan(self, connection):
        table = connection.execute("EXPLAIN ANALYZE SELECT k FROM t WHERE k = 'a'")
        assert table.columns == ("plan",)
        rows_line = next(
            line for (line,) in table.rows if "actual time=" in line
        )
        assert "rows=1" in rows_line

    def test_explain_rejects_non_queries(self, connection):
        with pytest.raises(QueryError, match="EXPLAIN supports queries only"):
            connection.execute(
                "EXPLAIN INSERT INTO t (k, v) VALUES ('c', 3) VALID PERIOD [0, 5)"
            )

    def test_nested_explain_is_rejected(self, connection):
        with pytest.raises(QueryError):
            connection.execute("EXPLAIN EXPLAIN SELECT k FROM t")

    def test_explain_analyze_align(self, connection):
        # The acceptance query of the observability PR: a temporal ALIGN
        # traced end to end, every operator reporting wall time and rows.
        sql = "EXPLAIN ANALYZE SELECT * FROM (t ALIGN s ON t.k = s.k) a"
        lines = _plan_lines(connection.execute(sql))
        operators = [line for line in lines if "(rows=" in line]
        assert len(operators) >= 3  # scan, scan, join/adjust at minimum
        for line in operators:
            assert "actual time=" in line or "(never executed)" in line

    def test_explain_analyze_reports_the_executed_columnar_batch(self, connection):
        # Equi-θ ALIGN plans the columnar batch even at two tuples a side,
        # and the traced run reports the path that actually executed.
        sql = "EXPLAIN ANALYZE SELECT * FROM (t ALIGN s ON t.k = s.k) a"
        lines = _plan_lines(connection.execute(sql))
        batch = [line for line in lines if "ColumnarAdjustment(align" in line]
        assert len(batch) == 1
        assert "executed=columnar" in batch[0]


class TestExplainInTransactions:
    def test_explain_analyze_sees_the_transaction_snapshot(self, connection):
        session = connection.database.session()
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO t (k, v) VALUES ('c', 3) VALID PERIOD [0, 5)"
        )
        lines = [row[0] for row in session.execute("EXPLAIN ANALYZE SELECT k FROM t").rows]
        joined = "\n".join(lines)
        assert "rows=3" in joined  # own write visible inside the transaction
        session.execute("ROLLBACK")
        lines = [row[0] for row in session.execute("EXPLAIN ANALYZE SELECT k FROM t").rows]
        assert "rows=3" not in "\n".join(lines)


class TestShowMetrics:
    def test_show_metrics_shape_and_commit_counter(self, connection):
        before = obs_metrics.counter("txn.commits").total
        session = connection.database.session()
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO t (k, v) VALUES ('c', 3) VALID PERIOD [0, 5)"
        )
        session.execute("COMMIT")
        table = connection.execute("SHOW METRICS")
        assert table.columns == ("metric", "type", "label", "value")
        by_key = {(row[0], row[2]): row[3] for row in table.rows}
        assert by_key[("txn.commits", "")] >= before + 1
        kinds = {row[0]: row[1] for row in table.rows}
        assert kinds["txn.commits"] == "counter"

    def test_histograms_flatten_to_count_sum_and_buckets(self, connection):
        obs_metrics.histogram("tests.sql.show_histogram").observe(0.002)
        table = connection.execute("SHOW METRICS")
        rows = [row for row in table.rows if row[0] == "tests.sql.show_histogram"]
        labels = [row[2] for row in rows]
        assert "count" in labels and "sum" in labels
        assert any(label.startswith("le=") for label in labels)
        count = next(row[3] for row in rows if row[2] == "count")
        assert count >= 1

    def test_labeled_counters_emit_one_row_per_label(self, connection):
        obs_metrics.counter("tests.sql.labeled", label_name="cause").inc(label="x")
        table = connection.execute("SHOW METRICS")
        rows = [row for row in table.rows if row[0] == "tests.sql.labeled"]
        assert ("tests.sql.labeled", "counter", "", rows[0][3]) in [tuple(r) for r in rows]
        assert any(row[2] == "x" for row in rows)

    def test_show_metrics_inside_a_transaction(self, connection):
        session = connection.database.session()
        session.execute("BEGIN")
        table = session.execute("SHOW METRICS")
        assert table.columns == ("metric", "type", "label", "value")
        session.execute("ROLLBACK")
