"""The traced run: spans around calls into each layer's public functions.

Wrappers are installed from outside the program, by replacing a function on
its module or class (and every ``from … import`` binding of it in loaded
``repro`` modules).  A span is ``(name, start, end, parent, op, extra)``:
``parent`` is the index of the enclosing span (``-1`` for a root), ``op``
the operation it belongs to and ``extra`` a value the layer returned (rows,
pieces, bytes).  Spans are kept in memory and written out at the end.

Operator self time comes from :class:`OperatorClock`, which wraps every
operator's iterator for a separate phase of the traced run.

Per-layer counts come from before/after deltas of the process metrics
registry (``repro.obs.metrics.REGISTRY``, or ``Client.metrics()`` for the
server), which is cumulative over the life of a process.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = List[Any]  # [name, start, end, parent, op, extra]

#: Operator classes per self-time bucket.
OPERATOR_BUCKETS = (
    ("adjustment", ("AdjustmentNode", "ColumnarAdjustmentNode")),
    ("join", ("HashJoinNode", "IntervalJoinNode", "NestedLoopJoinNode", "MergeJoinNode")),
    ("sort", ("SortNode",)),
)


class OperatorClock:
    """Self time per physical operator class, measured from outside.

    While installed, every operator's iterator (``PhysicalNode.__iter__``,
    through which each operator pulls from its children) is wrapped: the
    time of one pull, less the time of the pulls it makes from its
    children, is charged to the operator's class.  The wrapper's own cost
    per row lands in the figures too, so they are for comparing traced runs
    with each other only.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._stack: List[float] = []
        self._original: Any = None

    def install(self) -> None:
        from repro.engine.executor import base

        original = self._original = base.PhysicalNode.__iter__
        clock = self

        def timed_iter(node):
            return clock._timed(type(node).__name__, original(node))

        base.PhysicalNode.__iter__ = timed_iter

    def remove(self) -> None:
        from repro.engine.executor import base

        base.PhysicalNode.__iter__ = self._original

    def _timed(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        stack = self._stack
        own = 0.0
        try:
            while True:
                stack.append(0.0)
                started = perf_counter()
                try:
                    row = next(iterator)
                except StopIteration:
                    break
                finally:
                    elapsed = perf_counter() - started
                    own += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                yield row
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + own

    def bucket_seconds(self) -> Dict[str, float]:
        return {bucket: sum(self.seconds.get(name, 0.0) for name in names)
                for bucket, names in OPERATOR_BUCKETS}


class Tracer:
    """Collects spans for one process (the benchmark or the server)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = 0
        #: Spans are kept only while recording: set-up is not measured.
        self.recording = False
        self._registry_before: Dict[str, Any] = {}
        self.registry_delta: Dict[str, Any] = {}
        #: Spans before this index were recorded in the measured window.
        self.window_end = 0

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        if not self.recording:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def op(self, template: str):
        """The root span of one benchmark operation."""
        self._op += 1
        return self.span(f"op.{template}")

    def wrap(self, owner: Any, attribute: str, name: str,
             extra: Optional[Callable[[Any, Tuple[Any, ...]], Any]] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if extra is not None and index >= 0:
                tracer.spans[index][5] = extra(result, args)
            return result

        setattr(owner, attribute, traced)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, attribute, None) is original:
                setattr(module, attribute, traced)

    # -- registry deltas -------------------------------------------------------------

    def begin_window(self, snapshot: Optional[Dict[str, Any]] = None) -> None:
        """Start recording and take the registry's before-snapshot."""
        self.recording = True
        self._registry_before = snapshot if snapshot is not None else _local_registry()

    def end_window(self, snapshot: Optional[Dict[str, Any]] = None) -> None:
        """Stop recording and keep the registry delta since the window began."""
        self.recording = False
        self.window_end = len(self.spans)
        after = snapshot if snapshot is not None else _local_registry()
        self.registry_delta = registry_delta(self._registry_before, after)

    # -- output --------------------------------------------------------------------

    def window_spans(self) -> List[Span]:
        """The spans of the measured window (a prefix, so parents stay valid)."""
        return self.spans[:self.window_end]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "registry_delta": self.registry_delta}, handle)


def _local_registry() -> Dict[str, Any]:
    from repro.obs import metrics

    return metrics.REGISTRY.snapshot()


def registry_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Flatten two registry snapshots into ``name[{label}]`` → difference."""
    def flat(snapshot: Dict[str, Any]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, entry in snapshot.items():
            if entry["type"] == "histogram":
                out[f"{name}.count"] = entry["count"]
                out[f"{name}.sum"] = entry["sum"]
                continue
            out[name] = entry["value"]
            for label, value in entry.get("labels", {}).items():
                out[f"{name}{{{label}}}"] = value
        return out

    old, new = flat(before), flat(after)
    return {key: value - old.get(key, 0) for key, value in new.items()}


# -- wrapper sets -------------------------------------------------------------------


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine layers both processes run: sql, optimizer, executor,
    columnar, engine tables, transactions, storage and views."""
    import repro.engine.executor.columnar_adjustment  # noqa: F401 - binds by name
    import repro.engine.session  # noqa: F401 - binds parse by name
    import repro.sql.interface  # noqa: F401 - binds parse by name
    from repro.columnar import kernels, rows
    from repro.engine import database, transactions
    from repro.sql import analyzer, parser
    from repro.storage import engine, snapshot, wal
    from repro.views import view

    tracer.wrap(parser, "parse", "sql.parse")
    tracer.wrap(analyzer.Analyzer, "analyze", "sql.analyze")
    tracer.wrap(database.Database, "plan", "optimizer.plan")
    tracer.wrap(database.Database, "execute", "executor.execute",
                lambda table, args: len(table.rows))
    tracer.wrap(database.Database, "_refresh_table", "engine.table_refresh")
    tracer.wrap(rows, "adjust_rows_columnar", "columnar.adjust")
    tracer.wrap(kernels, "align_pieces", "columnar.kernel",
                lambda pieces, args: len(pieces[0]))
    tracer.wrap(kernels, "normalize_pieces", "columnar.kernel",
                lambda pieces, args: len(pieces[0]))
    tracer.wrap(transactions.SnapshotDatabase, "get_table", "txn.snapshot")
    tracer.wrap(transactions.TransactionManager, "commit", "txn.commit")
    tracer.wrap(wal.WalWriter, "append", "wal.append", lambda size, args: size)
    tracer.wrap(engine.StorageEngine, "checkpoint", "storage.checkpoint",
                lambda size, args: size)
    tracer.wrap(engine.StorageEngine, "recover", "storage.recover")
    tracer.wrap(snapshot, "read_snapshot", "storage.snapshot_load")
    tracer.wrap(snapshot, "restore_database", "storage.snapshot_load")
    tracer.wrap(view.AlignView, "refresh", "views.refresh")


def install_server(tracer: Tracer) -> None:
    """Wrap the serving path: request handling, statements, encoding."""
    from repro.engine import session
    from repro.server import protocol, server

    tracer.wrap(server.DatabaseServer, "_serve_request", "server.request")
    tracer.wrap(session.Session, "execute", "server.statement")
    tracer.wrap(protocol, "result_response", "server.encode")


# -- per-layer metrics ---------------------------------------------------------------
#
# A layer's time is its total over the measured window divided by the
# operations completed in it: per operation, not a median per call, so a
# change to any one template or statement kind moves it.


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span[2] - span[1] for span in spans if span[0] == name]


def _children(spans: Sequence[Span]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    return children


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _child_time(spans, children, index, names=None) -> float:
    return sum(spans[c][2] - spans[c][1] for c in children.get(index, ())
               if names is None or spans[c][0] in names)


def coverage(spans: Sequence[Span], roots: Callable[[str], bool]) -> Dict[str, float]:
    """Per root-span name: median share of its time spent in child spans."""
    children = _children(spans)
    shares: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        if roots(span[0]) and span[2] > span[1]:
            shares.setdefault(span[0], []).append(
                _child_time(spans, children, index) / (span[2] - span[1]))
    return {name: statistics.median(values) for name, values in shares.items()}


#: Per-operation layer times: metric → span name.
_PER_OP = (
    ("sql.parse_ms", "sql.parse"),
    ("sql.analyze_ms", "sql.analyze"),
    ("optimizer.plan_ms", "optimizer.plan"),
    ("engine.table_refresh_ms", "engine.table_refresh"),
    ("txn.snapshot_ms", "txn.snapshot"),
    ("txn.commit_ms", "txn.commit"),
    ("wal.append_ms", "wal.append"),
    ("storage.checkpoint_ms", "storage.checkpoint"),
    ("views.refresh_ms", "views.refresh"),
    ("columnar.adjust_ms", "columnar.adjust"),
    ("columnar.kernel_ms", "columnar.kernel"),
)


def engine_metrics(spans: Sequence[Span], delta: Dict[str, float], scale: float,
                   ops: int) -> Dict[str, float]:
    """Per-layer figures of the engine layers from one process's spans of
    the measured window, in which ``ops`` operations completed."""
    per_op = 1000.0 * scale / max(ops, 1)
    children = _children(spans)
    out = {metric: sum(durations(spans, name)) * per_op for metric, name in _PER_OP}
    executes = [(i, s) for i, s in enumerate(spans) if s[0] == "executor.execute"]
    out["executor.run_ms"] = sum(
        s[2] - s[1] - _child_time(spans, children, i, {"optimizer.plan"}) for i, s in executes
    ) * per_op
    rows = [s[5] for _, s in executes if s[5] is not None]
    out["executor.rows_out"] = statistics.mean(rows) if rows else 0.0

    adjusts = [(i, s) for i, s in enumerate(spans) if s[0] == "columnar.adjust"]
    kernel_total = sum(durations(spans, "columnar.kernel"))
    adjust_total = sum(s[2] - s[1] for _, s in adjusts)
    out["columnar.encode_decode_ms"] = sum(
        s[2] - s[1] - _child_time(spans, children, i, {"columnar.kernel"}) for i, s in adjusts
    ) * per_op
    out["columnar.kernel_share"] = kernel_total / adjust_total if adjust_total else 0.0
    pieces = [s[5] for s in spans if s[0] == "columnar.kernel" and s[5] is not None]
    out["columnar.pieces"] = statistics.mean(pieces) if pieces else 0.0
    sizes = [s[5] for s in spans if s[0] == "storage.checkpoint" and s[5] is not None]
    out["storage.snapshot_bytes"] = _median(sizes)

    commits = delta.get("txn.commits", 0)
    appends = [s[5] for s in spans if s[0] == "wal.append" and s[5] is not None]
    out["wal.records"] = len(appends) / commits if commits else 0.0
    out["wal.bytes"] = sum(appends) / commits if commits else 0.0
    fsyncs = delta.get("wal.fsync_seconds.count", 0)
    out["wal.fsync_ms"] = (delta.get("wal.fsync_seconds.sum", 0.0) / fsyncs * 1000.0 * scale
                           if fsyncs else 0.0)
    conflicts = delta.get("txn.conflicts", 0)
    out["txn.commits"] = commits
    out["txn.conflicts"] = conflicts
    out["txn.conflict_ratio"] = conflicts / (commits + conflicts) if commits + conflicts else 0.0

    for strategy in ("row", "columnar", "exchange"):
        out[f"planner.strategy_{strategy}"] = delta.get(f"planner.strategy{{{strategy}}}", 0)
    hits = delta.get("relation.derived{hit}", 0)
    misses = delta.get("relation.derived{miss}", 0)
    out["relation.derived_hit"] = hits
    out["relation.derived_miss"] = misses
    out["relation.derived_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["views.refresh_incremental"] = delta.get("view.refresh{incremental}", 0)
    out["views.refresh_recompute"] = delta.get("view.refresh{recompute}", 0)
    return out


def recovery_metrics(spans: Sequence[Span], scale: float) -> Dict[str, float]:
    """Snapshot load and WAL replay, median per recovery."""
    ms = 1000.0 * scale
    children = _children(spans)
    recovers = [(i, s) for i, s in enumerate(spans) if s[0] == "storage.recover"]
    loads = [_child_time(spans, children, i, {"storage.snapshot_load"}) for i, _ in recovers]
    return {
        "storage.snapshot_load_ms": _median(loads) * ms,
        "storage.wal_replay_ms": _median([
            s[2] - s[1] - load for (_, s), load in zip(recovers, loads)]) * ms,
    }


def operator_metrics(clock: Optional[OperatorClock], executions: int, scale: float
                     ) -> Dict[str, float]:
    """Operator self time per execution (0 where no operators were timed)."""
    seconds = clock.bucket_seconds() if clock is not None else {}
    per_run = 1000.0 * scale / max(executions, 1)
    return {f"executor.{bucket}_self_ms": seconds.get(bucket, 0.0) * per_run
            for bucket, _names in OPERATOR_BUCKETS}


#: Per-layer metrics only the served workload exercises.
SERVING_ONLY = (
    "client.begin_ms", "client.dml_ms", "client.commit_ms", "client.select_ms",
    "client.view_select_ms", "server.statement_ms", "server.encode_ms",
    "server.wire_ms", "server.loop_busy_share",
)


def client_server_zeros() -> Dict[str, float]:
    """The serving-path figures of a workload that makes no requests."""
    return {name: 0.0 for name in SERVING_ONLY}
