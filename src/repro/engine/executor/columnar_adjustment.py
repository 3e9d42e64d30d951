"""Columnar batch execution of an adjustment (ALIGN/NORMALIZE) subtree.

Where the serial plan streams a group-construction join through project,
sort and the plane sweep (Fig. 12(b)), :class:`ColumnarAdjustmentNode`
materialises both inputs once, encodes their interval bounds and equality
keys into arrays, and produces the full output in one batched kernel pass
(:mod:`repro.columnar`).  The planner picks it for every condition that is
a pure equality (anything else needs per-row evaluation), and it appears in
``EXPLAIN`` as ``ColumnarAdjustment(...)``, so the row/column dispatch is as
visible as the join-strategy choice.

Correctness never depends on the choice: if the materialised rows cannot be
batch-encoded (bounds that are not integers or do not fit ``int64``), the
node transparently re-runs the equivalent serial row pipeline over the
same rows, exactly like the partition-parallel executor falls back
in-process.  A traced execution
(``EXPLAIN ANALYZE``) annotates the span with which path executed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.columnar.rows import ColumnarUnsupported, adjust_rows_columnar
from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.executor.partition import AdjustmentTask, run_adjustment_task
from repro.obs import trace as obs_trace


class ColumnarAdjustmentNode(PhysicalNode):
    """Batch-execute one adjustment over two materialised inputs.

    Parameters
    ----------
    left:
        Producer of the argument rows (the ``r`` side; its columns are the
        output columns with the interval bounds adjusted).
    right:
        Producer of the reference rows — the raw reference input for
        alignment, the split-point projection for normalization (the same
        shape the serial pipeline consumes).
    task:
        The :class:`AdjustmentTask` describing bounds, keys and kind; shared
        with the partition-parallel executor so the row-pipeline fallback is
        literally the serial plan over the same rows.
    """

    def __init__(self, left: PhysicalNode, right: PhysicalNode, task: AdjustmentTask):
        columns = list(task.left_columns[: task.group_width])
        super().__init__(columns, [left, right])
        self.left = left
        self.right = right
        self.task = task

    def rows(self) -> Iterator[Row]:
        left_rows = list(self.left)
        right_rows = list(self.right)
        try:
            result = adjust_rows_columnar(self.task, left_rows, right_rows)
            mode = "columnar"
        except ColumnarUnsupported:
            mode = "row-fallback"
            result = run_adjustment_task(
                replace(self.task, use_columnar=False), left_rows, right_rows
            )
        # Recorded on the trace span (``executed=columnar|row-fallback``),
        # never on the node, so a silently degraded batch is visible in
        # EXPLAIN ANALYZE without leaking state between executions.
        obs_trace.annotate(self, executed=mode)
        yield from result

    def describe(self) -> str:
        kind = "align" if self.task.isalign else "normalize"
        return f"ColumnarAdjustment({kind}, keys={len(self.task.key_pairs)})"
