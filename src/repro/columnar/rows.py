"""Engine adapter: run an :class:`AdjustmentTask` through the columnar kernels.

The partition-parallel executor describes the serial per-partition pipeline
(``join → project → sort → plane sweep``) as a picklable ``AdjustmentTask``;
this module executes the *same contract* as whole-array kernels: given the
task plus the raw rows of both inputs it returns exactly the rows the row
pipeline would produce — same values, same order (left rows sorted by the
engine's comparator, pieces in sweep order), same treatment of duplicate
left rows (the pipeline's partition sort makes them one group) and of null
join keys (an equality θ over ``ω`` is false, so such rows stay dangling).

:exc:`ColumnarUnsupported` signals inputs the encoding cannot batch
(interval bounds that are not integers or do not fit ``int64``); callers
then fall back to the row pipeline, so adopting a columnar plan can never
change a query's result.
"""

from __future__ import annotations

import functools
from typing import Any, List, Sequence, Tuple

from repro.columnar import kernels
from repro.columnar.encoding import NO_MATCH, ColumnarUnsupported, int64_column
from repro.relation.tuple import is_null

Row = Tuple[Any, ...]


def _row_compare(left: Row, right: Row) -> int:
    from repro.engine.executor.sort import _compare_values

    for a, b in zip(left, right):
        result = _compare_values(a, b)
        if result != 0:
            return result
    return 0


def _sorted_unique(rows: Sequence[Row]) -> List[Row]:
    """Left rows in the engine sort order, exact duplicates collapsed.

    Plain tuple comparison is the fast path; heterogeneous columns fall back
    to the executor's total order (type-name tie-break), keeping the output
    order identical to the serial plan's partition sort.
    """
    ordered = list(rows)
    try:
        ordered.sort()
    except TypeError:
        ordered.sort(key=functools.cmp_to_key(_row_compare))
    unique: List[Row] = []
    for row in ordered:
        if not unique or row != unique[-1]:
            unique.append(row)
    return unique


def _bound_column(rows: Sequence[Row], index: int) -> Any:
    """Interval-bound column as ``int64``; raises when it cannot be batched."""
    values: List[int] = []
    for row in rows:
        value = row[index]
        if is_null(value) or not isinstance(value, int):
            raise ColumnarUnsupported(
                f"interval bound at column {index} is {value!r}, not an integer"
            )
        values.append(value)
    return int64_column(values)


def _key_codes(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    key_pairs: Sequence[Tuple[int, int]],
) -> Tuple[List[int], List[int]]:
    """Dictionary-encode the equality keys of both sides into shared codes.

    A key containing ``ω`` gets the no-match code on either side: an equality
    comparison over null is false in this engine, so such rows join nothing —
    they must stay dangling, not meet other null keys.
    """
    if not key_pairs:
        return [0] * len(left_rows), [0] * len(right_rows)
    left_indexes = [i for i, _ in key_pairs]
    right_indexes = [j for _, j in key_pairs]
    key_index: dict = {}
    right_codes: List[int] = []
    for row in right_rows:
        key = tuple(row[j] for j in right_indexes)
        if any(is_null(v) for v in key):
            right_codes.append(NO_MATCH)
        else:
            right_codes.append(key_index.setdefault(key, len(key_index)))
    left_codes: List[int] = []
    for row in left_rows:
        key = tuple(row[i] for i in left_indexes)
        if any(is_null(v) for v in key):
            left_codes.append(NO_MATCH)
        else:
            left_codes.append(key_index.get(key, NO_MATCH))
    return left_codes, right_codes


def adjust_rows_columnar(
    task, left_rows: Sequence[Row], right_rows: Sequence[Row]
) -> List[Row]:
    """Run one adjustment task (align or normalize) through the kernels.

    Args:
        task: An :class:`~repro.engine.executor.partition.AdjustmentTask`;
            only its structural fields are read, so any object with the same
            attributes works.
        left_rows: Rows of the argument input (``group_width`` columns).
        right_rows: Rows of the reference input — the raw reference for
            alignment, the split-point projection for normalization.

    Returns:
        The rows the serial row pipeline would produce, in its order.

    Raises:
        ColumnarUnsupported: When a bound column cannot be batch-encoded.
    """
    unique = _sorted_unique(left_rows)
    l_starts = _bound_column(unique, task.ts_index)
    l_ends = _bound_column(unique, task.te_index)

    if task.isalign:
        right_ts, right_te = task.bounds[2], task.bounds[3]
        # Rows with null bounds never satisfy the overlap condition: drop
        # them before encoding (the serial join filters them the same way).
        usable = [
            row
            for row in right_rows
            if not (is_null(row[right_ts]) or is_null(row[right_te]))
        ]
        l_codes, r_codes = _key_codes(unique, usable, task.key_pairs)
        rows_idx, starts, ends = kernels.align_pieces(
            l_starts,
            l_ends,
            l_codes,
            _bound_column(usable, right_ts),
            _bound_column(usable, right_te),
            r_codes,
            include_empty=True,
        )
    else:
        point_index = len(task.right_columns) - 1
        usable = [row for row in right_rows if not is_null(row[point_index])]
        l_codes, r_codes = _key_codes(unique, usable, task.key_pairs)
        rows_idx, starts, ends = kernels.normalize_pieces(
            l_starts,
            l_ends,
            l_codes,
            _bound_column(usable, point_index),
            r_codes,
        )

    ts_index, te_index = task.ts_index, task.te_index
    output: List[Row] = []
    for i, start, end in zip(rows_idx, starts, ends):
        values = list(unique[i])
        values[ts_index] = start
        values[te_index] = end
        output.append(tuple(values))
    return output
