"""Cost model.

Costs are abstract units combining per-row CPU work; they only need to order
alternative plans correctly, not predict wall-clock time.  The estimates for
the two temporal nodes follow Sec. 6.2/6.3 of the paper literally:

* alignment: ``numRows = 3 · input rows``,
  ``cost = input cost + 2 · cpu_op_cost · input rows · numCols``;
* normalization: ``numRows = 2 · input rows``,
  ``cost = input cost + cpu_op_cost · input rows · numCols``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.engine.optimizer.settings import Settings


@dataclass
class Estimate:
    """Estimated output cardinality and total cost of a (sub)plan."""

    rows: float
    cost: float


def scan_cost(settings: Settings, rows: int) -> Estimate:
    return Estimate(rows=float(rows), cost=rows * settings.seq_scan_cost_per_row)


def filter_cost(settings: Settings, child: Estimate, selectivity: float) -> Estimate:
    rows = max(1.0, child.rows * selectivity)
    return Estimate(rows=rows, cost=child.cost + settings.cpu_operator_cost * child.rows)


def project_cost(settings: Settings, child: Estimate, width: int) -> Estimate:
    return Estimate(
        rows=child.rows,
        cost=child.cost + settings.cpu_operator_cost * child.rows * max(1, width),
    )


def sort_cost(settings: Settings, child: Estimate) -> Estimate:
    rows = max(2.0, child.rows)
    return Estimate(
        rows=child.rows,
        cost=child.cost + settings.cpu_operator_cost * rows * math.log2(rows),
    )


def join_output_rows(
    settings: Settings, left: Estimate, right: Estimate, has_equality: bool, kind: str
) -> float:
    if kind == "cross":
        return left.rows * right.rows
    selectivity = settings.equality_selectivity if has_equality else settings.default_selectivity
    rows = left.rows * right.rows * selectivity
    if kind in ("left", "full", "anti", "semi"):
        rows = max(rows, left.rows)
    if kind in ("right", "full"):
        rows = max(rows, right.rows)
    return max(1.0, rows)


def nested_loop_cost(settings: Settings, left: Estimate, right: Estimate, rows: float) -> Estimate:
    return Estimate(
        rows=rows,
        cost=left.cost
        + right.cost
        + settings.cpu_operator_cost * left.rows * max(1.0, right.rows)
        + settings.cpu_tuple_cost * rows,
    )


def hash_join_cost(settings: Settings, left: Estimate, right: Estimate, rows: float) -> Estimate:
    return Estimate(
        rows=rows,
        cost=left.cost
        + right.cost
        + settings.cpu_operator_cost * (left.rows + right.rows)
        + settings.cpu_tuple_cost * rows,
    )


def merge_join_cost(settings: Settings, left: Estimate, right: Estimate, rows: float) -> Estimate:
    def sort_term(estimate: Estimate) -> float:
        n = max(2.0, estimate.rows)
        return settings.cpu_operator_cost * n * math.log2(n)

    return Estimate(
        rows=rows,
        cost=left.cost
        + right.cost
        + sort_term(left)
        + sort_term(right)
        + settings.cpu_tuple_cost * rows,
    )


def overlap_join_rows(
    settings: Settings,
    left: Estimate,
    right: Estimate,
    kind: str,
    selectivity: Optional[float] = None,
) -> float:
    """Output estimate of the overlap-shaped group-construction join.

    ``selectivity`` is the estimated fraction of row pairs whose intervals
    overlap — ideally :func:`repro.engine.statistics.overlap_selectivity`
    from table statistics, else the default non-equality selectivity.  Outer
    kinds keep at least one row per outer input row (the dangling ω rows of
    Fig. 8).
    """
    if selectivity is None:
        selectivity = settings.default_selectivity
    rows = left.rows * right.rows * selectivity
    if kind in ("left", "full", "anti", "semi"):
        rows = max(rows, left.rows)
    if kind in ("right", "full"):
        rows = max(rows, right.rows)
    return max(1.0, rows)


def interval_probe_join_cost(
    settings: Settings, left: Estimate, right: Estimate, rows: float
) -> Estimate:
    """Indexed overlap probe: sort/index the inner side once, probe per outer row.

    ``O(m log m)`` build plus ``O(log m)`` per outer row plus the output —
    the indexed-nested-loop analogue for the overlap predicate.
    """
    m = max(2.0, right.rows)
    n = max(1.0, left.rows)
    log_m = math.log2(m)
    return Estimate(
        rows=rows,
        cost=left.cost
        + right.cost
        + settings.cpu_operator_cost * (m * log_m + n * log_m)
        + settings.cpu_tuple_cost * rows,
    )


def interval_sweep_join_cost(
    settings: Settings, left: Estimate, right: Estimate, rows: float
) -> Estimate:
    """Event-based plane sweep over both inputs: sort both, sweep once.

    ``O((n+m) log(n+m) + output)`` — the sort-merge analogue for the overlap
    predicate (what :mod:`repro.core.sweep` implements natively).
    """
    total = max(2.0, left.rows + right.rows)
    return Estimate(
        rows=rows,
        cost=left.cost
        + right.cost
        + settings.cpu_operator_cost * total * math.log2(total)
        + settings.cpu_tuple_cost * rows,
    )


def aggregate_cost(settings: Settings, child: Estimate, groups_hint: float = 0.1) -> Estimate:
    rows = max(1.0, child.rows * groups_hint)
    return Estimate(rows=rows, cost=child.cost + settings.cpu_operator_cost * child.rows)


def distinct_cost(settings: Settings, child: Estimate) -> Estimate:
    return Estimate(rows=max(1.0, child.rows * 0.9),
                    cost=child.cost + settings.cpu_operator_cost * child.rows)


def setop_cost(settings: Settings, left: Estimate, right: Estimate, kind: str) -> Estimate:
    rows = left.rows + right.rows if kind in ("union", "union_all") else left.rows
    return Estimate(
        rows=max(1.0, rows),
        cost=left.cost + right.cost + settings.cpu_operator_cost * (left.rows + right.rows),
    )


def alignment_cost(settings: Settings, child: Estimate, width: int) -> Estimate:
    """Sec. 6.2: every input tuple can produce up to three output tuples."""
    rows = 3.0 * child.rows
    return Estimate(
        rows=max(1.0, rows),
        cost=child.cost + 2 * settings.cpu_operator_cost * child.rows * max(1, width),
    )


def normalization_cost(settings: Settings, child: Estimate, width: int) -> Estimate:
    """Sec. 6.3: every split point can produce up to two output tuples."""
    rows = 2.0 * child.rows
    return Estimate(
        rows=max(1.0, rows),
        cost=child.cost + settings.cpu_operator_cost * child.rows * max(1, width),
    )


def ship_cost_per_row(settings: Settings, ship: str) -> float:
    """Per-row transport cost of moving tuples between parent and workers.

    ``"pickle"`` charges ``parallel_pickle_cost`` — every shipped row is
    serialised in the parent and deserialised in the worker (and the result
    rows pay the same toll coming back).  ``"shm"`` charges
    ``parallel_shm_cost`` — the row's endpoints/codes are already ``int64``
    array entries, publishing them is a vectorized copy into a shared
    segment and workers attach zero-copy, so the per-row cost collapses to
    near zero.  This asymmetry is the whole reason the shared-memory
    transport flips the parallel plans from a regression into a win.
    """
    return settings.parallel_shm_cost if ship == "shm" else settings.parallel_pickle_cost


def partition_cost(settings: Settings, child: Estimate, ship: str = "pickle") -> Estimate:
    """Partitioning a child and shipping its partitions to the workers.

    The pickled-row transport pays one stable key hash per row
    (``cpu_operator_cost``) plus the per-row pickling toll; the
    shared-memory transport partitions by dictionary key code with a single
    vectorized take — no per-row hashing — so it pays only the (near-zero)
    columnar ship cost.
    """
    per_row = ship_cost_per_row(settings, ship)
    if ship != "shm":
        per_row += settings.cpu_operator_cost  # per-row key hashing
    return Estimate(rows=child.rows, cost=child.cost + per_row * child.rows)


def parallel_adjustment_cost(
    settings: Settings,
    left: Estimate,
    right: Estimate,
    serial: Estimate,
    workers: int,
    ship: str = "pickle",
) -> Estimate:
    """Cost of the partition-parallel ALIGN/NORMALIZE plan.

    The inputs are produced once (their cost is not parallelised); the
    adjustment work above them — join, project, sort, sweep, which is what
    ``serial`` charges on top of its inputs — divides across the workers.
    On top come the partition-and-ship pass over both inputs *and* the
    shipped result rows (:func:`ship_cost_per_row` — this is where the
    pickled-row transport loses and the shared-memory transport wins), a
    fixed start-up cost per worker (PostgreSQL's ``parallel_setup_cost``)
    and a per-tuple merge cost (``parallel_tuple_cost``).  Because the row
    estimates feeding ``serial`` come from :func:`overlap_join_rows` — i.e.
    from interval statistics where available — the gate sharpens with
    better statistics.
    """
    workers = max(1, workers)
    input_cost = left.cost + right.cost
    work = max(0.0, serial.cost - input_cost)
    shipped_rows = left.rows + right.rows + serial.rows  # both directions
    per_row = ship_cost_per_row(settings, ship)
    partition_pass = (
        0.0 if ship == "shm" else settings.cpu_operator_cost * (left.rows + right.rows)
    )
    total = (
        input_cost
        + partition_pass
        + per_row * shipped_rows
        + work / workers
        + settings.parallel_setup_cost * workers
        + settings.parallel_tuple_cost * serial.rows
    )
    return Estimate(rows=serial.rows, cost=total)


def view_scan_cost(settings: Settings, rows: float) -> Estimate:
    """Scanning a materialized view: emit the stored tuples, nothing else.

    This is what makes a fresh view beat re-running the adjustment pipeline
    it replaces — the scan pays neither the group-construction join nor the
    sweep.
    """
    rows = max(1.0, rows)
    return Estimate(rows=rows, cost=settings.cpu_tuple_cost * rows)


def incremental_maintenance_cost(
    settings: Settings, pending: int, base_rows: int, reference_rows: int
) -> Estimate:
    """Cost of folding ``pending`` deltas into a materialized adjustment view.

    Each delta pays two index probes (finding the affected overlap groups on
    one side, recomputing fragments against the other) plus a fixed
    bookkeeping overhead (``Settings.view_delta_overhead``).  Deliberately
    pessimistic about fan-out so that near-full-relation delta batches lose
    against :func:`full_recompute_cost` and the catalog falls back.
    """
    n = max(2.0, float(base_rows))
    m = max(2.0, float(reference_rows))
    per_delta = math.log2(n) + math.log2(m) + settings.view_delta_overhead
    return Estimate(
        rows=float(pending), cost=settings.cpu_operator_cost * pending * per_delta
    )


def full_recompute_cost(settings: Settings, base_rows: int, reference_rows: int) -> Estimate:
    """Cost of rebuilding a materialized adjustment view from scratch.

    The sweep bound of the native strategies — ``O((n+m) log(n+m))`` group
    construction plus the ≤3·n output tuples of the alignment estimate
    (Sec. 6.2).
    """
    total = max(2.0, float(base_rows) + float(reference_rows))
    rows = 3.0 * max(1.0, float(base_rows))
    return Estimate(
        rows=rows,
        cost=settings.cpu_operator_cost * total * math.log2(total)
        + settings.cpu_tuple_cost * rows,
    )


def maintenance_strategy(
    settings: Settings, pending: int, base_rows: int, reference_rows: int
) -> str:
    """Decide ``"incremental"`` vs ``"recompute"`` for a stale view.

    The staleness threshold of the view catalog is not a magic constant but
    this cost comparison — better statistics (or tuned cost constants)
    sharpen it exactly like they sharpen join choice.
    """
    if pending <= 0:
        return "incremental"
    incremental = incremental_maintenance_cost(settings, pending, base_rows, reference_rows)
    recompute = full_recompute_cost(settings, base_rows, reference_rows)
    return "incremental" if incremental.cost < recompute.cost else "recompute"


def absorb_cost(settings: Settings, child: Estimate) -> Estimate:
    return Estimate(rows=child.rows, cost=child.cost + settings.cpu_operator_cost * child.rows)


def limit_cost(settings: Settings, child: Estimate, count: int) -> Estimate:
    rows = min(child.rows, float(count))
    return Estimate(rows=rows, cost=child.cost)
