"""Planner settings (the engine's ``SET enable_... = false`` switches).

The paper's kernel-integration experiment (Fig. 13) toggles PostgreSQL's
``enable_mergejoin`` and ``enable_hashjoin`` switches to show that the
group-construction join inside normalization/alignment is planned like any
other join.  The same switches exist here and are honoured by the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class Settings:
    """Optimizer switches and cost constants."""

    #: Allow nested-loop joins (always used as a fallback when nothing else fits).
    enable_nestloop: bool = True
    #: Allow hash joins for equality conditions.
    enable_hashjoin: bool = True
    #: Allow sort-merge joins for equality conditions.
    enable_mergejoin: bool = True
    #: Allow the interval strategies (indexed probe, plane sweep) for the
    #: overlap-shaped group-construction join of ``ALIGN`` (Sec. 6.1's custom
    #: join path; off reproduces a stock engine without interval support).
    enable_intervaljoin: bool = True

    #: Cost charged per tuple-level operation (PostgreSQL's ``cpu_operator_cost``).
    cpu_operator_cost: float = 0.0025
    #: Cost charged per emitted tuple (PostgreSQL's ``cpu_tuple_cost``).
    cpu_tuple_cost: float = 0.01
    #: Cost charged per scanned base-table row (stand-in for page I/O).
    seq_scan_cost_per_row: float = 0.01

    #: Default selectivity of a non-equality predicate.
    default_selectivity: float = 0.33
    #: Default selectivity of an equality predicate with unknown statistics.
    equality_selectivity: float = 0.005

    #: Worker pool size for partition-parallel ALIGN/NORMALIZE plans; values
    #: below 2 disable the parallel paths entirely (the PostgreSQL analogue is
    #: ``max_parallel_workers_per_gather``).  The parallel plan additionally
    #: requires an equality key in the θ-condition / the ``B`` attributes to
    #: partition on, and must win the cost comparison against the serial plan.
    parallel_workers: int = 0
    #: Hash partitions per parallel plan; 0 derives ``4 × parallel_workers``
    #: so the pool stays busy even when partition sizes are skewed.
    parallel_partitions: int = 0
    #: Fixed cost charged per launched worker (process start-up, task
    #: pickling) — PostgreSQL's ``parallel_setup_cost`` scaled to this cost
    #: model's units.
    parallel_setup_cost: float = 200.0
    #: Cost charged per merged output tuple (worker → consumer transfer) —
    #: PostgreSQL's ``parallel_tuple_cost`` analogue.
    parallel_tuple_cost: float = 0.002
    #: Minimum combined input cardinality before a parallel plan is even
    #: considered; below it the executor also stays in-process at runtime.
    parallel_min_rows: float = 1000.0
    #: Allow the shared-memory columnar transport for parallel plans: when a
    #: parallel adjustment runs with columnar kernels, partitions ship as
    #: zero-copy ``multiprocessing.shared_memory`` frames instead of pickled
    #: rows (see :mod:`repro.columnar.shm`).  The executor still falls back
    #: to pickled rows at runtime when shared memory is missing;
    #: ``REPRO_SHM=0`` forces the fallback without touching settings.
    enable_shm: bool = True
    #: Per-row transport cost of the pickled-row exchange: every row shipped
    #: to a worker (and every result row shipped back) pays Python
    #: serialisation.  This is what made the PR 2 parallel plans lose to
    #: serial execution while the old cost model said they would win.
    parallel_pickle_cost: float = 0.01
    #: Per-row transport cost of the shared-memory columnar exchange —
    #: near zero: rows travel as entries of already-encoded ``int64`` arrays
    #: published once per side, workers attach without copying.
    parallel_shm_cost: float = 0.0005

    #: Allow columnar batch execution of ALIGN/NORMALIZE: a
    #: ``ColumnarAdjustment`` node replacing the serial row pipeline, and
    #: columnar kernels inside partition-parallel workers.  Applies to every
    #: θ that is absent or a pure equality, at any input size; an opaque
    #: residual predicate cannot be batch-evaluated and keeps the row plan.
    enable_columnar: bool = True

    #: Allow the planner to substitute matching materialized views
    #: (``ViewScan`` nodes) for ALIGN/NORMALIZE subtrees and view-name scans.
    enable_viewscan: bool = True
    #: Fixed per-delta work assumed by the view-maintenance cost model on top
    #: of the logarithmic index probes (fragment rewrite, bookkeeping).  The
    #: crossover between incremental maintenance and full recompute moves
    #: with this constant: larger values make the optimizer fall back to
    #: recompute earlier.
    view_delta_overhead: float = 16.0

    #: Per-statement execution timeout in milliseconds; 0 disables.  Enforced
    #: cooperatively: the executor checks a thread-local deadline every few
    #: hundred produced rows (:mod:`repro.engine.deadline`), so a statement
    #: stuck inside one long vectorized kernel call overshoots — the knob
    #: bounds runaway row-at-a-time queries, it is not a hard preemption.
    statement_timeout_ms: float = 0.0

    def copy(self, **overrides: object) -> Settings:
        """Copy with some fields replaced (handy in benchmarks and tests)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line summary of the join switches (used in benchmark output)."""
        parts = []
        for name in ("nestloop", "hashjoin", "mergejoin", "intervaljoin"):
            parts.append(f"{name}={'on' if getattr(self, 'enable_' + name) else 'off'}")
        parts.append(f"parallel_workers={self.parallel_workers}")
        return ", ".join(parts)
