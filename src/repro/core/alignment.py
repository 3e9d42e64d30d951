"""Temporal alignment ``r Φθ s`` (Def. 11).

Alignment adjusts the timestamps of ``r`` with respect to ``s`` and a θ
condition over nontemporal attributes: every ``r``-tuple is replaced by

* one tuple per matching, overlapping ``s``-tuple, timestamped with the
  intersection of the two intervals, and
* one tuple per maximal sub-interval of the ``r``-tuple's timestamp that is
  not covered by any matching ``s``-tuple.

After aligning both arguments against each other, matching tuples have equal
timestamps (Proposition 3), so the tuple-based operators
{σ, ×, ⋈, ⟕, ⟖, ⟗, ▷} reduce to their nontemporal counterparts with an
additional equality predicate on the adjusted timestamps.

The group construction uses the overlap sweep of :mod:`repro.core.sweep`
(matching the sort-merge strategy of the kernel implementation); an optional
pair of equality keys restricts candidates the same way an equi-θ lets the
PostgreSQL optimizer pick a hash or merge join.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.columnar import encoding, kernels
from repro.columnar.encoding import ColumnarUnsupported
from repro.core import parallel as parallel_support
from repro.core.primitives import align_tuple
from repro.core.sweep import KeyFunction, ThetaPredicate, overlap_groups, value_key
from repro.relation.relation import TemporalRelation
from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval


ALIGN_STRATEGIES = ("auto", "sweep", "index", "parallel", "columnar")


def align_relation(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate] = None,
    equi_attributes: Optional[Sequence[str]] = None,
    reference_equi_attributes: Optional[Sequence[str]] = None,
    strategy: str = "auto",
    workers: Optional[int] = None,
) -> TemporalRelation:
    """Compute the temporal alignment ``relation Φθ reference``.

    Parameters
    ----------
    relation, reference:
        The argument relations; the result keeps the schema of ``relation``.
    theta:
        Predicate over one tuple of each relation (nontemporal attributes
        only — reference the propagated ``U`` attribute for conditions on the
        original timestamps).  ``None`` means ``true``.
    equi_attributes, reference_equi_attributes:
        Optional equality key: when given, only pairs whose key values match
        are considered (candidates are hash-partitioned before the sweep).
        This is the analogue of handing an equi-join θ to the optimizer.
    strategy:
        How the overlap groups are built.  ``"sweep"`` re-runs the event
        sweep over both inputs (right for one-shot calls); ``"index"`` probes
        the reference's cached
        :class:`~repro.temporal.interval_index.IntervalIndex`, building it on
        first use — the right choice when many relations are aligned against
        one shared reference; ``"parallel"`` hash-partitions both inputs on
        the equality key and sweeps the partitions through a worker pool
        (in-process below :func:`repro.core.parallel.min_pool_tuples` input
        tuples, or when the θ predicate cannot be shipped to workers);
        ``"columnar"`` encodes both relations into int64 endpoint arrays with
        dictionary-encoded keys and runs the vectorized batch kernels of
        :mod:`repro.columnar`; with an opaque θ the overlap join still runs
        vectorized and the θ filter plus per-group aligner run in row mode,
        and bounds outside ``int64`` fall back to ``"sweep"``.
        ``"auto"`` (default) probes the index when the reference already has
        one cached, so repeated callers keep the amortised path without a
        flag; otherwise it picks ``"columnar"`` when θ is absent (an equality
        key is captured by the encoding) and ``"sweep"`` for an opaque θ.
    workers:
        Pool size for the ``"parallel"`` strategy (default: the
        ``REPRO_PARALLEL_WORKERS`` environment variable, else the CPU
        count).  Ignored by the other strategies.

    Notes
    -----
    Only ``s``-tuples whose interval overlaps the ``r``-tuple can contribute
    to the adjusted timestamps (the intersection would otherwise be empty and
    non-overlapping tuples create no gaps), so the group construction may
    safely require overlap — exactly what the kernel join in Fig. 8 does.
    All strategies produce the same relation.
    """
    if strategy not in ALIGN_STRATEGIES:
        raise ValueError(f"unknown alignment strategy {strategy!r}; use one of {ALIGN_STRATEGIES}")

    # An empty key list restricts nothing — treat it exactly like "no key",
    # so every strategy (notably the indexed paths, whose plain-vs-keyed
    # index flavour follows the attribute list) agrees on the semantics.
    if not equi_attributes:
        equi_attributes = None
        reference_equi_attributes = None

    # The reference side's key attributes drive both the sweep's hash
    # partition and the keyed index, so compute them exactly once.
    left_key: Optional[KeyFunction] = None
    right_key: Optional[KeyFunction] = None
    index_attrs: Sequence[str] = ()
    if equi_attributes is not None:
        index_attrs = (
            reference_equi_attributes if reference_equi_attributes is not None else equi_attributes
        )
        left_key = value_key(equi_attributes)
        right_key = value_key(index_attrs)

    if strategy == "parallel":
        return _align_parallel(
            relation, reference, theta, equi_attributes, index_attrs, workers
        )
    indexed = strategy == "auto" and reference.has_interval_index(index_attrs)
    if strategy == "columnar" or (strategy == "auto" and theta is None and not indexed):
        try:
            return _align_columnar(relation, reference, theta, equi_attributes, index_attrs)
        except ColumnarUnsupported:
            pass  # bounds outside int64: the sweep below handles any int

    index = None
    if strategy == "index" or indexed:
        index = reference.interval_index(index_attrs)

    groups = overlap_groups(
        relation.tuples(),
        reference.tuples(),
        theta=theta,
        left_key=left_key,
        right_key=right_key,
        index=index,
    )

    result = TemporalRelation(relation.schema)
    for r, group in zip(relation, groups):
        for piece in align_tuple(r.interval, [g.interval for g in group]):
            result.add(r.with_interval(piece))
    return result


# -- the columnar strategy ----------------------------------------------------


def _align_columnar(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate],
    equi_attributes: Optional[Sequence[str]],
    reference_equi_attributes: Sequence[str],
) -> TemporalRelation:
    """``align_relation`` over the columnar encoding (see :mod:`repro.columnar`).

    Both relations are encoded once (cached on ``derived``, invalidated by
    the ``_after_mutation`` funnel) and the whole alignment — overlap join,
    intersection/gap generation, deduplication — runs as array kernels;
    tuples materialise only here, at the boundary.  An opaque θ cannot be
    vectorized: the kernel then only enumerates the candidate pairs and each
    group is filtered and aligned in row mode, which preserves the exact
    semantics of the sweep strategies.
    """
    left_frame = encoding.encode_relation(relation, equi_attributes or ())
    right_frame = encoding.encode_relation(reference, reference_equi_attributes)
    left_codes = encoding.remap_codes(left_frame, right_frame)
    left_tuples = relation.tuples()

    result = TemporalRelation(relation.schema)
    if theta is None:
        rows, starts, ends = kernels.align_pieces(
            left_frame.starts,
            left_frame.ends,
            left_codes,
            right_frame.starts,
            right_frame.ends,
            right_frame.codes,
        )
        add = result.add
        for i, start, end in zip(rows, starts, ends):
            add(left_tuples[i].with_interval(Interval(start, end)))
        return result

    # Opaque θ: vectorized candidate enumeration, row mode per group.
    li, ri = kernels.overlap_pairs(
        left_frame.starts,
        left_frame.ends,
        left_codes,
        right_frame.starts,
        right_frame.ends,
        right_frame.codes,
    )
    right_tuples = reference.tuples()
    groups: List[List[Interval]] = [[] for _ in left_tuples]
    for i, j in zip(li, ri):
        if theta(left_tuples[i], right_tuples[j]):
            groups[i].append(right_tuples[j].interval)
    for r, group in zip(left_tuples, groups):
        for piece in align_tuple(r.interval, group):
            result.add(r.with_interval(piece))
    return result


# -- the parallel strategy ----------------------------------------------------


def _align_partition_worker(payload: Tuple[Any, ...]) -> List[Tuple[int, List[Interval]]]:
    """Align the argument tuples of one partition (runs in a pool worker).

    The payload carries full :class:`TemporalTuple` values (they pickle via
    ``__reduce__``) because the residual θ predicate needs them; the result
    only carries the adjusted intervals, keyed by the argument tuple's
    position in the original relation so the parent can merge
    deterministically.
    """
    theta, equi_attributes, reference_equi_attributes, left_items, right_tuples = payload
    # Hash buckets can hold several distinct keys (collisions), so the
    # within-partition sweep still restricts candidates by the equality key.
    left_key = value_key(equi_attributes) if equi_attributes is not None else None
    right_key = (
        value_key(reference_equi_attributes) if equi_attributes is not None else None
    )
    lefts = [item[1] for item in left_items]
    groups = overlap_groups(
        lefts, right_tuples, theta=theta, left_key=left_key, right_key=right_key
    )
    pieces: List[Tuple[int, List[Interval]]] = []
    for (index, r), group in zip(left_items, groups):
        pieces.append((index, align_tuple(r.interval, [g.interval for g in group])))
    return pieces


def _align_parallel(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate],
    equi_attributes: Optional[Sequence[str]],
    reference_equi_attributes: Sequence[str],
    workers: Optional[int],
) -> TemporalRelation:
    """``align_relation`` with hash-partitioned, pool-executed sweeps.

    Partitioning on the equality key is lossless: a reference tuple can only
    belong to an argument tuple's group when the keys are equal, so both land
    in the same partition and every partition alignment is self-contained.
    Without an equality key everything collapses into a single partition and
    the strategy degenerates to the serial sweep.
    """
    worker_count = parallel_support.resolve_workers(workers)
    partition_count = max(1, worker_count * 4)

    left_tuples = relation.tuples()
    right_tuples = reference.tuples()
    left_keys = [
        t.values_of(equi_attributes) if equi_attributes is not None else () for t in left_tuples
    ]
    right_keys = [
        t.values_of(reference_equi_attributes) if equi_attributes is not None else ()
        for t in right_tuples
    ]
    left_buckets = parallel_support.partition_items(
        list(enumerate(left_tuples)),
        parallel_support.partition_indexes(left_keys, partition_count),
        partition_count,
    )
    right_buckets = parallel_support.partition_items(
        right_tuples,
        parallel_support.partition_indexes(right_keys, partition_count),
        partition_count,
    )

    equi = tuple(equi_attributes) if equi_attributes is not None else None
    ref_equi = tuple(reference_equi_attributes) if equi_attributes is not None else None
    payloads = [
        (theta, equi, ref_equi, left_bucket, right_bucket)
        for left_bucket, right_bucket in zip(left_buckets, right_buckets)
        if left_bucket
    ]
    results = parallel_support.parallel_map(
        _align_partition_worker,
        payloads,
        workers=worker_count,
        total_items=len(left_tuples) + len(right_tuples),
    )

    pieces_by_index = {}
    for partition_pieces in results:
        for index, intervals in partition_pieces:
            pieces_by_index[index] = intervals
    result = TemporalRelation(relation.schema)
    for index, r in enumerate(left_tuples):
        for piece in pieces_by_index.get(index, ()):
            result.add(r.with_interval(piece))
    return result


def align_pair(
    left: TemporalRelation,
    right: TemporalRelation,
    theta: Optional[ThetaPredicate] = None,
    left_equi_attributes: Optional[Sequence[str]] = None,
    right_equi_attributes: Optional[Sequence[str]] = None,
) -> Tuple[TemporalRelation, TemporalRelation]:
    """Align two relations against each other (both directions).

    Returns ``(left Φθ right, right Φθ' left)`` where ``θ'`` swaps the
    argument order of ``theta``.  This is the preparation step shared by all
    tuple-based reduction rules.
    """
    if theta is None:
        swapped: Optional[ThetaPredicate] = None
    else:
        def swapped(s: TemporalTuple, r: TemporalTuple) -> bool:
            return theta(r, s)

    aligned_left = align_relation(
        left,
        right,
        theta,
        equi_attributes=left_equi_attributes,
        reference_equi_attributes=right_equi_attributes,
    )
    aligned_right = align_relation(
        right,
        left,
        swapped,
        equi_attributes=right_equi_attributes,
        reference_equi_attributes=left_equi_attributes,
    )
    return aligned_left, aligned_right


def alignment_cardinality_bound(n: int, m: int) -> int:
    """The upper bound of Lemma 1: ``|r Φθ s| ≤ 2·n·m + n``."""
    return 2 * n * m + n
