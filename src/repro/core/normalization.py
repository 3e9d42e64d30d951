"""Temporal normalization ``N_B(r; s)`` (Def. 9).

Normalization adjusts the timestamps of ``r`` with respect to ``s``: the
interval of every ``r``-tuple is split at each start and end point of the
``s``-tuples that agree with it on the ``B`` attributes.  After normalizing
both arguments against each other, any two tuples with matching ``B`` values
have timestamps that are either equal or disjoint (Propositions 1 and 2),
which lets the group-based operators {π, ϑ, ∪, −, ∩} compare timestamps with
plain equality.

The implementation mirrors the kernel algorithm of Sec. 6.3: the group of
each ``r``-tuple is built by joining ``r`` with the split points of ``s``
(equality on ``B``), and a sweep over the sorted split points produces the
adjusted tuples.  The native version here partitions by ``B`` with a hash
table and sweeps per group — equivalent to the hash-join strategy the
PostgreSQL optimizer picks for the group-construction join.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.columnar import encoding, kernels
from repro.columnar.encoding import ColumnarUnsupported
from repro.core import parallel as parallel_support
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.temporal.interval import Interval


NORMALIZE_STRATEGIES = ("auto", "sweep", "parallel", "columnar")


def normalize(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attributes: Sequence[str] = (),
    strategy: str = "auto",
    workers: Optional[int] = None,
) -> TemporalRelation:
    """Compute ``N_B(relation; reference)`` for ``B = attributes``.

    ``attributes`` must be nontemporal attributes common to both schemas;
    the empty sequence (``N_{}``) splits against *all* reference tuples,
    which is the most expensive case evaluated in Fig. 14.

    ``strategy`` selects how the per-group sweeps run: ``"sweep"`` partitions
    by ``B`` with a hash table and sweeps the groups serially;
    ``"parallel"`` hash-partitions both relations on the ``B`` key and runs
    the partition sweeps through a worker pool of ``workers`` processes
    (in-process for small inputs — see
    :func:`repro.core.parallel.min_pool_tuples`); ``"columnar"`` encodes the
    reference endpoints and the ``B`` keys into arrays and generates the
    split pieces with the vectorized batch kernels of :mod:`repro.columnar`
    (bounds outside ``int64`` fall back to ``"sweep"``); ``"auto"``
    (default) picks ``"columnar"``.  All strategies produce the same
    relation.

    The result keeps the schema of ``relation``.  Every result tuple is
    derived from exactly one input tuple (its lineage); change preservation
    of the group-based operators follows from splitting only at group
    boundaries.
    """
    if strategy not in NORMALIZE_STRATEGIES:
        raise ValueError(
            f"unknown normalization strategy {strategy!r}; use one of {NORMALIZE_STRATEGIES}"
        )
    attrs = tuple(attributes)
    if attrs and not relation.schema.has_attributes(attrs):
        raise SchemaError(f"normalization attributes {attrs} missing from {relation.schema!r}")
    if attrs and not reference.schema.has_attributes(attrs):
        raise SchemaError(f"normalization attributes {attrs} missing from {reference.schema!r}")

    if strategy == "parallel":
        return _normalize_parallel(relation, reference, attrs, workers)
    if strategy in ("auto", "columnar"):
        try:
            return _normalize_columnar(relation, reference, attrs)
        except ColumnarUnsupported:
            pass  # bounds outside int64: the sweep below handles any int

    split_points = _split_points_by_key(reference, attrs)

    result = TemporalRelation(relation.schema)
    for r in relation:
        key = r.values_of(attrs) if attrs else ()
        points = split_points.get(key, ())
        for piece in _split_interval(r.interval, points):
            result.add(r.with_interval(piece))
    return result


def _normalize_columnar(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attrs: Tuple[str, ...],
) -> TemporalRelation:
    """``normalize`` over the columnar encoding (see :mod:`repro.columnar`).

    The reference's endpoint/key arrays are encoded once (cached on
    ``derived`` exactly like the row-mode split points) and every argument
    interval is split against them in one batched
    ``searchsorted``/``repeat`` pass; tuples materialise only here at the
    boundary.
    """
    left_frame = encoding.encode_relation(relation, attrs)
    right_frame = encoding.encode_relation(reference, attrs)
    left_codes = encoding.remap_codes(left_frame, right_frame)
    left_tuples = relation.tuples()

    rows, starts, ends = kernels.normalize_pieces_from_intervals(
        left_frame.starts,
        left_frame.ends,
        left_codes,
        right_frame.starts,
        right_frame.ends,
        right_frame.codes,
    )
    result = TemporalRelation(relation.schema)
    add = result.add
    for i, start, end in zip(rows, starts, ends):
        add(left_tuples[i].with_interval(Interval(start, end)))
    return result


def _normalize_partition_worker(
    payload: Tuple[Any, ...],
) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """Split the argument intervals of one partition (runs in a pool worker).

    Tuple values never travel: the payload carries ``(index, key, start,
    end)`` for the argument side and ``(key, start, end)`` for the
    reference side, and the result is plain interval bounds per argument
    index — the cheapest possible wire format.
    """
    left_items, right_items = payload
    collected: Dict[Hashable, Set[int]] = defaultdict(set)
    for key, start, end in right_items:
        if start == end:  # empty interval: no split points
            continue
        collected[key].add(start)
        collected[key].add(end)
    split_points = {key: sorted(points) for key, points in collected.items()}

    pieces: List[Tuple[int, List[Tuple[int, int]]]] = []
    for index, key, start, end in left_items:
        intervals = _split_interval(Interval(start, end), split_points.get(key, ()))
        pieces.append((index, [(piece.start, piece.end) for piece in intervals]))
    return pieces


def _normalize_parallel(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attrs: Tuple[str, ...],
    workers: Optional[int],
) -> TemporalRelation:
    """``normalize`` with hash-partitioned, pool-executed splitting.

    Partitioning on the ``B`` key is lossless: only reference tuples that
    agree on ``B`` contribute split points to an argument tuple, and key
    equality implies same partition.  ``B = ()`` collapses into a single
    partition (the strategy then degenerates to the serial sweep).
    """
    worker_count = parallel_support.resolve_workers(workers)
    partition_count = max(1, worker_count * 4)

    left_tuples = relation.tuples()
    left_keys = [t.values_of(attrs) if attrs else () for t in left_tuples]
    right_items = [
        (t.values_of(attrs) if attrs else (), t.start, t.end) for t in reference.tuples()
    ]
    left_items = [
        (index, key, t.start, t.end)
        for (index, t), key in zip(enumerate(left_tuples), left_keys)
    ]
    left_buckets = parallel_support.partition_items(
        left_items,
        parallel_support.partition_indexes(left_keys, partition_count),
        partition_count,
    )
    right_buckets = parallel_support.partition_items(
        right_items,
        parallel_support.partition_indexes([item[0] for item in right_items], partition_count),
        partition_count,
    )

    payloads = [
        (left_bucket, right_bucket)
        for left_bucket, right_bucket in zip(left_buckets, right_buckets)
        if left_bucket
    ]
    results = parallel_support.parallel_map(
        _normalize_partition_worker,
        payloads,
        workers=worker_count,
        total_items=len(left_tuples) + len(right_items),
    )

    pieces_by_index = {}
    for partition_pieces in results:
        for index, bounds in partition_pieces:
            pieces_by_index[index] = bounds
    result = TemporalRelation(relation.schema)
    for index, r in enumerate(left_tuples):
        for start, end in pieces_by_index.get(index, ()):
            result.add(r.with_interval(Interval(start, end)))
    return result


def normalize_pair(
    left: TemporalRelation,
    right: TemporalRelation,
    attributes: Optional[Sequence[str]] = None,
) -> Tuple[TemporalRelation, TemporalRelation]:
    """Normalize two union-compatible relations against each other.

    This is the preparation step of the set-operator reduction rules:
    ``r −T s = N_A(r; s) − N_A(s; r)`` and analogously for union and
    intersection, where ``A`` is the full attribute list.
    """
    if attributes is None:
        if not left.schema.union_compatible_with(right.schema):
            raise SchemaError(
                "set operations require union compatible schemas; got "
                f"{left.schema!r} and {right.schema!r}"
            )
        attributes = left.schema.attribute_names
    return (
        normalize(left, right, attributes),
        normalize(right, left, attributes),
    )


def self_normalize(
    relation: TemporalRelation, attributes: Sequence[str] = ()
) -> TemporalRelation:
    """``N_B(r; r)`` — the form used by projection and aggregation."""
    return normalize(relation, relation, attributes)


# -- internals ----------------------------------------------------------------


def _split_points_by_key(
    reference: TemporalRelation, attributes: Tuple[str, ...]
) -> Dict[Hashable, List[int]]:
    """Sorted, de-duplicated start/end points of the reference, per B-key.

    This corresponds to the kernel's join against
    ``π_{B,Ts}(s) ∪ π_{B,Te}(s)`` (Sec. 6.3): only the endpoints matter for
    splitting, and imposing a total order on them gives the sweep constant
    memory per group.

    The result is cached on ``reference`` (see
    :meth:`~repro.relation.relation.TemporalRelation.derived`), so repeated
    normalizations against the same reference — the hot pattern of Fig. 14's
    attribute sweep and of any shared dimension relation — collect and sort
    the endpoints once instead of once per call.  Inserting into the
    reference invalidates the cache.
    """

    def build() -> Dict[Hashable, List[int]]:
        collected: Dict[Hashable, Set[int]] = defaultdict(set)
        for s in reference:
            if s.interval.is_empty():
                continue
            key = s.values_of(attributes) if attributes else ()
            collected[key].add(s.start)
            collected[key].add(s.end)
        return {key: sorted(points) for key, points in collected.items()}

    return reference.derived(("split_points", attributes), build)


def _split_interval(interval: Interval, sorted_points: Sequence[int]) -> List[Interval]:
    """Split ``interval`` at the given (sorted) points that fall inside it."""
    if interval.is_empty():
        return []
    interior = [p for p in sorted_points if interval.start < p < interval.end]
    if not interior:
        return [interval]
    bounds = [interval.start] + interior + [interval.end]
    return [Interval(a, b) for a, b in zip(bounds, bounds[1:])]


def normalization_output_size(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attributes: Sequence[str] = (),
) -> int:
    """Cardinality of ``N_B(relation; reference)`` without materialising it.

    Used by benchmarks that only report output sizes (Fig. 13(b), 14(b)).
    """
    attrs = tuple(attributes)
    split_points = _split_points_by_key(reference, attrs)
    total = 0
    for r in relation:
        key = r.values_of(attrs) if attrs else ()
        points = split_points.get(key, ())
        interior = sum(1 for p in points if r.start < p < r.end)
        total += interior + 1 if not r.interval.is_empty() else 0
    return total
