"""Worker-pool machinery shared by the parallel adjustment strategies.

The native primitives (:mod:`repro.core.alignment`,
:mod:`repro.core.normalization`) partition their work by the equality key of
the group construction — the same decomposition the engine's
:class:`~repro.engine.executor.partition.ExchangeNode` uses — and hand the
partitions to :func:`parallel_map`.  The helper decides *where* the work
runs: a ``multiprocessing`` pool for large inputs, the calling process
otherwise, and always the calling process when the payloads cannot be
shipped (e.g. a θ predicate that is a local closure).  The result is
identical either way; parallelism is never allowed to change semantics.
"""

from __future__ import annotations

import multiprocessing
import numbers
import os
import pickle
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Sequence, Tuple, TypeVar

import numpy as np

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.relation.tuple import is_null

_FALLBACK_COUNTER = obs_metrics.counter("parallel.fallbacks", label_name="cause")

T = TypeVar("T")
R = TypeVar("R")


def stable_hash(value: Any) -> int:
    """Deterministic hash for partition routing.

    Python's built-in ``hash`` is salted per process for strings, which would
    make partition assignment (and therefore merged row order) vary between
    runs and between pool workers.  Partition routing instead uses CRC32 over
    a canonical encoding — not cryptographic, just stable.

    Like any partitioning hash it must be *equality compatible*: values that
    compare equal must hash equal, or equal join keys would land in
    different partitions and the parallel plans would silently drop matches.
    Python makes ``1 == True == 1.0 == Decimal(1) == Fraction(1)`` true
    across the numeric tower, and the builtin ``hash`` is both unsalted for
    numbers and equality-compatible across all of them — so numbers simply
    use it.
    """
    if is_null(value):
        return 0
    if isinstance(value, numbers.Number):
        return hash(value) & 0xFFFFFFFF
    if isinstance(value, str):
        return zlib.crc32(value.encode())
    if isinstance(value, tuple):
        return partition_hash(value)
    return zlib.crc32(repr(value).encode())


def partition_hash(key: Sequence[Any]) -> int:
    """Combine the stable hashes of a composite key (FNV-style mix)."""
    combined = 2166136261
    for value in key:
        combined = ((combined ^ stable_hash(value)) * 16777619) & 0xFFFFFFFF
    return combined

#: Combined input size below which the pool is never consulted (spawning
#: processes costs more than sweeping a few thousand tuples in place).
#: Override with ``REPRO_PARALLEL_MIN_TUPLES``.
DEFAULT_MIN_TUPLES = 2048


def resolve_workers(workers: int | None = None) -> int:
    """Worker count to use: explicit argument, else env, else CPU count."""
    if workers is None:
        env = os.environ.get("REPRO_PARALLEL_WORKERS")
        workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, int(workers))


def min_pool_tuples() -> int:
    """In-process threshold, overridable via ``REPRO_PARALLEL_MIN_TUPLES``."""
    env = os.environ.get("REPRO_PARALLEL_MIN_TUPLES")
    return int(env) if env else DEFAULT_MIN_TUPLES


def partition_indexes(keys: Sequence[Hashable], partition_count: int) -> List[int]:
    """Stable partition id per key (see :func:`partition_hash`)."""
    return [
        partition_hash(key if isinstance(key, tuple) else (key,)) % partition_count
        for key in keys
    ]


def code_partition_order(codes: Any, partition_count: int) -> Tuple[Any, Any, Any]:
    """Partition rows by dictionary key code with one vectorized take.

    The columnar layer already dictionary-encodes equality keys into dense
    integer codes, so partitioning needs no per-row hashing at all:
    ``code % partition_count`` is an exact equality-preserving split (equal
    keys share a code, hence a partition), and the no-match code ``-1``
    (null or unseen keys, which join nothing and can only contribute
    dangling output) is routed to partition 0.

    Returns ``(order, offsets, counts)``: ``order`` is a *stable* argsort of
    the partition ids — taking an array through it groups rows by ascending
    partition while preserving the incoming order within each partition —
    and ``offsets[p] : offsets[p] + counts[p]`` slices partition ``p`` out
    of the taken array.
    """
    code_array = np.asarray(codes, dtype=np.int64)
    ids = np.where(code_array >= 0, code_array % partition_count, 0)
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=partition_count)
    offsets = np.cumsum(counts) - counts
    return order, offsets, counts


#: Fallback causes already reported this process — each distinct cause warns
#: exactly once, so a tight loop of small maps cannot flood stderr.  Keyed on
#: ``kind:ExceptionType``, not the message: pickling errors embed per-object
#: reprs (memory addresses), which would defeat the dedup.
_warned_fallbacks: set[str] = set()


def _warn_fallback(key: str, cause: str) -> None:
    # Every fallback counts — only the *warning* is deduplicated, so CI bench
    # reports expose silent in-process degradation even when it repeats.
    _FALLBACK_COUNTER.inc(label=key)
    if key in _warned_fallbacks:
        return
    _warned_fallbacks.add(key)
    warnings.warn(
        f"parallel execution fell back to the in-process path: {cause} "
        "(results are identical; reported timings are serial)",
        RuntimeWarning,
        stacklevel=3,
    )


def _is_ship_error(error: Exception) -> bool:
    """Whether an exception from ``pool.map`` means the *pool could not do
    its job* — as opposed to a genuine error raised by the worker's code.

    Fallback-worthy: pickling failures (:class:`pickle.PickleError` for
    closures/lambdas, ``TypeError``/``AttributeError`` whose message names
    pickling, ``MaybeEncodingError`` for an unpicklable *result*) and the
    pool's IPC plumbing dying underneath us (``BrokenPipeError``/
    ``ConnectionError``/``EOFError`` from a child killed by the OOM killer
    or a sandbox ulimit).  Anything else — including an ordinary ``OSError``
    such as ``FileNotFoundError`` raised by the worker's own code — must
    propagate: retrying the whole map serially would double the work and
    blame the pool for it.
    """
    from multiprocessing.pool import MaybeEncodingError

    if isinstance(error, (pickle.PickleError, MaybeEncodingError)):
        return True
    if isinstance(error, (BrokenPipeError, ConnectionError, EOFError)):
        return True
    return isinstance(error, (TypeError, AttributeError)) and "pickle" in str(error).lower()


@dataclass
class _FaultedPayload:
    """A payload wrapped with the fault behaviour the parent decided on.

    The *decision* (did ``pool.worker_kill`` / ``pool.worker_stall`` fire?)
    is made in the parent, inside :func:`parallel_map_with_mode`, so the
    ``faults.injected`` counter lands in the parent's metrics registry —
    counters incremented in a forked child are invisible to the parent.  The
    child merely executes the decided behaviour.
    """

    worker: Callable[[Any], Any]
    payload: Any
    kill: bool
    stall_seconds: float


def _run_faulted_payload(job: _FaultedPayload) -> Any:
    if job.kill:
        # Simulate the pool's IPC dying under an abruptly killed worker.  (A
        # literal os._exit here would hang multiprocessing.Pool.map forever —
        # task results of a dead worker are never redelivered — so the fault
        # surfaces as the error such a death produces in the parent instead.)
        raise BrokenPipeError("injected fault: pool.worker_kill")
    if job.stall_seconds > 0:
        time.sleep(job.stall_seconds)
    return job.worker(job.payload)


def parallel_map_with_mode(
    worker: Callable[[T], R],
    payloads: Sequence[T],
    workers: int,
    total_items: int,
    min_items: int | None = None,
) -> Tuple[List[R], str]:
    """Map ``worker`` over ``payloads`` and report *where* the map ran.

    Args:
        worker: Module-level callable (multiprocessing addresses it by
            reference); applied to each payload.
        payloads: One payload per partition.
        workers: Requested pool size; below 2 the map runs in-process.
        total_items: Combined size of all partitions, compared against
            ``min_items`` to gate pool creation.
        min_items: In-process threshold; default from :func:`min_pool_tuples`.

    Returns:
        ``(results, mode)`` with results in payload order — the caller can
        merge deterministically regardless of execution placement.  ``mode``
        is ``"pool[n]"`` when a worker pool ran the map, ``"in-process"``
        when the gates kept it local, or ``"in-process (fallback: …)"`` when
        a pool was attempted and failed (unpicklable payload, no usable
        start method, resource limits).  A fallback additionally emits a
        one-time :class:`RuntimeWarning` naming the cause — a silently
        serial "parallel" run would otherwise report meaningless speedups.
    """
    threshold = min_pool_tuples() if min_items is None else min_items
    if not (workers > 1 and len(payloads) > 1 and total_items >= threshold):
        return [worker(payload) for payload in payloads], "in-process"
    pool_size = min(workers, len(payloads))
    try:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        pool = context.Pool(processes=pool_size)
    except Exception as error:
        cause = f"worker pool unavailable ({type(error).__name__}: {error})"
        _warn_fallback(f"pool:{type(error).__name__}", cause)
        return [worker(payload) for payload in payloads], f"in-process (fallback: {cause})"
    kill = faults.fire("pool.worker_kill")
    stall_seconds = (
        faults.stall_ms("pool.worker_stall") / 1000.0
        if faults.fire("pool.worker_stall")
        else 0.0
    )
    jobs: Sequence[Any]
    mapper: Callable[[Any], Any]
    if kill or stall_seconds:
        jobs = [
            _FaultedPayload(
                worker,
                payload,
                kill=kill and index == 0,
                stall_seconds=stall_seconds if index == 0 else 0.0,
            )
            for index, payload in enumerate(payloads)
        ]
        mapper = _run_faulted_payload
    else:
        jobs, mapper = list(payloads), worker
    try:
        with pool:
            return pool.map(mapper, jobs), f"pool[{pool_size}]"
    except Exception as error:
        if not _is_ship_error(error):
            raise  # the worker's own exception — the serial path would hit it too
        cause = f"payload could not be shipped ({type(error).__name__}: {error})"
        _warn_fallback(f"ship:{type(error).__name__}", cause)
        return [worker(payload) for payload in payloads], f"in-process (fallback: {cause})"


def parallel_map(
    worker: Callable[[T], R],
    payloads: Sequence[T],
    workers: int,
    total_items: int,
    min_items: int | None = None,
) -> List[R]:
    """:func:`parallel_map_with_mode` without the mode (most callers merge
    results and do not report placement)."""
    results, _mode = parallel_map_with_mode(worker, payloads, workers, total_items, min_items)
    return results


def partition_items(items: Sequence[Any], ids: Sequence[int], count: int) -> List[List[Any]]:
    """Group ``items`` into ``count`` buckets by the parallel ``ids`` list."""
    buckets: List[List[Any]] = [[] for _ in range(count)]
    for item, bucket in zip(items, ids):
        buckets[bucket].append(item)
    return buckets
