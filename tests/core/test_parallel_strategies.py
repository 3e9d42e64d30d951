"""The ``parallel`` strategy of the native adjustment primitives.

Every test is an equality assertion against the serial strategy — the
parallel decomposition by equality key must be invisible in the result, on
all three synthetic families, with and without residual θ predicates, and
regardless of whether the partitions run in-process or in a worker pool.
"""

from __future__ import annotations

import pytest

from repro import predicates
from repro.core import parallel as parallel_support
from repro.obs import metrics as obs_metrics
from repro.core.alignment import align_relation
from repro.core.normalization import normalize, normalize_pair
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}


def _pair(family, size=200):
    return FAMILIES[family](config=SyntheticConfig(size=size, categories=10, seed=21))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parallel_alignment_matches_sweep(family):
    left, right = _pair(family)
    serial = align_relation(left, right, equi_attributes=["cat"], strategy="sweep")
    parallel = align_relation(left, right, equi_attributes=["cat"], strategy="parallel", workers=2)
    assert serial == parallel


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parallel_normalization_matches_serial(family):
    left, right = _pair(family)
    serial = normalize(left, right, ["cat"])
    parallel = normalize(left, right, ["cat"], strategy="parallel", workers=2)
    assert serial == parallel


def test_parallel_alignment_with_theta_falls_back_and_matches():
    # ``predicates.attr_eq`` returns a closure, which cannot be pickled to a
    # worker process — the strategy must silently run in-process and still
    # produce the exact serial result.
    left, right = _pair("random")
    theta = predicates.attr_eq("cat")
    serial = align_relation(left, right, theta=theta, equi_attributes=["cat"], strategy="sweep")
    parallel = align_relation(
        left, right, theta=theta, equi_attributes=["cat"], strategy="parallel", workers=2
    )
    assert serial == parallel


def test_parallel_alignment_without_keys_degenerates():
    left, right = _pair("random", size=80)
    serial = align_relation(left, right, strategy="sweep")
    parallel = align_relation(left, right, strategy="parallel", workers=2)
    assert serial == parallel


def test_mixed_numeric_keys_do_not_lose_matches():
    # Equality-compatible partition routing: Decimal('1') == 1 must join.
    from decimal import Decimal

    from repro import Interval, Schema, TemporalRelation

    left = TemporalRelation(Schema(["k"]))
    right = TemporalRelation(Schema(["k"]))
    left.insert((Decimal("1"),), Interval(0, 10))
    right.insert((1,), Interval(2, 4))
    serial = align_relation(left, right, equi_attributes=["k"], strategy="sweep")
    parallel = align_relation(left, right, equi_attributes=["k"], strategy="parallel", workers=2)
    assert serial == parallel
    assert len(serial) == 3  # [0,2), [2,4), [4,10)


def test_empty_equi_attributes_means_no_key_on_every_strategy():
    left, right = _pair("random", size=40)
    expected = align_relation(left, right, equi_attributes=[], strategy="sweep")
    assert align_relation(left, right, equi_attributes=[], strategy="index") == expected
    right.interval_index(())  # cache a plain index, then take the auto path
    assert align_relation(left, right, equi_attributes=[], strategy="auto") == expected
    assert align_relation(left, right, equi_attributes=[], strategy="parallel") == expected


def test_parallel_normalization_empty_attribute_list():
    left, right = _pair("random", size=80)
    assert normalize(left, right) == normalize(left, right, strategy="parallel", workers=2)


def test_parallel_strategies_through_pool(monkeypatch):
    # Force the multiprocessing path even for small inputs.
    monkeypatch.setenv("REPRO_PARALLEL_MIN_TUPLES", "1")
    left, right = _pair("random", size=120)
    assert align_relation(left, right, equi_attributes=["cat"], strategy="sweep") == align_relation(
        left, right, equi_attributes=["cat"], strategy="parallel", workers=2
    )
    assert normalize(left, right, ["cat"]) == normalize(
        left, right, ["cat"], strategy="parallel", workers=2
    )


def test_normalize_pair_unchanged_by_parallel_primitives():
    left, right = _pair("random", size=100)
    serial_left, serial_right = normalize_pair(left, right, ["cat"])
    assert normalize(left, right, ["cat"], strategy="parallel") == serial_left
    assert normalize(right, left, ["cat"], strategy="parallel") == serial_right


def test_unknown_strategies_rejected():
    left, right = _pair("random", size=20)
    with pytest.raises(ValueError):
        align_relation(left, right, strategy="threads")
    with pytest.raises(ValueError):
        normalize(left, right, strategy="threads")


def test_resolve_workers(monkeypatch):
    assert parallel_support.resolve_workers(3) == 3
    assert parallel_support.resolve_workers(0) == 1
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "5")
    assert parallel_support.resolve_workers() == 5
    monkeypatch.delenv("REPRO_PARALLEL_WORKERS")
    assert parallel_support.resolve_workers() >= 1


def test_partition_indexes_stable_and_in_range():
    keys = [(f"C{i:04d}",) for i in range(50)]
    ids = parallel_support.partition_indexes(keys, 8)
    assert ids == parallel_support.partition_indexes(keys, 8)
    assert all(0 <= i < 8 for i in ids)


def test_code_partition_order_groups_codes_stably():
    codes = [3, -1, 0, 2, 3, -1, 1]
    order, offsets, counts = parallel_support.code_partition_order(codes, 2)
    # Partition 0 holds even codes and the no-match code -1, partition 1
    # the odd codes; within a partition the incoming order is kept.
    assert order.tolist() == [1, 2, 3, 5, 0, 4, 6]
    assert offsets.tolist() == [0, 4]
    assert counts.tolist() == [4, 3]


class TestFallbackIsLoudAndObservable:
    """A requested pool that cannot run must warn (once) and self-identify.

    ``Settings.parallel_workers=8`` silently executing serially would make
    every reported "parallel" speedup a measurement of nothing — the
    fallback stays transparent for correctness but is now observable.
    """

    def setup_method(self):
        parallel_support._warned_fallbacks.clear()

    def test_unpicklable_worker_warns_once_and_reports_fallback_mode(self):
        payloads = list(range(6))
        unpicklable = lambda x: x * 2  # noqa: E731 - the point is the closure
        fallbacks = obs_metrics.counter("parallel.fallbacks", label_name="cause")
        before = fallbacks.total
        with pytest.warns(RuntimeWarning, match="fell back to the in-process path"):
            results, mode = parallel_support.parallel_map_with_mode(
                unpicklable, payloads, workers=2, total_items=10_000, min_items=0
            )
        assert results == [x * 2 for x in payloads]
        assert mode.startswith("in-process (fallback:")
        assert fallbacks.total == before + 1
        # The same cause warns only once per process.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again, mode_again = parallel_support.parallel_map_with_mode(
                unpicklable, payloads, workers=2, total_items=10_000, min_items=0
            )
        assert again == results and mode_again == mode
        # ... but the counter is not deduplicated: every degradation counts.
        assert fallbacks.total == before + 2

    def test_pool_creation_failure_warns_and_names_the_cause(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise OSError("no process spawning in this sandbox")

        monkeypatch.setattr(parallel_support.multiprocessing, "get_context", refuse)
        fallbacks = obs_metrics.counter("parallel.fallbacks", label_name="cause")
        before = fallbacks.value("pool:OSError")
        with pytest.warns(RuntimeWarning, match="worker pool unavailable"):
            results, mode = parallel_support.parallel_map_with_mode(
                _double, [1, 2, 3], workers=4, total_items=10_000, min_items=0
            )
        assert results == [2, 4, 6]
        assert "fallback" in mode and "OSError" in mode
        assert fallbacks.value("pool:OSError") == before + 1

    def test_small_inputs_stay_in_process_without_warning(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            results, mode = parallel_support.parallel_map_with_mode(
                _double, [1, 2], workers=2, total_items=3, min_items=100
            )
        assert results == [2, 4]
        assert mode == "in-process"

    def test_pool_mode_reports_pool_size(self):
        results, mode = parallel_support.parallel_map_with_mode(
            _double, [1, 2, 3, 4], workers=2, total_items=10_000, min_items=0
        )
        assert results == [2, 4, 6, 8]
        assert mode == "pool[2]"


def _double(x):
    """Module-level worker: picklable, addressable by reference."""
    return x * 2


def _raise_value_error(_payload):
    """Module-level worker whose *execution* fails (ships fine)."""
    raise ValueError("bad partition contents")


def test_worker_exceptions_propagate_instead_of_masquerading_as_fallback():
    # A genuine error inside the worker must surface as-is: retrying the
    # whole map serially would double the work and blame pickling.
    with pytest.raises(ValueError, match="bad partition contents"):
        parallel_support.parallel_map_with_mode(
            _raise_value_error, [1, 2, 3], workers=2, total_items=10_000, min_items=0
        )


def _return_unpicklable(_payload):
    """Module-level worker whose *result* cannot ship back (ships fine in)."""
    return lambda: None


def test_unpicklable_result_falls_back_instead_of_crashing():
    parallel_support._warned_fallbacks.clear()
    with pytest.warns(RuntimeWarning, match="fell back"):
        results, mode = parallel_support.parallel_map_with_mode(
            _return_unpicklable, [1, 2, 3], workers=2, total_items=10_000, min_items=0
        )
    assert len(results) == 3 and all(callable(r) for r in results)
    assert "fallback" in mode


def _raise_file_not_found(_payload):
    """Module-level worker whose own code raises an OSError subclass."""
    raise FileNotFoundError("/no/such/partition/file")


def test_worker_oserror_propagates_rather_than_blaming_the_pool():
    parallel_support._warned_fallbacks.clear()
    with pytest.raises(FileNotFoundError):
        parallel_support.parallel_map_with_mode(
            _raise_file_not_found, [1, 2], workers=2, total_items=10_000, min_items=0
        )
