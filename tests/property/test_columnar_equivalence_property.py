"""Property test: every adjustment strategy is the same function.

The load-bearing contract of the columnar layer (and of PR 2's parallelism
before it) is strategy transparency: row sweep ≡ interval index ≡ partition
parallel ≡ columnar, on every input.  Hypothesis drives the comparison over all three synthetic families
plus an adversarial edge family with empty relations, empty intervals,
point-adjacent intervals and duplicate endpoints — exactly the inputs where
off-by-one bugs in ``searchsorted`` boundaries would hide.
"""

from __future__ import annotations

import os
from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval, Schema, TemporalRelation, predicates
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.engine.database import Database
from repro.engine.executor import ExchangeNode
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings as EngineSettings
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}


@st.composite
def edge_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    """Relations stressing kernel boundaries.

    Intervals are drawn over a tiny point domain with lengths down to zero,
    so the samples are dense with empty intervals, intervals meeting at a
    point (``[a, b)`` next to ``[b, c)``) and exactly duplicated endpoints;
    either relation may be empty.
    """
    schema = Schema(["cat", "min_dur", "max_dur"])

    def relation() -> TemporalRelation:
        rows: List[Tuple[str, int, int]] = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["C0", "C1"]),
                    st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=3),
                ),
                max_size=12,
            )
        )
        result = TemporalRelation(schema)
        for category, start, length in rows:
            result.insert((category, 1, 5), Interval(start, start + length))
        return result

    return relation(), relation()


@st.composite
def family_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    family = draw(st.sampled_from(sorted(FAMILIES)))
    size = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    config = SyntheticConfig(size=size, categories=5, seed=seed, time_span=200)
    return FAMILIES[family](config=config)


def relation_pairs():
    return st.one_of(family_relations(), edge_relations())


def _align_all_strategies(left, right, theta, equi):
    # "auto" runs before "index" caches an interval index on ``right``, so
    # it takes the columnar path rather than the index probe.
    return {
        "sweep": align_relation(left, right, theta, equi_attributes=equi, strategy="sweep"),
        "auto": align_relation(left, right, theta, equi_attributes=equi, strategy="auto"),
        "index": align_relation(left, right, theta, equi_attributes=equi, strategy="index"),
        "parallel": align_relation(
            left, right, theta, equi_attributes=equi, strategy="parallel", workers=2
        ),
        "columnar": align_relation(
            left, right, theta, equi_attributes=equi, strategy="columnar"
        ),
    }


class TestAlignmentStrategyEquivalence:
    @SETTINGS
    @given(relation_pairs())
    def test_equi_theta(self, pair):
        left, right = pair
        results = _align_all_strategies(left, right, None, ["cat"])
        expected = results.pop("sweep")
        for name, result in results.items():
            assert result == expected, f"{name} diverges from the row sweep"

    @SETTINGS
    @given(relation_pairs())
    def test_no_theta(self, pair):
        left, right = pair
        results = _align_all_strategies(left, right, None, None)
        expected = results.pop("sweep")
        for name, result in results.items():
            assert result == expected, f"{name} diverges from the row sweep"

    @SETTINGS
    @given(relation_pairs())
    def test_opaque_theta_falls_back_to_row_mode_per_group(self, pair):
        left, right = pair
        theta = predicates.attr_eq("cat")
        expected = align_relation(left, right, theta, strategy="sweep")
        columnar = align_relation(left, right, theta, strategy="columnar")
        assert columnar == expected


class TestShmExchangeEquivalence:
    """Engine-level: the shared-memory Exchange is the same function too.

    PR 6's transport battery — for every generated input (all three
    synthetic families plus the adversarial edge family) the partition-
    parallel plan shipping shared-memory columnar frames must produce the
    relation of the pinned serial row pipeline and of the serial columnar
    batch, at every pool size, and under the forced fallback
    (``REPRO_SHM=0`` → pickled-row transport).
    """

    SERIAL_ROW = EngineSettings(parallel_workers=0, enable_columnar=False)
    SERIAL_COLUMNAR = EngineSettings(parallel_workers=0)

    @staticmethod
    def _parallel(workers: int) -> EngineSettings:
        return EngineSettings(
            parallel_workers=workers,
            parallel_setup_cost=0.0,
            parallel_tuple_cost=0.0,
            parallel_min_rows=0.0,
        )

    @staticmethod
    def _engine_rows(pair, kind: str, engine_settings: EngineSettings):
        left, right = pair
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        if kind == "align":
            plan = align_plan(
                scan(database, "l", "l"),
                scan(database, "r", "r"),
                Comparison("=", Column("l.cat"), Column("r.cat")),
            )
        else:
            plan = normalize_plan(
                scan(database, "l", "l"), scan(database, "r", "r"), using=["cat"]
            )
        physical = database.plan(plan, engine_settings)
        if isinstance(physical, ExchangeNode):
            # Keep hypothesis runs fork-free: the shm transport (segments,
            # code partitioning, decode) is exercised in full either way,
            # and pool placement has its own dedicated tests.
            physical.inprocess_threshold = 10**9
        return sorted(physical.execute())

    @SETTINGS
    @given(
        relation_pairs(),
        st.sampled_from([1, 2, 4]),
        st.sampled_from(["align", "normalize"]),
    )
    def test_shm_parallel_matches_both_serial_pipelines(self, pair, workers, kind):
        serial_row = self._engine_rows(pair, kind, self.SERIAL_ROW)
        serial_columnar = self._engine_rows(pair, kind, self.SERIAL_COLUMNAR)
        parallel = self._engine_rows(pair, kind, self._parallel(workers))
        assert serial_columnar == serial_row
        assert parallel == serial_row

    @SETTINGS
    @given(relation_pairs(), st.sampled_from(["align", "normalize"]))
    def test_shm_disabled_fallback_matches(self, pair, kind):
        expected = self._engine_rows(pair, kind, self.SERIAL_ROW)
        os.environ["REPRO_SHM"] = "0"
        try:
            fallback = self._engine_rows(pair, kind, self._parallel(2))
        finally:
            os.environ.pop("REPRO_SHM", None)
        assert fallback == expected


class TestNormalizationStrategyEquivalence:
    @SETTINGS
    @given(relation_pairs(), st.sampled_from([(), ("cat",)]))
    def test_all_strategies_agree(self, pair, attributes):
        left, right = pair
        expected = normalize(left, right, attributes, strategy="sweep")
        parallel = normalize(left, right, attributes, strategy="parallel", workers=2)
        columnar = normalize(left, right, attributes, strategy="columnar")
        assert parallel == expected
        assert columnar == expected

    @SETTINGS
    @given(relation_pairs())
    def test_self_normalization(self, pair):
        left, _ = pair
        expected = normalize(left, left, ("cat",), strategy="sweep")
        columnar = normalize(left, left, ("cat",), strategy="columnar")
        assert columnar == expected
