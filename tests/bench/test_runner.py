"""The machine-readable benchmark runner of :mod:`repro.bench`."""

from __future__ import annotations

import json

from repro.bench import runner
from repro.obs import metrics as obs_metrics


def test_scaled_sizes_keep_deterministic_minimum_and_monotonicity():
    # A tiny scale floors every size at 10 — the sweep must stay strictly
    # increasing instead of collapsing into repeated identical points.
    assert runner.scaled_sizes([1000, 2000, 4000], scale=0.001) == [10, 11, 12]
    assert runner.scaled_sizes([1000, 2000], scale=0.5) == [500, 1000]
    assert runner.scaled_sizes([1000, 2000], scale=0.001) == runner.scaled_sizes(
        [1000, 2000], scale=0.001
    )


def test_parallel_alignment_scenarios_and_report(tmp_path):
    scenarios = runner.run_parallel_alignment(sizes=[40], workers=2, repeats=1)
    assert len(scenarios) == len(runner.FAMILIES)
    for scenario in scenarios:
        assert scenario["identical"] is True
        assert "Exchange" in scenario["parallel_plan"]
        assert "Exchange" not in scenario["serial_plan"]
        assert scenario["rows_pulled"]["serial"] == scenario["output_tuples"]

    path = runner.write_report("test_report", scenarios, str(tmp_path), workers=2)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["benchmark"] == "test_report"
    assert payload["workers"] == 2
    assert len(payload["scenarios"]) == len(scenarios)


def test_view_maintenance_scenarios_enforce_equality(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_STRICT", "0")  # timings are noise at n=40
    scenarios = runner.run_view_maintenance(sizes=[40], workers=2, repeats=1)
    assert len(scenarios) == len(runner.FAMILIES)
    for scenario in scenarios:
        assert scenario["identical"] is True
        assert scenario["mutations"] >= 4
        assert scenario["maintenance"]["incremental"] >= 1
        assert scenario["single_mutation_speedup"] > 0

    path = runner.write_report("test_views", scenarios, str(tmp_path), workers=2)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scenarios"][0]["scenario"] == "view_maintenance"


def test_columnar_adjustment_scenarios_and_gates(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_STRICT", "0")  # timings are noise at n=60
    scenarios = runner.run_columnar_adjustment(sizes=[60], workers=2, repeats=1)
    note, *measured = scenarios
    assert note["scenario"] == "row_mode_micro_opt_note"
    assert len(measured) == len(runner.FAMILIES)
    for scenario in measured:
        assert scenario["identical"] is True
        assert "ColumnarAdjustment" in scenario["columnar_plan"]
        assert "kernel=columnar" in scenario["partition_columnar_plan"]
        assert "ColumnarAdjustment" not in scenario["row_plan"]
        assert "Exchange" not in scenario["row_plan"]

    path = runner.write_report("test_columnar", scenarios, str(tmp_path), workers=2)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scenarios"][1]["scenario"] == "columnar_adjustment"


def test_profile_flag_dumps_cumulative_hot_paths(tmp_path, capsys):
    code = runner.main(
        [
            "--scenario",
            "parallel_normalization",
            "--sizes",
            "40",
            "--repeats",
            "1",
            "--profile",
            "5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "[profile] parallel_normalization: top 5 by cumulative time" in output
    assert "cumulative" in output
    assert (tmp_path / "BENCH_parallel_normalization.json").exists()


def test_main_writes_reports(tmp_path):
    code = runner.main(
        [
            "--scenario",
            "parallel_normalization",
            "--sizes",
            "40",
            "--repeats",
            "1",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "BENCH_parallel_normalization.json").exists()


def test_each_report_counts_only_its_own_scenario(tmp_path, monkeypatch):
    # Two scenarios in one main() call: the second report's metrics snapshot
    # must not carry the counts the first scenario drove into the registry.
    hits = obs_metrics.counter("bench.test_hits")

    def scenario(count):
        def run(sizes, workers, repeats):
            hits.inc(count)
            return [{"scenario": "probe"}]

        return run

    monkeypatch.setattr(
        runner, "NATIVE_SCENARIOS", {"first": scenario(3), "second": scenario(5)}
    )
    code = runner.main(
        ["--scenario", "first", "--scenario", "second", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    counts = {}
    for name in ("first", "second"):
        with open(tmp_path / f"BENCH_{name}.json", encoding="utf-8") as handle:
            counts[name] = json.load(handle)["metrics"]["bench.test_hits"]["value"]
    assert counts == {"first": 3, "second": 5}


def test_legacy_report_does_not_inherit_scenario_counts(tmp_path, monkeypatch):
    # The wrapped pytest harnesses run in a subprocess, so nothing they do
    # reaches this registry: their report must not show the native
    # scenario's counts either.
    hits = obs_metrics.counter("bench.test_hits")

    def native(sizes, workers, repeats):
        hits.inc(4)
        return [{"scenario": "probe"}]

    monkeypatch.setattr(runner, "NATIVE_SCENARIOS", {"native": native})
    monkeypatch.setattr(
        runner, "run_legacy_suite", lambda path: {"scenario": "legacy", "returncode": 0}
    )
    code = runner.main(
        ["--scenario", "native", "--legacy", "bench_x.py", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    with open(tmp_path / "BENCH_legacy_suites.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["metrics"]
    assert metrics["bench.test_hits"]["value"] == 0


def test_strategy_settings_pin_their_plans():
    from repro.engine.database import Database
    from repro.engine.expressions import Column, Comparison
    from repro.engine.temporal_plans import align_plan, scan
    from repro.workloads.synthetic import SyntheticConfig, generate_random

    left, right = generate_random(config=SyntheticConfig(size=20, categories=4, seed=1))
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    plan = align_plan(
        scan(database, "l", "l"),
        scan(database, "r", "r"),
        Comparison("=", Column("l.cat"), Column("r.cat")),
    )
    row = database.explain(plan, runner._row_settings()).splitlines()[0]
    columnar = database.explain(plan, runner._columnar_settings()).splitlines()[0]
    partitioned = database.explain(plan, runner._partition_columnar_settings(2)).splitlines()[0]
    assert row.startswith("Adjustment(align)")
    assert columnar.startswith("ColumnarAdjustment(align")
    assert partitioned.startswith("Exchange(align") and "kernel=columnar" in partitioned


def test_scaled_sizes_dedupe_collapsing_sweeps_at_ci_scale():
    # Regression: at REPRO_BENCH_SCALE=0.2 a closely spaced sweep collapses
    # onto the MIN_SIZE floor; the report must not double-count a size —
    # every point stays unique and strictly increasing.
    sizes = runner.scaled_sizes([40, 45, 50, 55], scale=0.2)
    assert sizes == [10, 11, 12, 13]
    assert len(set(sizes)) == len(sizes)
    assert sizes == sorted(sizes)
    # Duplicate *input* sizes must not survive as duplicate points either.
    assert runner.scaled_sizes([1000, 1000, 1000], scale=0.2) == [200, 201, 202]
    # And the helper agrees with benchmarks/_util.scaled's contract.
    assert runner.scaled_sizes([10, 20, 4000], scale=0.001) == [10, 11, 12]


def test_durability_scenario_gates_and_report(tmp_path):
    scenarios = runner.run_durability(sizes=[40], workers=2, repeats=1)
    assert len(scenarios) == len(runner.FAMILIES)
    for scenario in scenarios:
        assert scenario["identical"] is True
        assert scenario["post_recovery_refresh"] == "incremental"
        assert scenario["wal_bytes"] > 0
        assert scenario["snapshot_bytes"] > 0
        assert scenario["recovery_seconds"] > 0

    path = runner.write_report("test_durability", scenarios, str(tmp_path), workers=2)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scenarios"][0]["scenario"] == "durability"


class TestParallelSpeedupGate:
    """Verdict table of :func:`runner.parallel_speedup_gate`.

    The gate is the CI contract: hard ≥2x on multi-core strict runs, an
    explicit skip marker everywhere the measurement would be meaningless —
    never a silent pass and never a single-core failure.
    """

    def test_passes_at_or_above_the_bar(self):
        assert runner.parallel_speedup_gate(2.0, 1000, cpu_count=4, strict=True) == "passed"
        assert runner.parallel_speedup_gate(3.7, 2000, cpu_count=2, strict=True) == "passed"

    def test_fails_below_the_bar_on_multicore_strict(self):
        assert runner.parallel_speedup_gate(1.99, 1000, cpu_count=4, strict=True) == "failed"
        assert runner.parallel_speedup_gate(0.5, 2000, cpu_count=8, strict=True) == "failed"

    def test_single_core_skips_regardless_of_speedup(self):
        verdict = runner.parallel_speedup_gate(0.1, 5000, cpu_count=1, strict=True)
        assert verdict == "skipped(single-core)"
        # Single-core wins first: even strict-off reports the hardware truth.
        assert (
            runner.parallel_speedup_gate(9.0, 5000, cpu_count=1, strict=False)
            == "skipped(single-core)"
        )

    def test_strict_off_skips_on_multicore(self):
        assert (
            runner.parallel_speedup_gate(0.1, 5000, cpu_count=4, strict=False)
            == "skipped(strict-off)"
        )

    def test_small_inputs_never_face_the_bar(self):
        verdict = runner.parallel_speedup_gate(
            0.1, runner.PARALLEL_GATE_MIN_SIZE - 1, cpu_count=4, strict=True
        )
        assert verdict == "skipped(small-input)"

    def test_defaults_come_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "0")
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        assert runner.parallel_speedup_gate(0.1, 5000) == "skipped(strict-off)"
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        assert runner.parallel_speedup_gate(5.0, 5000) == "passed"

    def test_failed_gate_raises_in_the_scenario_loop(self, monkeypatch):
        # End to end through _adjustment_scenarios: force every verdict to
        # "failed" and the runner must raise instead of writing a report.
        import pytest

        monkeypatch.setattr(
            runner, "parallel_speedup_gate", lambda *a, **k: "failed"
        )
        with pytest.raises(runner.BenchmarkError, match="below"):
            runner.run_parallel_alignment(sizes=[40], workers=2, repeats=1)

    def test_scenarios_record_the_gate_verdict(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "0")
        scenarios = runner.run_parallel_alignment(sizes=[40], workers=2, repeats=1)
        expected = runner.parallel_speedup_gate(1.0, 40)
        assert all(scenario["gate"] == expected for scenario in scenarios)
