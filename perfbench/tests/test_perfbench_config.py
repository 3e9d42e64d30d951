"""The form of BENCHMARK.json and the metric names the workloads report."""

from __future__ import annotations

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_form():
    data = config()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(data["command"]) <= 32
    assert all(isinstance(part, str) and len(part) <= 200 for part in data["command"])
    assert not any(part.startswith("/") or ".." in part for part in data["command"])
    assert 1 <= len(data["paths"]) <= 16
    for path in data["paths"]:
        assert PATH.match(path) and ".." not in path and not path.startswith("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(data["end_to_end"]) <= 16
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(data["per_layer"]) <= 128
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in data["workloads"] + data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])
    assert len(json.dumps(data)) <= 64 * 1024


def test_end_to_end_names_match_the_workloads():
    from perfbench import inproc, serving

    data = config()
    roles = set(serving.ROLE.values())
    for spec in inproc.WORKLOADS.values():
        assert set(spec["templates"]) == roles
    expected = {"setup_s", "ops_per_s", "peak_rss_mb", "recovery_s"}
    expected |= {f"{role}_p50_ms" for role in roles}
    expected |= {f"{role}_tail_ms" for role in inproc.TAILED}
    assert {m["name"] for m in data["end_to_end"]} == expected
    assert {w["name"] for w in data["workloads"]} == set(inproc.WORKLOADS) | {"serve-oltp"}


def test_per_layer_names_match_the_tracer():
    reported = set(tracing.engine_metrics([], {}, 1.0, 1)) | set(tracing.SERVING_ONLY)
    reported |= set(tracing.recovery_metrics([], 1.0))
    reported |= set(tracing.operator_metrics(None, 0, 1.0))
    reported |= {"host.ref_loop_ms", "trace.layer_coverage", "trace.ops_per_s"}
    assert {m["name"] for m in config()["per_layer"]} == reported
