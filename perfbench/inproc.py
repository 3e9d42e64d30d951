"""The in-process workloads: ``analytic-large`` and ``query-small``.

One thread drives a :class:`repro.sql.interface.Connection` in a closed
loop.  A round runs every template of the workload once, in a seeded order;
a run attempts whole rounds until its measuring time is up.  Every
statement goes through the full parse → analyze → plan → execute path.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from perfbench import common, oracle, tracing
from perfbench.tracing import Tracer

COLUMNS = ("cat", "min_dur", "max_dur")

#: The Drand distribution of ``repro.workloads.synthetic.SyntheticConfig``
#: (the repo's §7 generator): 100 categories, lengths 1-30, starts over
#: 16 years of days.
DRAND = {"categories": 100, "time_span": 16 * 365, "max_length": 30}

ALIGN = "SELECT * FROM (r ALIGN s ON r.cat = s.cat) x"
NORMALIZE = "SELECT * FROM (r a NORMALIZE s b USING(cat)) x"
SELF_NORMALIZE = "SELECT * FROM (r a NORMALIZE r b USING(cat)) x"
THETA_ALIGN = "SELECT * FROM (r ALIGN s ON r.cat = s.cat AND r.min_dur <= s.max_dur) x"


def _theta(x: common.Row, y: common.Row) -> bool:
    return x[1] <= y[2]


#: Roles whose latency is also reported at the tail.
TAILED = ("op1", "op2")

#: role → (template name, SQL, oracle over (r, s)).  The roles op1/op2/op3
#: are what the end-to-end latency metrics are named after; each names
#: exactly one template on one dataset.
Template = Tuple[str, str, Callable[[List[common.Row], List[common.Row]], FrozenSet]]

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "analytic-large": {
        # Tens of thousands of tuples: the planner picks ColumnarAdjustment
        # for every template, so encode/kernel/decode dominate.
        "inputs": {"size": 16_000, **DRAND},
        "setups": 11,
        "recoveries": 15,
        "operator_runs": 2,
        "tail_level": 0.75,
        "templates": {
            "op1": ("align", ALIGN, lambda r, s: oracle.align(r, s, 0, 0)),
            "op2": ("normalize", NORMALIZE, lambda r, s: oracle.normalize(r, s, (0,), (0,))),
            "op3": ("self_normalize", SELF_NORMALIZE,
                    lambda r, s: oracle.normalize(r, r, (0,), (0,))),
        },
    },
    "query-small": {
        # 400 tuples a side: equi-θ ALIGN (800 input rows) stays below the
        # planner's columnar threshold and runs the row pipeline, while
        # NORMALIZE (r plus two point projections of s, 1200 rows) already
        # gets ColumnarAdjustment.  theta_align's extra conjunct keeps it on
        # the row sweep whatever the equi-θ planning does: the control.
        "inputs": {"size": 400, **DRAND},
        "setups": 21,
        "recoveries": 21,
        "operator_runs": 20,
        # p95 (~40 of ~800 samples beyond) spread 15-21% between runs.
        "tail_level": 0.90,
        "templates": {
            "op1": ("align", ALIGN, lambda r, s: oracle.align(r, s, 0, 0)),
            "op2": ("normalize", NORMALIZE, lambda r, s: oracle.normalize(r, s, (0,), (0,))),
            "op3": ("theta_align", THETA_ALIGN, lambda r, s: oracle.align(r, s, 0, 0, _theta)),
        },
    },
}


def _open_dataset(path: str, r_rows, s_rows):
    """Load the pair into a fresh durable database and snapshot it."""
    from repro.engine.database import Database
    from repro.sql.interface import Connection

    database = Database.open(path)
    database.register_relation("r", common.relation_from_rows(COLUMNS, r_rows))
    database.register_relation("s", common.relation_from_rows(COLUMNS, s_rows))
    database.checkpoint()
    return Connection(database)


def _recover(path: str) -> Tuple[float, Any]:
    from repro.engine.database import Database

    started = perf_counter()
    database = Database.open(path)
    elapsed = perf_counter() - started
    database.storage.abandon()
    return elapsed, database


def run(name: str, root: str, seed: int, seconds: float, tracer: Optional[Tracer]
        ) -> Tuple[bool, int, int, Dict[str, float]]:
    spec = WORKLOADS[name]
    clock = common.HostClock()
    r_rows, s_rows = common.drand(seed, **spec["inputs"])
    base = common.work_dir(root, name)
    try:
        return _run(spec, base, clock, r_rows, s_rows, seed, seconds, tracer)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run(spec, base, clock, r_rows, s_rows, seed, seconds, tracer):
    templates: Dict[str, Template] = spec["templates"]

    # -- set-up, repeated: load the pair into a durable database ---------------
    setups = common.Timings()
    connection = None
    for attempt in range(spec["setups"]):
        clock.settle()
        path = os.path.join(base, f"data{attempt}")
        if connection is not None:
            # Drop the previous repetition's directory, so that every set-up
            # meets the same file system (set-ups slowed as they piled up).
            connection.database.storage.abandon()
            shutil.rmtree(os.path.join(base, f"data{attempt - 1}"))
        started = perf_counter()
        connection = _open_dataset(path, r_rows, s_rows)
        elapsed = perf_counter() - started
        clock.sample()
        setups.add(started, elapsed, clock.bracket_factor())
    assert connection is not None
    dataset = os.path.join(base, f"data{spec['setups'] - 1}")

    # -- warm-up: the first execution of each template, kept for checking ----
    first: Dict[str, FrozenSet] = {}
    for role, (_template, sql, _expected) in templates.items():
        first[role] = frozenset(connection.execute(sql).rows)

    # -- measured loop ----------------------------------------------------------
    rng = random.Random(seed)
    latencies = {role: common.Timings() for role in templates}
    mismatched: Dict[str, int] = {role: 0 for role in templates}
    round_plan = list(templates)
    rounds = common.Timings()
    attempted = failed = 0
    if tracer is not None:
        tracer.begin_window()
    clock.sample()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        order = list(round_plan)
        rng.shuffle(order)
        round_started = perf_counter()
        round_busy = 0.0
        for role in order:
            template, sql = templates[role][0], templates[role][1]
            clock.maybe_sample()
            attempted += 1
            span = tracer.op(template) if tracer is not None else None
            started = perf_counter()
            try:
                if span is None:
                    rows = connection.execute(sql).rows
                else:
                    with span:
                        rows = connection.execute(sql).rows
            except Exception as error:  # noqa: BLE001 - counted, reported
                failed += 1
                print(f"{template} failed: {error!r}", flush=True)
                continue
            elapsed = perf_counter() - started
            round_busy += elapsed
            latencies[role].add(started, elapsed)
            if frozenset(rows) != first[role]:
                mismatched[role] += 1
        rounds.add(round_started, round_busy)
    clock.sample()
    if tracer is not None:
        tracer.end_window()
    peak_rss = common.self_peak_rss_mb()

    # -- traced run only: operator self times, each template a few times more --
    operators = None
    if tracer is not None:
        operators = tracing.OperatorClock()
        operators.install()
        try:
            for _ in range(spec["operator_runs"]):
                for role in round_plan:
                    if frozenset(connection.execute(templates[role][1]).rows) != first[role]:
                        mismatched[role] += 1
        finally:
            operators.remove()

    # -- recovery: reopen copies of the saved dataset ---------------------------
    recoveries = common.Timings()
    for attempt in range(spec["recoveries"]):
        copy = os.path.join(base, f"recover{attempt}")
        shutil.copytree(dataset, copy, ignore=shutil.ignore_patterns("LOCK"))
        clock.settle()
        if tracer is not None:
            tracer.recording = True
        started = perf_counter()
        elapsed, recovered = _recover(copy)
        if tracer is not None:
            tracer.recording = False
        clock.sample()
        recoveries.add(started, elapsed, clock.bracket_factor())
        shutil.rmtree(copy)
    connection.database.storage.abandon()

    # -- checks: the first execution of each template against the oracle -----
    correct = True
    for role, (template, _sql, expected) in templates.items():
        want = expected(r_rows, s_rows)
        if first[role] != want:
            correct = False
            print(f"{template}: result differs from the oracle "
                  f"({len(first[role] - want)} extra, {len(want - first[role])} missing)",
                  flush=True)
        if mismatched[role]:
            correct = False
            print(f"{template}: {mismatched[role]} executions differ from the first",
                  flush=True)
    for name in ("r", "s"):
        got = {t.values + (t.start, t.end) for t in recovered.relations[name]}
        if got != set(r_rows if name == "r" else s_rows):
            correct = False
            print(f"recovered relation {name} differs from the loaded one", flush=True)

    def figures(scaled: Optional[common.HostClock]) -> Dict[str, float]:
        values = {
            "setup_s": setups.median(scaled),
            "ops_per_s": statistics.median(len(round_plan) / busy for busy in rounds.values(scaled)),
            "peak_rss_mb": peak_rss,
            "recovery_s": recoveries.median(scaled),
        }
        for role, samples in latencies.items():
            values[f"{role}_p50_ms"] = samples.median(scaled) * 1000.0
            if role in TAILED:
                values[f"{role}_tail_ms"] = common.tail(
                    samples.values(scaled), spec["tail_level"]) * 1000.0
        return values

    values = figures(clock)
    if tracer is not None:
        scale = common.REF_LOOP_MS / clock.loop_ms()
        window = tracer.window_spans()
        shares = tracing.coverage(window, lambda name: name.startswith("op."))
        traced = tracing.engine_metrics(window, tracer.registry_delta, scale,
                                        sum(1 for span in window if span[0].startswith("op.")))
        traced.update(tracing.recovery_metrics(tracer.spans, scale))
        traced.update(tracing.operator_metrics(
            operators, spec["operator_runs"] * len(round_plan), scale))
        traced.update(tracing.client_server_zeros())
        traced.update({
            "host.ref_loop_ms": clock.loop_ms(),
            "trace.layer_coverage": min(shares.values()),
            "trace.ops_per_s": values["ops_per_s"],
        })
        return correct, attempted, failed, traced
    print("raw " + json.dumps(figures(None)), flush=True)
    return correct, attempted, failed, values
