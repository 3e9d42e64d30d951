"""Shared pieces: inputs, the host-speed reference loop, statistics, output."""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import random
import resource
import statistics
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[Any, ...]

#: Median time of :func:`reference_loop` inside a run on the host the
#: reference figures in the README come from.  A timing taken at time ``t``
#: is reported as ``raw × REF_LOOP_MS ÷ median loop time near t``, so a
#: host that runs the loop twice as slowly reports the same figures for the
#: same code.
REF_LOOP_MS = 1.65

#: Seconds between reference-loop samples while a workload runs.
REF_INTERVAL_S = 0.05

#: A timing is scaled by the median loop time within this many seconds of
#: it: the host alternates between fast and slow phases within seconds, so
#: one median per run (or a wide window) would scale one phase by another
#: phase's speed.
REF_WINDOW_S = 0.2


def reference_loop() -> int:
    """A fixed pure-Python load shaped like the engine's row work: build
    tuples, sort them, group them in a dict of lists."""
    rows = [((i * 7919) % 1009, i % 97, f"C{i % 50}") for i in range(1500)]
    rows.sort()
    groups: Dict[str, List[Tuple[int, int]]] = {}
    for a, b, key in rows:
        groups.setdefault(key, []).append((a, b))
    return len(groups)


class HostClock:
    """Samples the reference loop between operations, never during one, and
    scales a timing taken at time ``t`` to the reference host speed."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        started = perf_counter()
        reference_loop()
        self.times.append(started)
        self.samples.append(perf_counter() - started)

    def settle(self) -> None:
        """Collect the garbage earlier repetitions left, then sample: before a
        repeated set-up or recovery, so neither the loop sample nor the timed
        step pays for collecting another repetition's objects."""
        gc.collect()
        self.sample()

    def bracket_factor(self) -> float:
        """``REF_LOOP_MS ÷`` the mean of the last two samples.  A short
        repeated step (a set-up, a recovery) is timed between a sample
        before it and one after it, and scaled by these two alone: a wider
        window spans the neighbouring repetitions, which may have run in
        another of the host's phases."""
        return REF_LOOP_MS / (statistics.mean(self.samples[-2:]) * 1000.0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= REF_INTERVAL_S:
            self.sample()

    def loop_ms(self) -> float:
        return statistics.median(self.samples) * 1000.0

    def factor(self, at: float) -> float:
        """``REF_LOOP_MS ÷`` the median loop time near ``at`` (the six
        nearest samples when fewer lie within the window)."""
        low = bisect.bisect_left(self.times, at - REF_WINDOW_S)
        high = bisect.bisect_right(self.times, at + REF_WINDOW_S)
        if high - low < 5:
            middle = bisect.bisect_left(self.times, at)
            low, high = max(0, middle - 3), min(len(self.times), middle + 3)
        return REF_LOOP_MS / (statistics.median(self.samples[low:high]) * 1000.0)


class Timings:
    """Timed samples ``(taken at, seconds, scale factor)`` of one kind; a
    sample added without a factor is scaled by the loop times near it."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, Optional[float]]] = []

    def add(self, at: float, seconds: float, factor: Optional[float] = None) -> None:
        self.samples.append((at, seconds, factor))

    def values(self, clock: Optional[HostClock]) -> List[float]:
        """The samples scaled to the reference speed (raw without a clock)."""
        if clock is None:
            return [seconds for _at, seconds, _factor in self.samples]
        return [seconds * (clock.factor(at) if factor is None else factor)
                for at, seconds, factor in self.samples]

    def median(self, clock: Optional[HostClock]) -> float:
        return statistics.median(self.values(clock))


def tail(values: Sequence[float], level: float) -> float:
    """The nearest-rank ``level`` percentile.  Each workload fixes its level
    (README, "Percentiles") so that runs with different sample counts stay
    comparable; fewer than ten samples beyond it is reported."""
    ordered = sorted(values)
    if len(ordered) * (1.0 - level) < 10:
        print(f"tail: only {len(ordered)} samples for p{level * 100:g}", flush=True)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(level * len(ordered)) - 1))]


def drand(seed: int, size: int, categories: int, time_span: int, max_length: int,
          ) -> Tuple[List[Row], List[Row]]:
    """A Drand pair (§7): uniform starts over ``time_span``, lengths in
    ``[1, max_length]``; rows are ``(cat, min_dur, max_dur, ts, te)``.
    Every category gets the same number of tuples (then the rows are
    shuffled), so the join work of a pair varies little between seeds."""
    rng = random.Random(seed)
    pair = []
    for _side in range(2):
        rows = []
        for index in range(size):
            start = rng.randrange(time_span)
            low = rng.randint(1, 60)
            rows.append((
                f"C{index % categories:04d}",
                low,
                low + rng.randint(0, 300),
                start,
                start + 1 + rng.randrange(max_length),
            ))
        rng.shuffle(rows)
        pair.append(rows)
    return pair[0], pair[1]


def relation_from_rows(columns: Sequence[str], rows: Iterable[Row]):
    """A :class:`TemporalRelation` holding ``rows`` (values then ts, te)."""
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import Schema
    from repro.temporal.interval import Interval

    relation = TemporalRelation(Schema(list(columns)))
    for row in rows:
        relation.insert(row[:-2], Interval(row[-2], row[-1]))
    return relation


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def work_dir(root: str, label: str) -> str:
    """A fresh scratch directory for one run, inside the checkout."""
    path = os.path.join(root, ".perfbench", f"{label}-{os.getpid()}")
    os.makedirs(path, exist_ok=False)
    return path


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the result line (the last line of standard output)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
