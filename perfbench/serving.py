"""The served workload: ``serve-oltp``.

``python -m repro.serve`` runs as its own process on a durable directory
(``fsync`` on every commit) holding relations ``r`` and ``s`` and the
maintained view ``v = r ALIGN s ON r.cat = s.cat``.  One thread drives two
connections in a closed loop: a seeded scheduler picks which connection
sends its next statement, and a connection sends only after its previous
reply, so at most one request is in flight and transactions of the two
connections interleave.  Latency of an operation is the sum of its own
round trips; for a transaction, those of the attempt that committed, from
``BEGIN`` to the acknowledged ``COMMIT`` (a conflict is retried and counted;
the time of lost attempts counts in ``ops_per_s``).

A run attempts whole rounds of a fixed mix, then a ``CHECKPOINT``, a fixed
tail of commits, a read of both relations, ``SIGKILL`` and recovery of
copies of the directory.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Set, Tuple

from perfbench import common, oracle, tracing
from perfbench.tracing import Tracer

COLUMNS = ("k", "cat", "val")
#: The Drand distribution of the in-process workloads (100 categories,
#: lengths 1-30, starts over 16 years of days).
HORIZON = 16 * 365
CATEGORIES = 100
MAX_LENGTH = 30
#: Tuples per relation: an assumption, not taken from recorded traffic (the
#: repo records none).  Small enough that set-up and recovery take well
#: under a second; each view read scans the whole view, so its cost grows
#: with this size.
SIZE = 1500
KEY_SPACE = 1_000_000_000
SETUPS = 21
RECOVERIES = 25
TAIL_COMMITS = 20
#: p90: a run has ≈800 commits and ≈800 point reads, so ≈80 beyond.  Beyond
#: p93 the commit latencies climb steeply (p95 spread 20% between runs).
TAIL_LEVEL = 0.90
VIEW_SQL = "CREATE MATERIALIZED VIEW v AS SELECT * FROM (r ALIGN s ON r.cat = s.cat) x"

#: One round: (operation, relation).  The mix is an assumption, not taken
#: from recorded traffic: one kind of operation per role, each role equally
#: often, writes and point reads split evenly between ``r`` and ``s``, and
#: one CHECKPOINT a round so the WAL stays short.
ROUND: List[Tuple[str, Optional[str]]] = (
    [("write", "r")] * 4 + [("write", "s")] * 4
    + [("read", "r")] * 4 + [("read", "s")] * 4
    + [("view", None)] * 8
    + [("checkpoint", None)]
)

#: Operation → the end-to-end latency role it is reported under.
ROLE = {"write": "op1", "read": "op2", "view": "op3"}


class Model:
    """The committed state the benchmark expects: key → pieces per relation."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: Set[int] = set()
        self.pieces: Dict[str, Dict[int, List[Tuple[str, int, int, int]]]] = {}
        self.keys: Dict[str, List[int]] = {}
        for name in ("r", "s"):
            self.pieces[name] = {}
            self.keys[name] = []
            for _ in range(SIZE):
                cat, val, start, end = self._fresh_values()
                self._insert(name, self._fresh_key(), cat, val, start, end)

    def _fresh_key(self) -> int:
        while True:
            key = self.rng.randrange(KEY_SPACE)
            if key not in self.used:
                self.used.add(key)
                return key

    def _fresh_values(self) -> Tuple[str, int, int, int]:
        rng = self.rng
        start = rng.randrange(HORIZON - 1)
        end = min(HORIZON, start + 1 + rng.randrange(MAX_LENGTH))
        return f"C{rng.randrange(CATEGORIES):03d}", rng.randrange(1000), start, end

    def _insert(self, name, key, cat, val, start, end) -> None:
        if key not in self.pieces[name]:
            self.pieces[name][key] = []
            self.keys[name].append(key)
        self.pieces[name][key].append((cat, val, start, end))

    def rows(self, name: str, key: Optional[int] = None) -> Set[common.Row]:
        items = self.pieces[name].items() if key is None else [(key, self.pieces[name].get(key, []))]
        return {(k,) + piece for k, pieces in items for piece in pieces}

    def live_key(self, name: str) -> int:
        return self.rng.choice(self.keys[name])

    # -- the write transaction: statements now, effects once the commit is
    # acknowledged.  A read of one live key and a sequenced UPDATE of part of
    # its period, an INSERT of a fresh key and a DELETE of another live key,
    # so inserts and deletes balance and the key count stays level.

    def write(self, name: str):
        key = self.live_key(name)
        pieces = self.pieces[name][key]
        low, high = min(p[2] for p in pieces), max(p[3] for p in pieces)
        start = self.rng.randrange(low, high)
        end = self.rng.randrange(start + 1, high + 1)
        val = self.rng.randrange(1000)
        fresh = self._fresh_key()
        cat, fresh_val, fresh_start, fresh_end = self._fresh_values()
        gone = self.live_key(name)
        statements = [
            ("select", f"SELECT * FROM {name} WHERE k = {key}"),
            ("dml", f"UPDATE {name} SET val = {val} WHERE k = {key} FOR PERIOD [{start}, {end})"),
            ("dml", f"INSERT INTO {name} (k, cat, val) VALUES ({fresh}, '{cat}', {fresh_val}) "
                    f"VALID PERIOD [{fresh_start}, {fresh_end})"),
            ("dml", f"DELETE FROM {name} WHERE k = {gone} FOR PERIOD [0, {HORIZON})"),
        ]

        def apply() -> None:
            self._update(name, key, val, start, end)
            self._insert(name, fresh, cat, fresh_val, fresh_start, fresh_end)
            # A retried transaction replays its statements, so the keys it
            # names may be gone by the time it commits.
            if gone in self.pieces[name]:
                del self.pieces[name][gone]
                self.keys[name].remove(gone)

        return statements, apply

    def _update(self, name, key, val, start, end) -> None:
        if key in self.pieces[name]:
            split = []
            for cat, old, ts, te in self.pieces[name][key]:
                lo, hi = max(ts, start), min(te, end)
                if lo >= hi:
                    split.append((cat, old, ts, te))
                    continue
                if ts < lo:
                    split.append((cat, old, ts, lo))
                split.append((cat, val, lo, hi))
                if hi < te:
                    split.append((cat, old, hi, te))
            self.pieces[name][key] = split


def _rows(result) -> Set[common.Row]:
    order = [result.columns.index(c) for c in COLUMNS + ("ts", "te")]
    return {tuple(row[i] for i in order) for row in result.rows}


def _expected_view(model: Model, key: int) -> Set[common.Row]:
    mine = model.rows("r", key)
    if not mine:
        return set()
    cat = next(iter(mine))[1]
    partners = [row for row in model.rows("s") if row[1] == cat]
    return set(oracle.align(list(mine), partners, 1, 1))


class Server:
    """``python -m repro.serve`` (or its traced launcher) as a child process."""

    def __init__(self, root: str, path: str, dump: Optional[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        serve_args = ["--path", path, "--port", "0"]
        if dump is None:
            command = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            command = [sys.executable, os.path.join(root, "perfbench", "serve_traced.py"),
                       dump, *serve_args]
        self.process = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE)
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.kill()
            raise

    def _await_port(self, timeout: float) -> int:
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            deadline = perf_counter() + timeout
            while perf_counter() < deadline:
                if not selector.select(timeout=max(0.0, deadline - perf_counter())):
                    break
                line = self.process.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError("the server did not report its port")

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        """Shut down cleanly (checkpoint and release the directory)."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._close_pipe()

    def kill(self) -> float:
        """``SIGKILL``: a process crash; the OS page cache survives.
        Returns the process's peak resident set in MB (0 if already reaped)."""
        peak = 0.0
        if self.process.poll() is None:
            self.process.kill()
            _pid, _status, usage = os.wait4(self.process.pid, 0)
            peak = usage.ru_maxrss / 1024.0
        self.process.wait()
        self._close_pipe()
        return peak

    def _close_pipe(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()


def _setup(root: str, path: str, model: Model, dump: Optional[str]):
    """Load the relations and the view into a durable directory, start the
    server on it and connect both clients."""
    from repro.client import Client
    from repro.engine.database import Database
    from repro.sql.interface import Connection

    database = Database.open(path)
    for name in ("r", "s"):
        database.register_relation(name, common.relation_from_rows(COLUMNS, model.rows(name)))
    Connection(database).execute(VIEW_SQL)
    database.close()
    server = Server(root, path, dump)
    try:
        clients = [Client("127.0.0.1", server.port) for _ in range(2)]
    except BaseException:
        server.kill()
        raise
    return server, clients


class _Driver:
    """The two-connection closed loop and its bookkeeping."""

    def __init__(self, clients, model: Model, clock: common.HostClock,
                 tracer: Optional[Tracer], rng: random.Random) -> None:
        self.clients = clients
        self.model = model
        self.clock = clock
        self.tracer = tracer
        self.rng = rng
        self.latencies = {role: common.Timings() for role in ("op1", "op2", "op3")}
        self.client_rtts: List[float] = []
        self.epochs: List[int] = []
        self.attempted = self.failed = self.conflicts = self.mismatches = 0
        self.rounds = common.Timings()

    def send(self, client, kind: str, sql: str):
        """One round trip: ``(result, server error, seconds)``."""
        from repro.client import ServerError

        self.clock.maybe_sample()
        index = self.tracer.open(f"client.{kind}") if self.tracer is not None else -1
        result = error = None
        started = perf_counter()
        try:
            result = client.execute(sql)
        except ServerError as raised:
            error = raised
        elapsed = perf_counter() - started
        if self.tracer is not None:
            self.tracer.close(index)
        self.client_rtts.append(elapsed)
        return result, error, elapsed

    def make(self, operation: str, name: Optional[str]):
        """Statements, the effect on the model, and the check of the reply."""
        model = self.model
        if operation == "write":
            statements, apply = model.write(name)
            return [("begin", "BEGIN"), *statements, ("commit", "COMMIT")], apply, None
        if operation == "read":
            key = model.live_key(name)
            want = model.rows(name, key)
            return [("select", f"SELECT * FROM {name} WHERE k = {key}")], None, want
        if operation == "view":
            key = model.live_key("r")
            return [("view_select", f"SELECT * FROM v WHERE k = {key}")], None, _expected_view(model, key)
        return [("checkpoint", "CHECKPOINT")], None, None

    def round(self) -> None:
        from repro.client import ConflictError

        queue = list(ROUND)
        self.rng.shuffle(queue)
        round_started = perf_counter()
        round_busy = 0.0
        # Per connection: [operation, statements, apply, want, position,
        # spent, started, spent in the current attempt].
        current: List[Optional[list]] = [None, None]
        while queue or any(current):
            ready = [i for i in (0, 1) if current[i] is not None or queue]
            i = self.rng.choice(ready)
            if current[i] is None:
                operation, name = queue.pop()
                current[i] = [operation, *self.make(operation, name), 0, 0.0, perf_counter(), 0.0]
                self.attempted += 1
            op = current[i]
            operation, statements, apply, want, position = op[:5]
            kind, sql = statements[position]
            result, error, elapsed = self.send(self.clients[i], kind, sql)
            op[5] += elapsed
            op[7] += elapsed
            if isinstance(error, ConflictError) and kind == "commit":
                self.conflicts += 1
                op[4] = 0  # the server ended the transaction: replay from BEGIN
                op[7] = 0.0
                continue
            if error is not None:
                self.failed += 1
                print(f"{operation} failed at {sql!r}: {error}", flush=True)
                if position > 0 and statements[0][0] == "begin":
                    self.send(self.clients[i], "rollback", "ROLLBACK")
                current[i] = None
                continue
            if kind == "commit":
                self.epochs.append(result.rows[0][1])
                apply()
            if want is not None and _rows(result) != want:
                self.mismatches += 1
                print(f"{operation}: {sql!r} answered {sorted(_rows(result))}, "
                      f"expected {sorted(want)}", flush=True)
            op[4] += 1
            if op[4] == len(statements):
                if operation in ROLE:
                    self.latencies[ROLE[operation]].add(op[6], op[7])
                round_busy += op[5]
                current[i] = None
        self.rounds.add(round_started, round_busy)

    def transaction(self, operation: str, name: str) -> None:
        """One write transaction on the first connection, alone."""
        statements, apply, _want = self.make(operation, name)
        for kind, sql in statements:
            result, error, _elapsed = self.send(self.clients[0], kind, sql)
            if error is not None:
                raise RuntimeError(f"tail transaction failed at {sql!r}: {error}")
        self.epochs.append(result.rows[0][1])
        apply()


def run(root: str, seed: int, seconds: float, tracer: Optional[Tracer]
        ) -> Tuple[bool, int, int, Dict[str, float]]:
    base = common.work_dir(root, "serve-oltp")
    servers: List[Server] = []
    try:
        return _run(root, base, seed, seconds, tracer, servers)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(base, ignore_errors=True)


def _run(root, base, seed, seconds, tracer, servers):
    from repro.engine.database import Database
    from repro.sql.interface import Connection

    clock = common.HostClock()
    rng = random.Random(2 * seed + 1)
    model = Model(random.Random(seed))
    dump = os.path.join(base, "server-spans.json") if tracer is not None else None

    # -- set-up, repeated: load, start the server, connect ----------------------
    setups = common.Timings()
    clients: list = []
    for attempt in range(SETUPS):
        for client in clients:
            client.close()
        if servers:
            servers[-1].stop()
            shutil.rmtree(os.path.join(base, f"db{attempt - 1}"))
        clock.settle()
        path = os.path.join(base, f"db{attempt}")
        started = perf_counter()
        server, clients = _setup(root, path, model, dump)
        elapsed = perf_counter() - started
        clock.sample()
        setups.add(started, elapsed, clock.bracket_factor())
        servers.append(server)
    server = servers[-1]

    driver = _Driver(clients, model, clock, tracer, rng)
    # Warm-up: one read of each kind (the first one of a run pays for lazy
    # table and view derivation); checked, not timed.
    for operation, name in (("read", "r"), ("read", "s"), ("view", None)):
        statements, _apply, want = driver.make(operation, name)
        result, error, _elapsed = driver.send(clients[0], *statements[0])
        if error is not None or _rows(result) != want:
            raise RuntimeError(f"warm-up {operation} failed: {error}")

    # -- measured loop ------------------------------------------------------------
    driver.client_rtts = []
    if tracer is not None:
        tracer.begin_window(clients[0].metrics())
        server.signal(signal.SIGUSR1)
    clock.sample()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        driver.round()
    clock.sample()
    window_rtts = list(driver.client_rtts)
    window_ops = driver.attempted
    if tracer is not None:
        server.signal(signal.SIGUSR2)
        tracer.end_window(clients[0].metrics())
        server_trace = _await_dump(dump)

    # -- the crash: checkpoint, a tail of commits, the acknowledged state, kill --
    _result, error, _elapsed = driver.send(clients[0], "checkpoint", "CHECKPOINT")
    if error is not None:
        raise RuntimeError(f"final CHECKPOINT failed: {error}")
    for index in range(TAIL_COMMITS):
        driver.transaction("write", "rs"[index % 2])
    acknowledged = {}
    for name in ("r", "s"):
        result, error, _elapsed = driver.send(clients[0], "select", f"SELECT * FROM {name}")
        if error is not None:
            raise RuntimeError(f"reading {name} before the kill failed: {error}")
        acknowledged[name] = _rows(result)
    for client in clients:
        client.close()
    peak_rss = server.kill()

    # -- recovery of copies of the crashed directory -----------------------------
    crashed = os.path.join(base, f"db{SETUPS - 1}")
    recoveries = common.Timings()
    recovered = None
    for attempt in range(RECOVERIES):
        copy = os.path.join(base, f"recover{attempt}")
        shutil.copytree(crashed, copy, ignore=shutil.ignore_patterns("LOCK"))
        clock.settle()
        if tracer is not None:
            tracer.recording = True
        started = perf_counter()
        database = Database.open(copy)
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.recording = False
        clock.sample()
        recoveries.add(started, elapsed, clock.bracket_factor())
        if recovered is None:
            recovered = database
        else:
            database.storage.abandon()
            shutil.rmtree(copy)

    # -- checks ---------------------------------------------------------------------
    correct = driver.mismatches == 0
    for name in ("r", "s"):
        got = {t.values + (t.start, t.end) for t in recovered.relations[name]}
        if got != acknowledged[name]:
            correct = False
            print(f"recovered {name} differs from the last acknowledged state", flush=True)
        if acknowledged[name] != model.rows(name):
            correct = False
            print(f"acknowledged {name} differs from the committed transactions", flush=True)
    view = set(Connection(recovered).execute("SELECT * FROM v").rows)
    want = oracle.align(list(acknowledged["r"]), list(acknowledged["s"]), 1, 1)
    if view != want:
        correct = False
        print(f"recovered view differs from the oracle ({len(view - want)} extra, "
              f"{len(want - view)} missing)", flush=True)
    recovered.storage.abandon()
    if len(set(driver.epochs)) != len(driver.epochs):
        correct = False
        print("commit epochs repeat", flush=True)

    clock.sample()

    def figures(scaled: Optional[common.HostClock]) -> Dict[str, float]:
        values = {
            "setup_s": setups.median(scaled),
            "ops_per_s": statistics.median(len(ROUND) / busy for busy in driver.rounds.values(scaled)),
            "peak_rss_mb": peak_rss,
            "recovery_s": recoveries.median(scaled),
        }
        for role, samples in driver.latencies.items():
            values[f"{role}_p50_ms"] = samples.median(scaled) * 1000.0
            if role != "op3":
                values[f"{role}_tail_ms"] = common.tail(samples.values(scaled), TAIL_LEVEL) * 1000.0
        return values

    values = figures(clock)
    if tracer is not None:
        return correct, driver.attempted, driver.failed, _layer_values(
            tracer, server_trace, clock, window_rtts, window_ops, values["ops_per_s"])
    print("raw " + json.dumps(figures(None)), flush=True)
    return correct, driver.attempted, driver.failed, values


def _await_dump(path: str, timeout: float = 60.0) -> Dict[str, Any]:
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        if os.path.exists(path):
            with open(path) as handle:
                return json.load(handle)
        sleep(0.01)
    raise RuntimeError("the traced server wrote no spans")


def _layer_values(tracer, server_trace, clock, rtts, ops, ops_per_s) -> Dict[str, float]:
    """Per-layer figures: server spans (the window only) and the client's
    own spans, each layer's time per operation of the window."""
    scale = common.REF_LOOP_MS / clock.loop_ms()
    per_op = 1000.0 * scale / ops
    spans = server_trace["spans"]
    window = tracer.window_spans()
    values = tracing.engine_metrics(spans, tracer.registry_delta, scale, ops)
    values.update(tracing.recovery_metrics(tracer.spans, scale))
    # Operators are timed on the in-process workloads only.
    values.update(tracing.operator_metrics(None, 0, scale))
    for kind in ("begin", "dml", "commit", "select", "view_select"):
        values[f"client.{kind}_ms"] = sum(tracing.durations(window, f"client.{kind}")) * per_op
    requests = [s for s in spans if s[0] == "server.request"]
    handled = sum(s[2] - s[1] for s in requests)
    values["server.statement_ms"] = sum(tracing.durations(spans, "server.statement")) * per_op
    values["server.encode_ms"] = sum(tracing.durations(spans, "server.encode")) * per_op
    values["server.wire_ms"] = (sum(rtts) - handled) * per_op
    values["server.loop_busy_share"] = handled / (requests[-1][2] - requests[0][1])
    values["host.ref_loop_ms"] = clock.loop_ms()
    values["trace.layer_coverage"] = min(tracing.coverage(
        spans, lambda name: name == "server.request").values())
    values["trace.ops_per_s"] = ops_per_s
    return values
