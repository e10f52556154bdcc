"""Workloads ``serve-warm`` and ``serve-ingest``: the TCP server.

The server runs in its own process (``python -m repro serve`` on an
ephemeral port; under ``--trace 1`` the benchmark's launcher, which
wraps the layers and then calls ``run_server``).  Readiness is a
``PING`` answered ``ready=true``; the port is read from the server's
start line.  The server is stopped with SIGTERM, and a server that does
not report "drained cleanly" fails the run.  The load comes from this
process over two connections (``ReproClient``), each a closed loop.

``serve-warm`` sends a seeded shuffle over every registered query
after one untimed warm-up round; digests must equal the in-process
oracle at the server's sf/seed.  ``serve-ingest`` commits a fixed-size
``orders``+``lineitem`` batch over wire ``INGEST`` on a fixed schedule
from one connection while the other reads a fixed query mix; each
read's digest must equal the oracle at a snapshot between the commits
acknowledged before it was sent and those sent before its reply.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    ROOT,
    Report,
    geomean,
    median,
    out_path,
    percentile,
    vm_hwm_mb,
    wait_until,
)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
BOOT_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
CONNECTIONS = 2

#: serve-ingest: reads beside appends.
READ_MIX = ("q3", "q4", "q5", "q10", "q12", "q18", "c1", "ssb_q2_1")
INGEST_INTERVAL_S = 3.0
INGEST_LINEITEM_ROWS = 1024

_START_LINE = re.compile(r"serving \d+ queries .* on ([\d.]+):(\d+)")


class Server:
    """One server process, from boot to a checked SIGTERM drain."""

    def __init__(self, args, traced: bool) -> None:
        self.spans_path = out_path("spans.json") if traced else None
        self.log_path = out_path(f"server-{time.monotonic_ns()}.log")
        if traced:
            cmd = [sys.executable, str(HERE / "launch_server.py"),
                   "--spans", str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        cmd += ["--sf", repr(args.sf), "--seed", str(args.seed)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(self.log_path, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.host, self.port = "127.0.0.1", None
        try:
            self._wait_ready(t0)
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - t0

    def _wait_ready(self, t0: float) -> None:
        from repro.errors import ReproError
        from repro.service.client import ReproClient

        while time.perf_counter() - t0 < BOOT_TIMEOUT:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {self.log()}"
                )
            if self.port is None:
                match = _START_LINE.search(self.log())
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            if self.port is not None:
                try:
                    with ReproClient(self.host, self.port, io_timeout=10) as c:
                        if c.ping().get("ready"):
                            return
                except ReproError:
                    pass
            time.sleep(0.02)
        raise RuntimeError(f"server not ready after {BOOT_TIMEOUT}s")

    def log(self) -> str:
        return self.log_path.read_text()

    def client(self):
        from repro.service.client import ReproClient

        return ReproClient(self.host, self.port, io_timeout=120)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM, wait; True when the server drained cleanly."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        finally:
            self._log.close()
        return self.proc.returncode == 0 and "drained cleanly" in self.log()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _stop(server: Server, report: Report) -> None:
    report.attempted += 1
    if not server.stop():
        report.fail(f"server did not drain cleanly: {server.log()[-400:]}")


def _boot(args, report: Report, traced: bool, repeats: int):
    """Boot ``repeats`` servers (all but the last are stopped at once);
    returns the last one and every boot time."""
    boots = []
    for i in range(repeats):
        server = Server(args, traced and i == repeats - 1)
        boots.append(server.boot_s)
        if i < repeats - 1:
            _stop(server, report)
    return server, boots


# ----------------------------------------------------------------------
# Closed-loop reads
# ----------------------------------------------------------------------
def _reader(server: Server, queries, seed: int, deadline: float, out: list,
            commits=None) -> None:
    """Send queries one at a time until ``deadline``; each record is
    ``(query, sent, received, digest-or-error, lo, hi, retries)``."""
    from repro.errors import EngineSaturated, ReproError

    rng = random.Random(seed)
    order: list[str] = []
    with server.client() as client:
        while time.perf_counter() < deadline:
            if not order:
                order = list(queries)
                rng.shuffle(order)
            name = order.pop()
            lo = commits.acked if commits else 0
            retries = 0
            sent = time.perf_counter()
            while True:
                try:
                    outcome = client.query_once(name)["digest"]
                except EngineSaturated as exc:
                    retries += 1
                    time.sleep(max(0.01, float(exc.retry_after or 0)))
                    continue
                except ReproError as exc:
                    outcome = f"error: {type(exc).__name__}: {exc}"
                break
            received = time.perf_counter()
            hi = commits.sent if commits else 0
            out.append((name, sent, received, outcome, lo, hi, retries))


def _warm_up(server: Server, queries) -> None:
    with server.client() as client:
        for name in queries:
            client.query_once(name)


def _cells(records, writes) -> dict[str, list[float]]:
    """Latencies per read query, plus the commits as cell ``INGEST``
    (timed from each commit's due time)."""
    cells: dict[str, list[float]] = {}
    for name, sent, received, *_ in records:
        cells.setdefault(name, []).append(received - sent)
    if writes:
        cells["INGEST"] = [acked - due for due, _sent, acked, _ in writes]
    return cells


def _cell_total(records, writes) -> float:
    return sum(median(v) for v in _cells(records, writes).values())


# ----------------------------------------------------------------------
# Ingest batches and the snapshot oracle
# ----------------------------------------------------------------------
def make_batches(catalog, seed: int, count: int) -> list[dict]:
    """``count`` wire payloads of new orders with exactly
    :data:`INGEST_LINEITEM_ROWS` lineitems, drawn from existing rows
    (seeded) under fresh order keys."""
    import numpy as np

    orders = catalog.get("orders")
    lineitem = catalog.get("lineitem")
    okeys = orders.column("o_orderkey").data
    lkeys = lineitem.column("l_orderkey").data
    by_key = np.argsort(lkeys, kind="stable")
    sorted_keys = lkeys[by_key]
    rng = np.random.default_rng(seed)
    next_key = int(okeys.max()) + 1
    batches = []
    for _ in range(count):
        picked_orders, picked_lines = [], []
        while sum(len(p) for p in picked_lines) < INGEST_LINEITEM_ROWS:
            row = int(rng.integers(len(okeys)))
            lo, hi = np.searchsorted(sorted_keys, okeys[row], side="left"), \
                np.searchsorted(sorted_keys, okeys[row], side="right")
            if hi > lo:
                picked_orders.append(row)
                picked_lines.append(by_key[lo:hi])
        lines = np.concatenate(picked_lines)[:INGEST_LINEITEM_ROWS]
        line_owner = np.concatenate(
            [np.full(len(p), i) for i, p in enumerate(picked_lines)]
        )[:INGEST_LINEITEM_ROWS]
        used = sorted(set(line_owner.tolist()))
        new_key = {i: next_key + j for j, i in enumerate(used)}
        next_key += len(used)
        o_rows = np.asarray([picked_orders[i] for i in used])
        o_payload = {
            name: orders.column(name).take(o_rows).to_pylist()
            for name in orders.column_names
        }
        o_payload["o_orderkey"] = [new_key[i] for i in used]
        l_payload = {
            name: lineitem.column(name).take(lines).to_pylist()
            for name in lineitem.column_names
        }
        l_payload["l_orderkey"] = [new_key[int(i)] for i in line_owner]
        batches.append(json.loads(json.dumps(
            {"orders": o_payload, "lineitem": l_payload}
        )))
    return batches


class SnapshotOracle:
    """In-process digests of each query at snapshot ``k`` = the base
    catalog plus the first ``k`` batches, committed the way the server
    commits them."""

    def __init__(self, catalog, specs, batches) -> None:
        self.catalog, self.specs, self.batches = catalog, specs, batches
        self.applied = 0

    def digests(self, wanted: set[tuple[str, int]]) -> dict:
        from repro.core.runner import run_query
        from repro.service.server import decode_wire_table
        from repro.service.workload import result_digest

        out = {}
        for k in sorted({k for _, k in wanted}):
            while self.applied < k:
                batch = self.catalog.begin_ingest()
                for name, payload in self.batches[self.applied].items():
                    base = self.catalog.get(name)
                    batch.stage(name, decode_wire_table(name, base, payload))
                batch.commit()
                self.applied += 1
            for name in sorted(q for q, kk in wanted if kk == k):
                result = run_query(self.specs[name], self.catalog)
                out[(name, k)] = result_digest(result.table)
        return out


class _Commits:
    def __init__(self) -> None:
        self.sent = 0
        self.acked = 0


def _writer(server, batches, start, deadline, commits, lock, out) -> None:
    """Commit batch ``i`` when it falls due at ``start + (i+1)·interval``;
    records ``(due, sent, acked, outcome)``."""
    from repro.errors import ReproError

    with server.client() as client:
        for i, payload in enumerate(batches):
            due = start + (i + 1) * INGEST_INTERVAL_S
            if due >= deadline:
                return
            wait_until(due)
            with lock:
                commits.sent += 1
            sent = time.perf_counter()
            try:
                client.ingest(payload)
                outcome = "ok"
            except ReproError as exc:
                outcome = f"error: {type(exc).__name__}: {exc}"
            acked = time.perf_counter()
            with lock:
                if outcome == "ok":
                    commits.acked += 1
            out.append((due, sent, acked, outcome))
            if outcome != "ok":
                return  # later snapshots would no longer be prefixes


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def _session(server, args, names, seconds, seed, batches=None):
    """One timed window; returns (reads, commits, window start, end)."""
    reads: list[list] = [[] for _ in range(CONNECTIONS)]
    writes: list[tuple] = []
    start = time.perf_counter()
    deadline = start + seconds
    if batches is None:
        threads = [
            threading.Thread(target=_reader, args=(
                server, names, seed * 1000 + i, deadline, reads[i]))
            for i in range(CONNECTIONS)
        ]
    else:
        commits, lock = _Commits(), threading.Lock()
        threads = [
            threading.Thread(target=_reader, args=(
                server, names, seed * 1000, deadline, reads[0], commits)),
            threading.Thread(target=_writer, args=(
                server, batches, start, deadline, commits, lock, writes)),
        ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = [r for part in reads for r in part]
    end = max([r[2] for r in records] + [w[2] for w in writes] + [deadline])
    return records, writes, start, end


def _check_reads(report: Report, records, truth) -> None:
    """``truth(name, lo, hi)`` -> the set of digests a correct read may
    return."""
    for name, _sent, _recv, outcome, lo, hi, _retries in records:
        report.attempted += 1
        if outcome not in truth(name, lo, hi):
            report.fail(f"{name} (snapshots {lo}..{hi}): {outcome[:80]}")


def _check_writes(report: Report, writes) -> None:
    for _due, _sent, _acked, outcome in writes:
        report.attempted += 1
        if outcome != "ok":
            report.fail(f"ingest commit: {outcome}")


def _oracle_truth(args, names, phases, batches, corrupt: bool):
    """The allowed digests per read, from one in-process oracle."""
    from repro.service.server import build_default_registry

    catalog, specs = build_default_registry(args.sf, args.seed)
    oracle = SnapshotOracle(catalog, specs, batches or [])
    wanted = {
        (r[0], k) for records in phases for r in records
        for k in range(r[4], r[5] + 1)
    } | {(name, 0) for name in names}
    digests = oracle.digests(wanted)
    if corrupt:
        first = min(digests)
        digests[first] = "0" * 64
    return lambda name, lo, hi: {
        digests[(name, k)] for k in range(lo, hi + 1)
    }


def _put_common(report, records, writes, start, end) -> None:
    meds = [median(v) for v in _cells(records, writes).values()]
    flat = [r[2] - r[1] for r in records]
    n = len(flat)
    report.put("total_s", sum(meds), n + len(writes))
    report.put("geomean_ms", geomean(meds) * 1e3, n + len(writes))
    report.put("p50_ms", percentile(flat, 50) * 1e3, n)
    report.put("p95_ms", percentile(flat, 95) * 1e3, n)
    report.put("ops_per_s", n / (end - start), n)


def _note_workload(report, workload, records, writes, start, end) -> None:
    flat = [r[2] - r[1] for r in records]
    n = len(flat)
    prefix = "serve" if workload == "serve-warm" else "ingest_read"
    report.note(f"{prefix}_p50_ms", percentile(flat, 50) * 1e3, "ms", n)
    report.note(f"{prefix}_p99_ms", percentile(flat, 99) * 1e3, "ms", n)
    report.note(f"{prefix}_rps", n / (end - start), "1/s", n)
    if writes:
        lat = [w[2] - w[0] for w in writes]
        lag = [w[1] - w[0] for w in writes]
        report.note("ingest_commit_p50_ms", median(lat) * 1e3, "ms", len(lat))
        report.note("ingest_commit_max_ms", max(lat) * 1e3, "ms", len(lat))
        report.note("ingest_generator_lag_max_ms", max(lag) * 1e3, "ms", len(lag))


def run(args, report: Report) -> None:
    ingest = args.workload == "serve-ingest"
    setup: list[float] = []
    batches = None
    phases = []  # (records, writes, start, end, traced, STATS body)
    servers: list[Server] = []
    try:
        for traced in ((False, True) if args.trace else (False,)):
            seconds = args.seconds / 2 if args.trace else args.seconds
            server, boots = _boot(
                args, report, traced, 1 if args.trace else SETUP_REPEATS
            )
            servers.append(server)
            setup.extend(boots)
            with server.client() as probe:
                registered = probe.stats()["server"]["queries"]
            names = list(READ_MIX) if ingest else registered
            if ingest and batches is None:
                from repro.service.server import build_default_registry

                catalog, _ = build_default_registry(args.sf, args.seed)
                count = int(args.seconds / INGEST_INTERVAL_S) + 1
                batches = make_batches(catalog, args.seed, count)
                del catalog
            _warm_up(server, names)
            records, writes, start, end = _session(
                server, args, names, seconds, args.seed, batches
            )
            with server.client() as probe:
                stats = probe.stats()
            rss = server.peak_rss_mb()
            _stop(server, report)
            phases.append((records, writes, start, end, traced, stats))
    finally:
        for server in servers:
            server.kill()

    truth = _oracle_truth(
        args, names, [p[0] for p in phases], batches, args.corrupt_expected
    )
    for records, writes, *_ in phases:
        _check_reads(report, records, truth)
        _check_writes(report, writes)

    records, writes, start, end, _, stats = phases[0]
    _note_workload(report, args.workload, records, writes, start, end)
    if not args.trace:
        _put_common(report, records, writes, start, end)
        report.put("setup_s", median(setup), len(setup))
        report.put("peak_rss_mb", rss, 1)
        return
    _put_layers(report, phases, servers[-1])


def _put_layers(report: Report, phases, server: Server) -> None:
    from tracing import layer_metrics, inclusive_times, uncovered_share

    base = _cell_total(phases[0][0], phases[0][1])
    records, writes, start, end, _, stats = phases[1]
    with open(server.spans_path) as fh:
        dump = json.load(fh)
    spans = [tuple(s) for s in dump["spans"]]
    ops = len(records) + len(writes)
    for name, value in layer_metrics(
        spans, dump["events"], dump["queries"], start, end, ops
    ).items():
        report.put(name, value, ops)
    waits = [b - a for a, b in dump["waits"] if start <= a <= end]
    report.put("service.queue_wait_s", sum(waits) / max(1, ops), len(waits))
    report.put("service.retries", sum(r[6] for r in records), len(records))
    server_side = inclusive_times(spans, start, end)
    attributed = sum(server_side.get(n, 0.0) for n in (
        "service.decode", "analysis.precheck", "service.execute",
        "service.digest", "service.encode", "service.wire_table_decode",
    )) + sum(waits)
    client = sum(r[2] - r[1] for r in records) + sum(w[2] - w[1] for w in writes)
    report.put("service.unattributed_ms", (client - attributed) / max(1, ops) * 1e3, ops)
    cache = stats.get("cache") or {}
    report.put("cache.hit_rate", cache.get("hit_rate", 0.0), 1)
    for key in ("evictions", "bytes", "extensions", "extension_rebuilds"):
        report.put(f"cache.{key}", cache.get(key, 0), 1)
    datagen = [s[3] - s[2] for s in spans if s[1] == "setup.datagen"]
    report.put("setup.datagen_s", sum(datagen), len(datagen))
    report.put("trace.overhead_share", _cell_total(records, writes) / base - 1.0, ops)
    report.put("trace.unattributed_share", uncovered_share(spans, [(start, end)]), ops)
    for name in ("core.geomean_ratio.predtrans_over_nopredtrans",
                 "core.geomean_ratio.predtrans_over_bloomjoin",
                 "core.predtrans_losses"):
        report.put(name, 0.0, 0)
