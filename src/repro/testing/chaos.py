"""Deterministic chaos runner: one fault table swept over three surfaces.

The resilience invariant this module exists to check, on every case:

    Under any injected fault a query either returns a result
    **byte-identical** to the clean serial eager oracle, or raises
    exactly one **clean typed error** (a :class:`~repro.errors.ReproError`
    subclass) — never a wrong answer, a deadlock, or a leaked worker
    slot.

Every scenario is one row of :data:`CASES`: a seeded
:class:`~repro.testing.faults.FaultRule` plus the **surface** it is
injected on:

* ``engine`` — an in-process :class:`~repro.service.engine.Engine`,
  a fresh one per cell of the full grid (all four strategies ×
  lazy/eager × threads {1, 4});
* ``network`` — one long-lived asyncio
  :class:`~repro.service.server.QueryServer` and its engine, queried
  over the wire per strategy × lazy/eager (``net.accept`` /
  ``net.read`` / ``net.write`` delays, drops and resets, plus
  engine-side faults);
* ``ingest`` — reader threads cycling the strategies race an appender
  committing multi-table delta batches through
  :meth:`~repro.service.engine.Engine.ingest`, with faults at the
  transactional seams (``ingest.stage``, ``ingest.commit``) and in the
  shared cache's delta-extension path (``cache.extend``).

Every attempt — a submitted query, a wire request, a read or an append
beside the storm — is classified by the one :func:`_classify`, and
every cell passes the one verdict of :func:`_cell`: the outcome is
clean, the *same* engine (or server) recovers to serve a clean
identical query afterwards, no admission slot leaked, and the fault
fired wherever the strategy reaches its point.  Surface-wide blocks
add what a single cell cannot show: a 4-worker ``concurrency`` replay
(engine); ``drain_under_load``, the ``invalid_plan`` pre-admission
gate and ``metrics_reconciliation`` of the exported counters
(network); and ``snapshots`` (ingest), which demands that each
strategy's committed prefix snapshots have pairwise-distinct oracle
digests — every ingest read must match one snapshot *of its own
strategy*, and that pinned-snapshot check is vacuous if a read that
ignored every commit would digest the same.

CLI (the CI ``chaos``, ``serve`` and ``ingest-chaos`` jobs)::

    python -m repro.testing.chaos [--network | --ingest] [--quick] \\
        --json record.json

exits non-zero iff any cell or block violated the invariant, and
writes the ``repro-bench/v5`` / ``v7`` / ``v8`` record either way.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from functools import partial
from typing import Callable, Collection

import numpy as np

from ..core.runner import MATERIALIZE_MODES, STRATEGIES, RunConfig
from ..errors import PlanValidationError, ReproError
from ..obs import MetricsRegistry, ObsCollector, parse_prometheus_text
from ..plan.query import QuerySpec
from ..service.client import ReproClient
from ..service.engine import Engine, EngineSnapshot
from ..service.loadtest import SCHEMA_V7
from ..service.server import ServerConfig, ServerThread
from ..service.workload import result_digest
from ..storage.catalog import Catalog
from ..storage.table import Table
from ..tpch import generate_tpch
from ..tpch.queries import get_query
from .faults import FaultPlan, FaultRule, inject

#: Small enough that the full grid sweeps in seconds, large enough
#: that every strategy builds real filters and multiple chunks exist.
CHAOS_SF = 0.002
CHAOS_QUERY = 3
#: The ingest surface's query.  At CHAOS_SF every delta batch changes
#: q9's result under every strategy, so each committed prefix snapshot
#: has its own digest; q3's date window misses the held-back tail of
#: the date-sorted ``orders`` table and would accept a read that
#: ignored every commit.
INGEST_QUERY = 9
#: Forces several storage chunks at CHAOS_SF so ``chunk.kernel`` fires
#: even under the serial executor.
CHAOS_PARTITION_ROWS = 64
#: A faulted future not resolving within this window counts as a hang
#: (the invariant's "never a deadlock" clause).
HANG_SECONDS = 60.0
#: Clients under a storm never wait longer than this for a response —
#: a server that stalls past it is a hang by definition.
NET_IO_TIMEOUT = 5.0
#: ``--quick`` grid: the filterless baseline and the paper's strategy.
QUICK_STRATEGIES = ("nopredtrans", "predtrans")
#: The concurrency block replays each of these queries twice.
CONCURRENCY_QUERIES = (3, 5, 10)

#: Delta batches the appender commits per case; valid snapshots are the
#: strict prefixes ``base + batches[:k]`` for ``k`` in 0..INGEST_BATCHES.
INGEST_BATCHES = 3
#: Tables receiving delta rows (both staged in every batch, so each
#: commit is a genuinely multi-table transaction).
INGEST_TABLES = ("orders", "lineitem")
#: Fraction of each ingest table's rows held back as delta batches.
INGEST_HOLDBACK = 0.10
#: Queries each reader thread issues during the storm.
INGEST_READS = 6

#: Record schema generation and kind per surface.
RECORD_KINDS = {
    "engine": ("repro-bench/v5", "chaos-sweep"),
    "network": (SCHEMA_V7, "network-chaos-sweep"),
    "ingest": ("repro-bench/v8", "chaos-ingest"),
}


@dataclass(frozen=True)
class ChaosCase:
    """One named fault scenario on one surface.

    ``warm`` runs clean queries through the engine *before* injection
    so cache-read points (``cache.get``, ``cache.extend``) have entries
    to fire on; cold cases leave the cache empty so build/put points
    fire.
    """

    surface: str
    name: str
    rule: FaultRule
    warm: bool = False


CASES: tuple[ChaosCase, ...] = (
    # engine: every named fault point, raise + delay flavours, first
    # and later hits, plus the warm corruption case.
    ChaosCase("engine", "filter-build-raise", FaultRule("filter.build", "raise")),
    ChaosCase(
        "engine", "filter-build-raise-2nd", FaultRule("filter.build", "raise", nth=2)
    ),
    ChaosCase(
        "engine", "filter-build-delay", FaultRule("filter.build", "delay", delay=0.002)
    ),
    ChaosCase("engine", "cache-put-raise", FaultRule("cache.put", "raise")),
    ChaosCase("engine", "cache-get-raise", FaultRule("cache.get", "raise"), warm=True),
    ChaosCase(
        "engine", "cache-get-corrupt", FaultRule("cache.get", "corrupt"), warm=True
    ),
    ChaosCase("engine", "chunk-kernel-raise", FaultRule("chunk.kernel", "raise")),
    ChaosCase(
        "engine", "chunk-kernel-raise-3rd", FaultRule("chunk.kernel", "raise", nth=3)
    ),
    ChaosCase("engine", "worker-submit-raise", FaultRule("worker.submit", "raise")),
    # network: ``nth=2`` on the read disconnect skips the pre-QUERY
    # read hit so the reset lands *while the query is in flight* — the
    # abandoned query must be cancelled and its worker slot reclaimed.
    ChaosCase(
        "network", "net-accept-disconnect", FaultRule("net.accept", "disconnect")
    ),
    ChaosCase("network", "net-accept-drop", FaultRule("net.accept", "drop")),
    ChaosCase(
        "network", "net-read-disconnect-idle", FaultRule("net.read", "disconnect")
    ),
    ChaosCase(
        "network",
        "net-read-disconnect-midquery",
        FaultRule("net.read", "disconnect", nth=2),
    ),
    ChaosCase(
        "network",
        "net-read-delay",
        FaultRule("net.read", "delay", delay=0.002, count=None),
    ),
    ChaosCase("network", "net-write-disconnect", FaultRule("net.write", "disconnect")),
    ChaosCase("network", "net-write-drop", FaultRule("net.write", "drop")),
    ChaosCase("network", "engine-submit-raise", FaultRule("worker.submit", "raise")),
    ChaosCase("network", "engine-filter-raise", FaultRule("filter.build", "raise")),
    # ingest: the ``cache.extend`` rules are unlimited-shot
    # (``count=None``) so *every* extension attempt faults — together
    # with the warm-up entries this guarantees at least one trigger
    # regardless of reader/appender interleaving.
    ChaosCase("ingest", "ingest-stage-raise", FaultRule("ingest.stage", "raise")),
    ChaosCase("ingest", "ingest-commit-raise", FaultRule("ingest.commit", "raise")),
    ChaosCase(
        "ingest", "ingest-commit-raise-2nd", FaultRule("ingest.commit", "raise", nth=2)
    ),
    ChaosCase(
        "ingest",
        "ingest-commit-delay",
        FaultRule("ingest.commit", "delay", delay=0.005),
    ),
    ChaosCase(
        "ingest",
        "cache-extend-raise",
        FaultRule("cache.extend", "raise", count=None),
        warm=True,
    ),
    ChaosCase(
        "ingest",
        "cache-extend-delay",
        FaultRule("cache.extend", "delay", delay=0.002, count=None),
        warm=True,
    ),
)
#: The network rows of :data:`CASES`.
NETWORK_CASES = tuple(c for c in CASES if c.surface == "network")


def _config(
    strategy: str = "predtrans", materialize: str = "lazy", threads: int = 1
) -> RunConfig:
    """The run configuration of every chaos query."""
    return RunConfig(
        strategy=strategy,
        materialize=materialize,
        threads=threads,
        partition_rows=CHAOS_PARTITION_ROWS,
    )


def oracle_digest(
    spec: QuerySpec, catalog: Catalog, strategy: str = "predtrans"
) -> str:
    """Digest of the clean serial eager baseline (the repo's oracle).

    The oracle is per *strategy*: output row order legitimately differs
    between pre-filtering and non-pre-filtering strategies (same rows,
    different join-input order), so each grid cell compares against the
    eager serial run of its own strategy — the identity contract the
    lazy/parallel/cached paths all promise.
    """
    from ..core.runner import run_query

    result = run_query(spec, catalog, config=_config(strategy, "eager"))
    return result_digest(result.table)


def _classify(call: Callable[[], str], accepted: Collection[str]) -> str:
    """Run one attempt and classify what came back.

    ``call`` performs the attempt and returns its result digest.
    ``identical`` (the digest is one of ``accepted``) and
    ``error:<Type>`` are the two clean outcomes; the upper-case labels
    are invariant violations.
    """
    try:
        digest = call()
    except ReproError as exc:
        return f"error:{type(exc).__name__}"
    except FutureTimeout:
        return "HANG"
    except Exception as exc:  # untyped leakage is a violation
        return f"UNTYPED:{type(exc).__name__}"
    return "identical" if digest in accepted else "WRONG_ANSWER"


def _clean(outcome: str) -> bool:
    return outcome == "identical" or outcome.startswith("error:")


def _served(engine: Engine, spec: QuerySpec, config: RunConfig | None = None) -> str:
    """An in-process attempt: submit ``spec``, digest its result."""
    future = engine.submit(spec, config)
    return result_digest(future.result(timeout=HANG_SECONDS).table)


def _wire(
    host: str,
    port: int,
    query: str,
    strategy: str | None = None,
    materialize: str | None = None,
    io_timeout: float = NET_IO_TIMEOUT,
) -> str:
    """A wire attempt on a fresh connection — exactly what a real
    client retry does after a transport loss."""
    with ReproClient(host, port, connect_timeout=5.0, io_timeout=io_timeout) as client:
        return client.query_once(
            query, strategy=strategy, materialize=materialize, timeout_ms=30_000
        )["digest"]


def _gather(futures: list[Future], timeout: float) -> list[list[str]]:
    """The outcome lists of ``futures``; ``["HANG"]`` for any task not
    finished within ``timeout``."""
    wait(futures, timeout=timeout)
    return [f.result() if f.done() else ["HANG"] for f in futures]


def _cell(
    case: ChaosCase,
    plan: FaultPlan,
    *,
    outcome: str,
    recovered: bool,
    slots_clean: bool,
    checks: bool = True,
    **fields: object,
) -> dict:
    """One cell's record and its verdict.

    The fault must fire wherever the strategy reaches its point: the
    only exemption is a ``filter.build`` fault under ``nopredtrans``,
    which builds no filter.  ``checks`` carries a surface's extra
    conditions.
    """
    filterless = fields.get("strategy") == "nopredtrans"
    must_trigger = not (case.rule.point == "filter.build" and filterless)
    ok = (
        _clean(outcome)
        and recovered
        and slots_clean
        and (bool(plan.triggered) or not must_trigger)
        and checks
    )
    return {
        "case": case.name,
        **fields,
        "outcome": outcome,
        "faults_triggered": len(plan.triggered),
        "recovered": recovered,
        "slots_clean": slots_clean,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Engine surface
# ----------------------------------------------------------------------


def run_case(
    case: ChaosCase,
    spec: QuerySpec,
    catalog: Catalog,
    oracle: str,
    strategy: str,
    materialize: str,
    threads: int,
    seed: int,
) -> dict:
    """One (fault, strategy, materialize, threads) cell of the engine grid."""
    plan = FaultPlan([case.rule], seed=seed)
    config = _config(strategy, materialize, threads)
    with Engine(catalog, config=config, workers=2) as engine:
        attempt = partial(_classify, partial(_served, engine, spec), {oracle})
        if case.warm and (warm := attempt()) != "identical":
            outcome = f"WARMUP_{warm}"
        else:
            with inject(plan):
                outcome = attempt()
        # Recovery: the same engine must serve a clean, identical run
        # after the fault — no leaked admission slot, no poisoned
        # cache entry, no wedged pool.
        recovered = attempt() == "identical"
        slots_clean = engine.pending == 0
        cache = engine.cache_stats()
        corruptions = 0 if cache is None else cache.corruptions
    return _cell(
        case,
        plan,
        outcome=outcome,
        recovered=recovered,
        slots_clean=slots_clean,
        # The corrupted entry must have been *detected*, not served.
        checks=(
            case.rule.action != "corrupt"
            or (corruptions > 0 and outcome == "identical")
        ),
        strategy=strategy,
        materialize=materialize,
        threads=threads,
        cache_corruptions=corruptions,
    )


def concurrency_block(catalog: Catalog, sf: float, seed: int) -> dict:
    """Digest-identity of a 4-worker concurrent replay, clean and under
    faults.

    Every item must individually be byte-identical to its serial
    oracle or (in the faulted pass) a typed error; the engine must
    drain back to zero pending slots both times.
    """
    specs = [get_query(qid, sf=sf) for qid in CONCURRENCY_QUERIES for _ in range(2)]
    oracles = {spec.name: oracle_digest(spec, catalog) for spec in specs[::2]}

    def replay(plan: FaultPlan) -> tuple[list[str], bool]:
        with Engine(catalog, config=_config(), workers=4) as engine:
            with inject(plan), ThreadPoolExecutor(len(specs)) as pool:
                futures = [
                    pool.submit(
                        _classify, partial(_served, engine, s), {oracles[s.name]}
                    )
                    for s in specs
                ]
            return [f.result() for f in futures], engine.pending == 0

    clean, clean_slots = replay(FaultPlan([], seed=seed))
    plan = FaultPlan([FaultRule("chunk.kernel", "raise", nth=3, count=2)], seed=seed)
    faulted, faulted_slots = replay(plan)
    return {
        "stream_length": len(specs),
        "workers": 4,
        "clean_outcomes": clean,
        "faulted_outcomes": faulted,
        "faults_triggered": len(plan.triggered),
        "slots_clean": clean_slots and faulted_slots,
        "ok": (
            all(o == "identical" for o in clean)
            and all(_clean(o) for o in faulted)
            and clean_slots
            and faulted_slots
        ),
    }


def _engine_surface(
    cases: list[ChaosCase],
    sf: float,
    seed: int,
    strategies: tuple[str, ...],
    threads_grid: tuple[int, ...],
) -> tuple[list[dict], dict[str, dict], dict]:
    catalog = generate_tpch(sf=sf, seed=seed)
    spec = get_query(CHAOS_QUERY, sf=sf)
    oracles = {s: oracle_digest(spec, catalog, s) for s in strategies}
    cells = [
        run_case(case, spec, catalog, oracles[s], s, m, t, seed)
        for case in cases
        for s in strategies
        for m in MATERIALIZE_MODES
        for t in threads_grid
    ]
    return cells, {"concurrency": concurrency_block(catalog, sf, seed)}, oracles


# ----------------------------------------------------------------------
# Network surface: the same invariant across the wire
# ----------------------------------------------------------------------

#: Registered name of the deliberately-malformed plan the network sweep
#: serves (unknown column), exercising the pre-admission analyzer gate.
INVALID_QUERY_NAME = "chaos-invalid-plan"


def _invalid_spec() -> QuerySpec:
    """A statically-invalid plan (unknown column ``l.nonexistent``)."""
    from ..expr.nodes import col, lit
    from ..plan.query import Relation

    return QuerySpec(
        name=INVALID_QUERY_NAME,
        relations=[
            Relation(
                alias="l",
                table="lineitem",
                predicate=col("l.nonexistent").gt(lit(1)),
            )
        ],
    )


def _settle_pending(engine: Engine, deadline: float = 10.0) -> bool:
    """Wait for the engine to drain to zero admitted-but-unfinished
    queries (disconnect cancellations resolve asynchronously)."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if engine.pending == 0:
            return True
        time.sleep(0.01)
    return engine.pending == 0


def invalid_plan_block(
    host: str,
    port: int,
    engine: Engine,
    good_query: str,
    oracle: str,
    attempts: int = 3,
) -> dict:
    """Malformed-plan frames over the wire: the pre-admission gate.

    Each attempt queries the registered-but-invalid plan and must come
    back as a typed :class:`~repro.errors.PlanValidationError` carrying
    a non-empty diagnostics list — rejected by the server's static
    analyzer *before* admission, so no worker slot is ever consumed,
    every rejection lands in ``EngineStats.rejected_invalid``, and the
    engine's reconciliation invariant is untouched.  An accepted
    invalid plan classifies as ``WRONG_ANSWER``.  A recovery probe then
    proves the same connection path still serves valid plans.
    """
    before = engine.snapshot().stats.rejected_invalid
    diagnostics: list[bool] = []

    def call() -> str:
        try:
            return _wire(host, port, INVALID_QUERY_NAME)
        except PlanValidationError as exc:
            diagnostics.append(bool(exc.diagnostics))
            raise

    outcomes = [_classify(call, ()) for _ in range(attempts)]
    slots_clean = _settle_pending(engine)
    snap = engine.snapshot()
    counted = snap.stats.rejected_invalid - before
    probe = partial(_wire, host, port, good_query)
    recovered = _classify(probe, {oracle}) == "identical"
    return {
        "attempts": attempts,
        "outcomes": outcomes,
        "diagnostics_present": all(diagnostics),
        "rejected_invalid_counted": counted,
        "slots_clean": slots_clean,
        "snapshot_consistent": snap.consistent,
        "recovered": recovered,
        "ok": (
            all(o == "error:PlanValidationError" for o in outcomes)
            and all(diagnostics)
            and counted == attempts
            and slots_clean
            and snap.consistent
            and recovered
        ),
    }


def run_network_case(
    case: ChaosCase,
    host: str,
    port: int,
    engine: Engine,
    query: str,
    oracle: str,
    strategy: str,
    materialize: str,
    seed: int,
) -> dict:
    """One (network fault, strategy, materialize) cell of the sweep."""
    plan = FaultPlan([case.rule], seed=seed)
    if case.rule.point == "filter.build" and engine.filter_cache is not None:
        # Cold-start the cell: a warm shared cache would satisfy the
        # query without ever building a filter, starving the fault.
        engine.filter_cache.clear()
    attempt = partial(_wire, host, port, query, strategy, materialize)
    # A blackholed response is only detected by the client timing out;
    # keep that bound tight so the sweep stays fast.
    blackholed = (case.rule.point, case.rule.action) == ("net.write", "drop")
    with inject(plan):
        outcome = _classify(
            partial(attempt, io_timeout=1.0 if blackholed else NET_IO_TIMEOUT),
            {oracle},
        )
    slots_clean = _settle_pending(engine)
    recovered = _classify(attempt, {oracle}) == "identical"
    return _cell(
        case,
        plan,
        outcome=outcome,
        recovered=recovered,
        slots_clean=slots_clean,
        strategy=strategy,
        materialize=materialize,
    )


def network_drain_block(
    catalog: Catalog, spec: QuerySpec, oracle: str, seed: int
) -> dict:
    """Graceful drain under concurrent load.

    Six clients fire the chaos query at a 2-worker server while every
    chunk kernel is slowed (guaranteeing work is in flight), then the
    server drains with a grace period shorter than the queries.  The
    invariant: **every** client resolves — a byte-identical result for
    whatever finished inside the grace, a typed error for the rest —
    with no hangs and no leaked slots.
    """
    engine = Engine(catalog, config=_config(), workers=2, max_pending=16)
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "delay", delay=0.02, count=None)],
        seed=seed,
    )
    clients = 6
    pool = ThreadPoolExecutor(clients, thread_name_prefix="drain-client")
    outcomes: list[str] = []
    try:
        with ServerThread(engine, {spec.name: spec}, config=ServerConfig()) as st:
            call = partial(_wire, st.host, st.port, spec.name, io_timeout=30.0)
            with inject(plan):
                futures = [
                    pool.submit(lambda: [_classify(call, {oracle})])
                    for _ in range(clients)
                ]
                # Let the queries admit and start chewing (slowed)
                # chunks so the drain provably lands mid-flight.
                time.sleep(0.15)
                t0 = time.perf_counter()
                st.drain(grace=0.2)
                drain_seconds = time.perf_counter() - t0
                outcomes = [o for got in _gather(futures, timeout=30.0) for o in got]
    finally:
        hung = "HANG" in outcomes
        pool.shutdown(wait=not hung)
        engine.shutdown(wait=True, cancel=True)
    slots_clean = engine.pending == 0
    return {
        "clients": clients,
        "outcomes": sorted(outcomes),
        "drain_seconds": round(drain_seconds, 3),
        "hung_clients": hung,
        "slots_clean": slots_clean,
        "faults_triggered": len(plan.triggered),
        "ok": (
            all(_clean(o) for o in outcomes)
            and slots_clean
            and len(outcomes) == clients
            and bool(plan.triggered)
        ),
    }


def metrics_reconciliation_block(
    metrics_text: str, snap: EngineSnapshot, cells: list[dict]
) -> dict:
    """The exported counters must agree with the engine's books.

    After every fault has fired, the scraped ``repro_queries_total``
    outcome counters must sum to the engine's resolved + rejected +
    rejected_invalid total (pre-admission rejections are outside
    ``submitted`` but *are* an exported outcome label), the
    latency-histogram count must equal its success count, the
    client-side byte-identical verdicts must not exceed the engine's
    successes, and the atomic snapshot must satisfy its own admission
    invariant.  A fault that corrupted the bookkeeping (double-counted,
    dropped, or torn) fails the sweep even if every cell looked clean.
    """
    families = parse_prometheus_text(metrics_text)
    by_outcome: dict[str, float] = {}
    for labels, value in families.get("repro_queries_total", {}).items():
        outcome = dict(labels).get("outcome", "")
        by_outcome[outcome] = by_outcome.get(outcome, 0.0) + value
    outcome_total = int(sum(by_outcome.values()))
    hist_count = int(sum(families.get("repro_query_seconds_count", {}).values()))
    ok_plus_degraded = int(by_outcome.get("ok", 0) + by_outcome.get("degraded", 0))
    metric_rejected_invalid = int(by_outcome.get("rejected_invalid", 0))
    client_identical = sum(1 for c in cells if c["outcome"] == "identical")
    stats = snap.stats
    expected = stats.resolved + stats.rejected + stats.rejected_invalid
    return {
        "outcome_total": outcome_total,
        "resolved_plus_rejected": expected,
        "query_seconds_count": hist_count,
        "engine_queries": stats.queries,
        "client_identical": client_identical,
        "ok_plus_degraded": ok_plus_degraded,
        "rejected_invalid": stats.rejected_invalid,
        "metric_rejected_invalid": metric_rejected_invalid,
        "snapshot_consistent": snap.consistent,
        "ok": (
            outcome_total == expected
            and hist_count == stats.queries
            and client_identical <= ok_plus_degraded
            and metric_rejected_invalid == stats.rejected_invalid
            and snap.consistent
        ),
    }


def _network_surface(
    cases: list[ChaosCase],
    sf: float,
    seed: int,
    strategies: tuple[str, ...],
) -> tuple[list[dict], dict[str, dict], dict]:
    """One engine + server pair serves the whole sweep.

    Surviving every cell *and* the recovery probes on the same process
    is itself part of the invariant (a server that must be restarted
    after a fault has leaked something).  The engine carries a metrics
    registry so the record can end with the reconciliation block.
    """
    catalog = generate_tpch(sf=sf, seed=seed)
    spec = get_query(CHAOS_QUERY, sf=sf)
    oracles = {s: oracle_digest(spec, catalog, s) for s in strategies}
    registry = MetricsRegistry()
    engine = Engine(
        catalog, config=_config(), workers=2, max_pending=16, registry=registry
    )
    try:
        with ServerThread(
            engine,
            # The invalid plan is registered alongside the real one:
            # requesting it by name exercises the server's
            # pre-admission static-analysis gate.
            {spec.name: spec, INVALID_QUERY_NAME: _invalid_spec()},
            config=ServerConfig(read_timeout=2.0, write_timeout=2.0),
            meta={"sf": sf, "seed": seed},
        ) as st:
            collector = ObsCollector(registry, engine=engine, server=st.server)
            cells = [
                run_network_case(
                    case, st.host, st.port, engine, spec.name, oracles[s],
                    s, m, seed,
                )
                for case in cases
                for s in strategies
                for m in MATERIALIZE_MODES
            ]
            invalid = invalid_plan_block(
                st.host, st.port, engine, spec.name, oracles["predtrans"]
            )
            metrics_text = collector.prometheus()
        snap = engine.snapshot()
    finally:
        engine.shutdown(wait=True, cancel=True)
    blocks = {
        "drain_under_load": network_drain_block(
            catalog, spec, oracles["predtrans"], seed
        ),
        "invalid_plan": invalid,
        "metrics_reconciliation": metrics_reconciliation_block(
            metrics_text, snap, cells
        ),
    }
    return cells, blocks, oracles


# ----------------------------------------------------------------------
# Ingest surface: serving under writes
# ----------------------------------------------------------------------


def _ingest_universe(full: Catalog) -> tuple[dict[str, Table], list[dict[str, Table]]]:
    """Split a generated catalog into a base state + delta batches.

    The ingest tables lose their tail ``INGEST_HOLDBACK`` fraction to
    ``INGEST_BATCHES`` row-slice batches; everything else stays whole.
    Appending all batches in order reconstructs the full tables
    row-for-row, so the fully-ingested state is the generator's.
    """
    base: dict[str, Table] = {}
    batches: list[dict[str, Table]] = [{} for _ in range(INGEST_BATCHES)]
    for name in full.names():
        table = full.get(name)
        if name not in INGEST_TABLES:
            base[name] = table
            continue
        rows = table.num_rows
        holdback = max(INGEST_BATCHES, int(rows * INGEST_HOLDBACK))
        cut = rows - holdback
        base[name] = table.take(np.arange(cut))
        per = holdback // INGEST_BATCHES
        for i in range(INGEST_BATCHES):
            start = cut + i * per
            stop = rows if i == INGEST_BATCHES - 1 else start + per
            batches[i][name] = table.take(np.arange(start, stop))
    return base, batches


def _snapshot(
    base: dict[str, Table], batches: list[dict[str, Table]], k: int
) -> Catalog:
    """The committed prefix snapshot ``base + batches[:k]``."""
    tables = dict(base)
    for batch in batches[:k]:
        for name, delta in batch.items():
            tables[name] = tables[name].concat(delta)
    return Catalog(tables)


def _at_delta(catalog: Catalog, delta: int) -> bool:
    """Whether every ingest table's version sits at delta ``delta``."""
    versions = [catalog.data_version(name) for name in INGEST_TABLES]
    return all(v is not None and v.delta == delta for v in versions)


def _commit(engine: Engine, batch: dict[str, Table]) -> str:
    engine.ingest(batch)
    return "committed"


def run_ingest_case(
    case: ChaosCase,
    spec: QuerySpec,
    base: dict[str, Table],
    batches: list[dict[str, Table]],
    snapshots: dict[str, list[str]],
    seed: int,
) -> dict:
    """One read/append storm under one injected fault.

    A fresh catalog (same base snapshot every case) serves two reader
    threads cycling the strategies of ``snapshots`` while an appender
    commits the delta batches; the appender stops at its first failed
    commit, so live states stay strict prefixes of the batch sequence.
    Every read must be byte-identical to the eager serial oracle of
    *some* committed prefix snapshot under its own strategy — the
    pinned-snapshot guarantee — and a failed commit must leave the
    catalog version untouched.  After the storm the remaining batches
    are committed cleanly (the recovery) and a final read per strategy
    must match the fully-ingested oracle.
    """
    strategies = tuple(snapshots)
    catalog = Catalog(dict(base))
    plan = FaultPlan([case.rule], seed=seed)

    with Engine(catalog, config=_config(), workers=2) as engine:
        if case.warm:
            # Entries at the base version, so post-commit reads have
            # something to extend (and the extension fault to hit).
            for strategy in ("predtrans", "bloomjoin"):
                engine.execute(spec, _config(strategy))

        def read(strategy: str) -> str:
            served = partial(_served, engine, spec, _config(strategy))
            return _classify(served, snapshots[strategy])

        def appender() -> list[str]:
            outcomes: list[str] = []
            for batch in batches:
                out = _classify(partial(_commit, engine, batch), {"committed"})
                outcomes.append("committed" if out == "identical" else out)
                if out != "identical":
                    break  # retry happens in the recovery phase
                time.sleep(0.01)
            return outcomes

        def reader(offset: int) -> list[str]:
            return [
                read(strategies[(offset + i) % len(strategies)])
                for i in range(INGEST_READS)
            ]

        pool = ThreadPoolExecutor(3, thread_name_prefix="chaos-storm")
        with inject(plan):
            appends, *reader_outcomes = _gather(
                [
                    pool.submit(appender),
                    pool.submit(reader, 0),
                    pool.submit(reader, len(strategies) // 2),
                ],
                timeout=HANG_SECONDS,
            )
            reads = [o for outcomes in reader_outcomes for o in outcomes]
            if case.warm and "HANG" not in reads + appends:
                # Deterministic extension attempt while the fault is
                # still armed (see the ingest CASES note on count=None).
                reads.append(read("predtrans"))
        pool.shutdown(wait="HANG" not in reads + appends)

        committed = appends.count("committed")
        version_ok = _at_delta(catalog, committed)
        # Recovery: the batches the storm failed must commit cleanly
        # on the same engine, converging on the fully-ingested state.
        recommitted = all(
            _classify(partial(_commit, engine, batch), {"committed"}) == "identical"
            for batch in batches[committed:]
        )
        final_reads = [
            _classify(partial(_served, engine, spec, _config(s)), {snapshots[s][-1]})
            for s in strategies
        ]
        recovered = (
            recommitted
            and _at_delta(catalog, INGEST_BATCHES)
            and all(o == "identical" for o in final_reads)
        )
        slots_clean = engine.pending == 0
        stats = engine.stats()
        cache = engine.cache_stats()
    corruptions = 0 if cache is None else cache.corruptions
    unclean = [o for o in reads + appends if o != "committed" and not _clean(o)]
    return _cell(
        case,
        plan,
        outcome=unclean[0] if unclean else "identical",
        recovered=recovered,
        slots_clean=slots_clean,
        checks=version_ok and corruptions == 0 and stats.ingests == INGEST_BATCHES,
        reads=sorted(reads),
        ingest_outcomes=appends,
        committed_during_storm=committed,
        version_ok=version_ok,
        final_reads=final_reads,
        cache_extensions=0 if cache is None else cache.extensions,
        cache_extension_rebuilds=0 if cache is None else cache.extension_rebuilds,
        cache_corruptions=corruptions,
        engine_ingests=stats.ingests,
        engine_ingest_failures=stats.ingest_failures,
    )


def _ingest_surface(
    cases: list[ChaosCase],
    sf: float,
    seed: int,
    strategies: tuple[str, ...],
) -> tuple[list[dict], dict[str, dict], dict]:
    spec = get_query(INGEST_QUERY, sf=sf)
    base, batches = _ingest_universe(generate_tpch(sf=sf, seed=seed))
    snapshots = {
        s: [
            oracle_digest(spec, _snapshot(base, batches, k), s)
            for k in range(INGEST_BATCHES + 1)
        ]
        for s in strategies
    }
    cells = [
        run_ingest_case(case, spec, base, batches, snapshots, seed) for case in cases
    ]
    distinct = {s: len(set(d)) for s, d in snapshots.items()}
    blocks = {
        "snapshots": {
            "per_strategy": INGEST_BATCHES + 1,
            "distinct": distinct,
            "ok": all(n == INGEST_BATCHES + 1 for n in distinct.values()),
        }
    }
    return cells, blocks, snapshots


# ----------------------------------------------------------------------
# The runner, its record and its report
# ----------------------------------------------------------------------


def run_sweep(
    surface: str = "engine", sf: float = CHAOS_SF, seed: int = 0, quick: bool = False
) -> dict:
    """Sweep every case of ``surface`` and return the chaos record.

    ``quick`` narrows the grid to :data:`QUICK_STRATEGIES` (and, on
    the engine surface, to threads=1).
    """
    strategies = QUICK_STRATEGIES if quick else STRATEGIES
    threads_grid = (1,) if quick or surface != "engine" else (1, 4)
    cases = [c for c in CASES if c.surface == surface]
    if surface == "engine":
        cells, blocks, oracles = _engine_surface(
            cases, sf, seed, strategies, threads_grid
        )
    elif surface == "network":
        cells, blocks, oracles = _network_surface(cases, sf, seed, strategies)
    else:
        cells, blocks, oracles = _ingest_surface(cases, sf, seed, strategies)
    schema, kind = RECORD_KINDS[surface]
    meta = {
        "surface": surface,
        "sf": sf,
        "seed": seed,
        "query": INGEST_QUERY if surface == "ingest" else CHAOS_QUERY,
        "partition_rows": CHAOS_PARTITION_ROWS,
        "faults": [c.name for c in cases],
        "strategies": list(strategies),
        "threads_grid": list(threads_grid),
        "blocks": list(blocks),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "timestamp_unix": int(time.time()),
    }
    summary = {
        "cases": len(cells),
        "identical": sum(1 for c in cells if c["outcome"] == "identical"),
        "typed_errors": sum(1 for c in cells if c["outcome"].startswith("error:")),
        "faults_triggered": sum(c["faults_triggered"] for c in cells),
        "violations": sum(1 for c in cells if not c["ok"])
        + sum(1 for b in blocks.values() if not b["ok"]),
    }
    if surface == "ingest":
        meta.update(batches=INGEST_BATCHES, ingest_tables=list(INGEST_TABLES))
        summary.update(
            reads=sum(len(c["reads"]) for c in cells),
            identical_reads=sum(c["reads"].count("identical") for c in cells),
            batches_committed=sum(c["committed_during_storm"] for c in cells),
            cache_extensions=sum(c["cache_extensions"] for c in cells),
            cache_extension_rebuilds=sum(c["cache_extension_rebuilds"] for c in cells),
        )
    return {
        "schema": schema,
        "kind": kind,
        "meta": meta,
        "oracle_digests": oracles,
        "cases": cells,
        **blocks,
        "summary": summary,
    }


def run_ingest_sweep(sf: float = CHAOS_SF, seed: int = 0) -> dict:
    """The full read/append chaos record (``run_sweep("ingest", ...)``)."""
    return run_sweep("ingest", sf=sf, seed=seed)


def format_record(payload: dict) -> str:
    """Human-readable one-screen summary of any chaos record."""
    meta, s = payload["meta"], payload["summary"]
    lines = [
        f"{meta['surface']} chaos sweep: {s['cases']} cases "
        f"({len(meta['faults'])} faults x strategies {meta['strategies']}"
        f" x threads {meta['threads_grid']})",
        *(
            f"  {key + ':':<26}{value}"
            for key, value in s.items()
            if key not in ("cases", "violations")
        ),
    ]
    for name in meta["blocks"]:
        block = payload[name]
        detail = ", ".join(f"{k}={v}" for k, v in block.items() if k != "ok")
        lines.append(f"  {name} ok: {block['ok']} ({detail})")
    lines.append(f"  {'violations:':<26}{s['violations']}")
    for cell in payload["cases"]:
        if not cell["ok"]:
            detail = ", ".join(
                f"{k}={v}" for k, v in cell.items() if k not in ("case", "ok")
            )
            lines.append(f"  VIOLATION {cell['case']}: {detail}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI: run one surface's sweep, optionally write the JSON record.

    Exit status is the invariant verdict: 0 iff nothing violated it.
    """
    parser = argparse.ArgumentParser(
        prog="repro.testing.chaos",
        description="Deterministic fault-injection sweep over the "
        "strategy grid (byte-identical-or-typed-error invariant)",
    )
    parser.add_argument("--sf", type=float, default=CHAOS_SF)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="write the chaos record here")
    parser.add_argument(
        "--quick", action="store_true", help="sweep predtrans/nopredtrans, threads=1"
    )
    parser.add_argument(
        "--network",
        action="store_true",
        help="run the client/server network-fault sweep instead of the "
        "in-process one",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="run the read/append ingest sweep (concurrent readers vs "
        "transactional appends under injected ingest/extension faults)",
    )
    args = parser.parse_args(argv)
    surface = "ingest" if args.ingest else "network" if args.network else "engine"
    payload = run_sweep(surface, sf=args.sf, seed=args.seed, quick=args.quick)
    print(format_record(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if payload["summary"]["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
