"""Span tracing from outside the program.

:class:`Tracer` wraps the public functions of each layer at the names
their callers look up (``repro.core.runner.group_aggregate`` is bound
at import, so the wrapper must replace that binding, not only the one
in ``repro.engine.aggregate``).  Every call records a span — name,
start, end, self time, parent span, thread — in memory; :meth:`dump`
writes them out when the run ends.  A span's self time is its
duration minus the time its child spans (same thread) cover.

Nothing here changes what the wrapped functions compute: each wrapper
calls the original with the same arguments and returns its result.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.storage.view", "materialize", "storage.materialize"),
    ("repro.storage.partition", "get_layout", "storage.layout_build"),
    ("repro.storage.catalog", "IngestBatch.commit", "storage.commit"),
    ("repro.storage.column", "Column.concat", "storage.concat"),
    ("repro.expr.eval", "evaluate_mask", "expr.evaluate_mask"),
    ("repro.expr.eval", "evaluate", "expr.evaluate"),
    ("repro.plan.rewrite", "fold_self_edges", "plan.plan"),
    ("repro.plan.rewrite", "resolve_scalars", "plan.plan"),
    ("repro.plan.joingraph", "build_join_graph", "plan.plan"),
    ("repro.optimizer.joinorder", "greedy_join_order", "plan.plan"),
    ("repro.core.ptgraph", "build_pt_graph", "plan.plan"),
    ("repro.filters.hashing", "bloom_keys", "filters.key_hash"),
    ("repro.filters.hashcache", "KeyHashCache.bloom_keys", "filters.key_hash"),
    ("repro.filters.bloom", "BloomFilter.add_hashes", "filters.bloom_build"),
    ("repro.filters.bloom", "BloomFilter.contains_hashes", "filters.bloom_probe"),
    ("repro.filters.hashset", "VectorHashSet.insert", "filters.hashset_insert"),
    ("repro.filters.hashset", "VectorHashSet.contains", "filters.hashset_probe"),
    ("repro.core.transfer", "run_transfer_rows", "core.transfer"),
    ("repro.core.yannakakis", "run_semi_join_rows", "core.semijoin"),
    ("repro.engine.hashjoin", "hash_join", "engine.hash_join"),
    ("repro.engine.aggregate", "group_aggregate", "engine.group_aggregate"),
    ("repro.engine.sort", "sort_table", "engine.sort"),
    ("repro.cache.store", "FilterCache.get", "cache.get"),
    ("repro.cache.store", "FilterCache.put", "cache.put"),
    ("repro.service.engine", "Engine.submit", "service.submit"),
    ("repro.service.engine", "run_query", "service.execute"),
    ("repro.service.workload", "result_digest", "service.digest"),
    ("repro.service.protocol", "encode_frame", "service.encode"),
    ("repro.service.protocol", "decode_body", "service.decode"),
    ("repro.service.server", "decode_wire_table", "service.wire_table_decode"),
    ("repro.service.server", "QueryServer._precheck", "analysis.precheck"),
    ("repro.tpch.datagen", "generate_tpch", "setup.datagen"),
    ("repro.ssb.datagen", "generate_ssb", "setup.datagen"),
)

#: Targets wrapped only at the named module's own binding: the
#: runner's recursive pre-stage calls must not look like new requests.
LOCAL_BINDINGS = frozenset({("repro.service.engine", "run_query")})

#: Span names that stand for a whole operation rather than one layer's
#: work; they do not count as layer coverage of wall time.
OP_SPANS = frozenset({"service.execute", "service.submit"})


def query_counts(stats) -> dict[str, float]:
    """Exact work counts of one query (pre-stages included)."""
    out: dict[str, float] = defaultdict(float)
    todo = [stats]
    while todo:
        s = todo.pop()
        todo.extend(s.stage_stats)
        out["partitions_pruned"] += s.partitions_pruned
        out["partitions_total"] += s.partitions_total
        out["parallel_tasks"] += s.parallel_tasks
        out["rows_before"] += sum(s.transfer.rows_before.values())
        out["rows_after"] += sum(s.transfer.rows_after.values())
        for j in s.joins:
            out["join_build_rows"] += j.ht_rows
            out["join_probe_rows"] += j.pr_rows
            out["join_out_rows"] += j.out_rows
    return dict(out)


class Tracer:
    """In-memory span recorder installed over the program's layers."""

    def __init__(self) -> None:
        self.enabled = False
        # (span id, name, start, end, self seconds, parent id, thread id)
        self.spans: list[tuple] = []
        #: (time, counter, value) increments of work counters.
        self.events: list[tuple[float, str, float]] = []
        #: (submitted, started) times of served queries.
        self.waits: list[tuple[float, float]] = []
        #: (end time, query_counts) of served queries.
        self.queries: list[tuple[float, dict]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submitted: dict[int, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if hook is not None:
                hook(tracer, "before", args, kwargs, None)
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((
                    frame[0], name, start, end, duration - frame[1],
                    0 if parent is None else parent[0],
                    threading.get_ident(),
                ))
            if hook is not None:
                hook(tracer, "after", args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each binding a loaded module holds."""
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            if (module_name, attr) in LOCAL_BINDINGS:
                self._patch(module, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "events": self.events,
                "waits": self.waits,
                "queries": self.queries,
            }, fh)


def _hook_agg(tracer, when, args, kwargs, result):
    if when == "after":
        now = time.perf_counter()
        tracer.events.append((now, "agg_input_rows", args[0].num_rows))
        tracer.events.append((now, "agg_groups", result.num_rows))


def _hook_bloom_probe(tracer, when, args, kwargs, result):
    if when == "after":
        now = time.perf_counter()
        tracer.events.append((now, "bloom_probed", len(result)))
        tracer.events.append((now, "bloom_passed", int(result.sum())))


def _hook_submit(tracer, when, args, kwargs, result):
    token = kwargs.get("token")
    if when == "before" and token is not None:
        with tracer._lock:
            tracer._submitted[id(token)] = time.perf_counter()


def _hook_execute(tracer, when, args, kwargs, result):
    config = kwargs.get("config")
    if when == "before":
        ctx = getattr(config, "context", None)
        token = getattr(ctx, "token", None)
        with tracer._lock:
            submitted = tracer._submitted.pop(id(token), None)
            if submitted is not None:
                tracer.waits.append((submitted, time.perf_counter()))
    else:
        counts = query_counts(result.stats)
        with tracer._lock:
            tracer.queries.append((time.perf_counter(), counts))


_HOOKS = {
    "engine.group_aggregate": _hook_agg,
    "filters.bloom_probe": _hook_bloom_probe,
    "service.submit": _hook_submit,
    "service.execute": _hook_execute,
}


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def self_times(spans, t0: float, t1: float) -> dict[str, float]:
    """Self seconds per span name over spans inside ``[t0, t1]``."""
    out: dict[str, float] = defaultdict(float)
    for _sid, name, start, end, own, _parent, _tid in spans:
        if start >= t0 and end <= t1:
            out[name] += own
    return out


def inclusive_times(spans, t0: float, t1: float) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for _sid, name, start, end, _own, _parent, _tid in spans:
        if start >= t0 and end <= t1:
            out[name] += end - start
    return out


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def uncovered_share(spans, windows: list[tuple[float, float]]) -> float:
    """Share of the wall time in ``windows`` that no layer span covers."""
    windows = _union(windows)
    total = sum(b - a for a, b in windows)
    if total <= 0:
        return 0.0
    layer = _union([
        (s[2], s[3]) for s in spans if s[1] not in OP_SPANS
    ])
    covered = 0.0
    i = 0
    for a, b in windows:
        while i < len(layer) and layer[i][1] <= a:
            i += 1
        j = i
        while j < len(layer) and layer[j][0] < b:
            covered += min(b, layer[j][1]) - max(a, layer[j][0])
            j += 1
    return 1.0 - covered / total


#: Per-layer time metric -> the span names whose self time it sums.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "storage.materialize_s": ("storage.materialize",),
    "storage.layout_build_s": ("storage.layout_build",),
    "storage.commit_s": ("storage.commit",),
    "storage.concat_s": ("storage.concat",),
    "expr.evaluate_mask_s": ("expr.evaluate_mask",),
    "expr.evaluate_s": ("expr.evaluate",),
    "plan.plan_s": ("plan.plan",),
    "filters.key_hash_s": ("filters.key_hash",),
    "filters.bloom_build_s": ("filters.bloom_build",),
    "filters.bloom_probe_s": ("filters.bloom_probe",),
    "filters.hashset_insert_s": ("filters.hashset_insert",),
    "filters.hashset_probe_s": ("filters.hashset_probe",),
    "core.transfer_s": ("core.transfer",),
    "core.semijoin_s": ("core.semijoin",),
    "engine.hash_join_s": ("engine.hash_join",),
    "engine.group_aggregate_s": ("engine.group_aggregate",),
    "engine.sort_s": ("engine.sort",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "service.digest_s": ("service.digest",),
    "service.encode_s": ("service.encode",),
    "service.decode_s": ("service.decode",),
    "service.wire_table_decode_s": ("service.wire_table_decode",),
    "analysis.precheck_s": ("analysis.precheck",),
}


def layer_metrics(
    spans, events, queries, t0: float, t1: float, ops: int
) -> dict[str, float]:
    """Per-layer figures over one traced window, per operation.

    ``events`` are :attr:`Tracer.events`; ``queries`` are ``(end time,
    query_counts)`` pairs of executed queries; ``ops`` the operations
    the window completed.  Only records inside ``[t0, t1]`` count.
    """
    own = self_times(spans, t0, t1)
    counts: dict[str, float] = defaultdict(float)
    for at, key, value in events:
        if t0 <= at <= t1:
            counts[key] += value
    per = 1.0 / max(1, ops)
    out: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(own.get(n, 0.0) for n in names) * per
    out["service.execute_s"] = (
        inclusive_times(spans, t0, t1).get("service.execute", 0.0) * per
    )
    total: dict[str, float] = defaultdict(float)
    for at, q in queries:
        if not t0 <= at <= t1:
            continue
        for key, value in q.items():
            total[key] += value
    for key in ("partitions_pruned", "partitions_total"):
        out[f"storage.{key}"] = total[key] * per
    out["core.join_input_rows"] = total["rows_after"] * per
    before = total["rows_before"]
    out["core.prefilter_reduction"] = (
        1.0 - total["rows_after"] / before if before else 0.0
    )
    for key in ("join_build_rows", "join_probe_rows", "join_out_rows",
                "parallel_tasks"):
        out[f"engine.{key}"] = total[key] * per
    for key in ("agg_input_rows", "agg_groups"):
        out[f"engine.{key}"] = counts[key] * per
    probed = counts["bloom_probed"]
    out["filters.bloom_pass_rate"] = (
        counts["bloom_passed"] / probed if probed else 0.0
    )
    return out
