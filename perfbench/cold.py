"""Workload ``tpch-cold``: the paper's cold four-strategy comparison.

All 25 registered TPC-H queries (q1–q22, c1–c3) run in this process
through :func:`repro.core.run_query` with no filter cache, under five
configs: the four strategies at one thread and predicate transfer at
two threads (the only place intra-query parallelism runs).  Configs are
interleaved; their order rotates per query and per pass.  One untimed
warm-up pass builds the zone-map layouts and the worker pool, then
complete timed passes run until the run's seconds are spent.  Every
result is checked against the expected table for the seed.
"""

from __future__ import annotations

import time

from common import Report, geomean, median, out_path, percentile, vm_hwm_mb
from expected import corrupt, load, mismatch, reference, signature

SETUP_REPEATS = 3


def configs() -> dict:
    """Config name -> RunConfig, in the order a pass starts from."""
    from repro.core.runner import RunConfig

    return {
        "nopredtrans": RunConfig(strategy="nopredtrans"),
        "bloomjoin": RunConfig(strategy="bloomjoin"),
        "yannakakis": RunConfig(strategy="yannakakis"),
        "predtrans": RunConfig(strategy="predtrans"),
        "predtrans-t2": RunConfig(strategy="predtrans", threads=2),
    }


def build_specs(sf: float) -> dict:
    from repro.tpch.queries import ALL_QUERY_IDS, CYCLIC_QUERY_IDS, get_query

    specs = {}
    for qid in list(ALL_QUERY_IDS) + list(CYCLIC_QUERY_IDS):
        spec = get_query(qid, sf=sf)
        specs[spec.name] = spec
    return specs


def run(args, report: Report, tracer=None) -> None:
    from repro.core.runner import run_query
    from repro.tpch.datagen import generate_tpch

    from tracing import layer_metrics, query_counts, uncovered_share

    setup = []
    catalog = None
    for _ in range(SETUP_REPEATS):
        catalog = None  # free the previous copy before building the next
        t0 = time.perf_counter()
        catalog = generate_tpch(sf=args.sf, seed=args.seed)
        setup.append(time.perf_counter() - t0)
    specs = build_specs(args.sf)
    cfgs = configs()
    names = list(cfgs)

    expected = load(args.sf, args.seed)
    print(f"expected results: {'committed' if expected else 'reference run'}"
          f" for sf={args.sf:g} seed={args.seed}")
    if expected is None:
        expected = reference(catalog, specs)
    if args.corrupt_expected:
        corrupt(expected)

    for spec in specs.values():  # warm-up: layouts, zone maps, pool
        run_query(spec, catalog, config=cfgs["predtrans-t2"])

    samples = {"untraced": {}, "traced": {}}
    traced_ops: list[tuple[float, float]] = []
    passes = 0
    t_start = time.perf_counter()
    while passes < (2 if tracer else 1) or (
        time.perf_counter() - t_start < args.seconds
    ):
        traced = tracer is not None and passes % 2 == 1
        phase = samples["traced" if traced else "untraced"]
        results = []
        if tracer is not None:
            tracer.enabled = traced
        for qi, (qname, spec) in enumerate(specs.items()):
            shift = (qi + passes) % len(names)
            for cname in names[shift:] + names[:shift]:
                t0 = time.perf_counter()
                result = run_query(spec, catalog, config=cfgs[cname])
                t1 = time.perf_counter()
                phase.setdefault((qname, cname), []).append(t1 - t0)
                results.append((qname, cname, result.table))
                if traced:
                    traced_ops.append((t0, t1))
                    tracer.queries.append((t1, query_counts(result.stats)))
        if tracer is not None:
            tracer.enabled = False
        for qname, cname, table in results:
            report.attempted += 1
            why = mismatch(signature(table), expected[qname])
            if why is not None:
                report.fail(f"{qname} under {cname}: {why}")
        passes += 1

    cells = samples["untraced"]
    meds = {cell: median(v) for cell, v in cells.items()}
    flat = [s for v in cells.values() for s in v]
    n_pass = len(next(iter(cells.values())))
    by_cfg = {c: [meds[(q, c)] for q in specs] for c in names}
    for c in names:
        report.note(f"cold_total_s.{c}", sum(by_cfg[c]), "s", n_pass)
    for c in ("predtrans", "nopredtrans"):
        report.note(f"cold_geomean_ms.{c}", geomean(by_cfg[c]) * 1e3, "ms", n_pass)
    core = {
        "core.geomean_ratio.predtrans_over_nopredtrans":
            geomean(by_cfg["predtrans"]) / geomean(by_cfg["nopredtrans"]),
        "core.geomean_ratio.predtrans_over_bloomjoin":
            geomean(by_cfg["predtrans"]) / geomean(by_cfg["bloomjoin"]),
        "core.predtrans_losses": sum(
            pt > 1.1 * nt
            for pt, nt in zip(by_cfg["predtrans"], by_cfg["nopredtrans"])
        ),
    }
    for name, value in core.items():
        report.note(name, value, "ratio" if "ratio" in name else "count", n_pass)

    if tracer is None:
        report.put("total_s", sum(meds.values()), len(flat))
        report.put("geomean_ms", geomean(list(meds.values())) * 1e3, len(flat))
        report.put("p50_ms", percentile(flat, 50) * 1e3, len(flat))
        report.put("p95_ms", percentile(flat, 95) * 1e3, len(flat))
        report.put("ops_per_s", len(flat) / sum(flat), len(flat))
        report.put("setup_s", median(setup), len(setup))
        report.put("peak_rss_mb", vm_hwm_mb(), 1)
        return

    tracer.dump(out_path("spans.json"))
    t0, t1 = traced_ops[0][0], traced_ops[-1][1]
    ops = len(traced_ops)
    for name, value in layer_metrics(
        tracer.spans, tracer.events, tracer.queries, t0, t1, ops
    ).items():
        report.put(name, value, ops)
    for name, value in core.items():
        report.put(name, value, n_pass)
    traced = {cell: median(v) for cell, v in samples["traced"].items()}
    base = sum(meds[cell] for cell in traced)
    report.put("trace.overhead_share", sum(traced.values()) / base - 1.0, ops)
    report.put("trace.unattributed_share",
               uncovered_share(tracer.spans, traced_ops), ops)
    report.put("setup.datagen_s", median(setup), len(setup))
    for name in (
        "cache.get_s", "cache.put_s", "cache.hit_rate", "cache.evictions",
        "cache.bytes", "cache.extensions", "cache.extension_rebuilds",
        "service.queue_wait_s", "service.retries", "service.unattributed_ms",
    ):
        report.put(name, 0.0, 0)
