"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``tpch-cold``, ``serve-warm``
and ``serve-ingest``.  With ``--trace 0`` the run prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it wraps the layers
and prints the per-layer metrics.  Each figure is printed as a text
line with its unit and sample count, then the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any result is wrong.

The program is imported from ``src/`` of the checkout; a checkout
without it fails before measuring anything.
"""

from __future__ import annotations

import argparse
import sys
import time

from common import ROOT, Report, load_spec

#: Workload -> (module, default scale factor).
WORKLOADS = {
    "tpch-cold": ("cold", 0.1),
    "serve-warm": ("serve", 0.05),
    "serve-ingest": ("serve", 0.05),
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sf", type=float, default=None,
        help="scale factor override (the self-test runs tiny ones)",
    )
    parser.add_argument(
        "--corrupt-expected", action="store_true",
        help="perturb one expected result; the run must then fail",
    )
    args = parser.parse_args(argv)
    if args.sf is None:
        args.sf = WORKLOADS[args.workload][1]
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tracer = None
    if args.trace and args.workload == "tpch-cold":
        import repro.service.server  # noqa: F401  (load every layer)

        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    module = __import__(WORKLOADS[args.workload][0])
    report = Report()
    t0 = time.perf_counter()
    print(f"workload {args.workload} seed={args.seed} sf={args.sf:g} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    try:
        if args.workload == "tpch-cold":
            module.run(args, report, tracer)
        else:
            module.run(args, report)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(f"wall {time.perf_counter() - t0:.1f}s", flush=True)
    return report.emit(wanted)


if __name__ == "__main__":
    sys.exit(main())
