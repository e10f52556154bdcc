"""Start the stock query server with the benchmark's layer spans.

    PYTHONPATH=src python3 perfbench/launch_server.py --sf 0.05 --seed 1 \
        --spans .perfbench_out/spans.json

Wraps every layer (see ``tracing.py``), then calls
:func:`repro.service.server.run_server` exactly as ``python -m repro
serve --port 0`` does with its defaults.  After the SIGTERM drain the spans are
written to ``--spans``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sf", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from repro.service import server

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return server.run_server(sf=args.sf, seed=args.seed, port=0)
    finally:
        tracer.enabled = False
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
