"""Self-test of the benchmark: every workload, briefly, at a tiny SF.

    python3 perfbench/selftest.py

Checks that

* each workload, untraced and traced, exits 0 with ``correct: true``
  and prints every metric of ``BENCHMARK.json`` (``end_to_end`` with
  ``--trace 0``, ``per_layer`` with ``--trace 1``) with its unit;
* each workload run against a deliberately corrupted expected result
  exits non-zero with ``correct: false``;
* a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files makes the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SF = 0.01
#: Seconds per workload: long enough for two tpch passes and for an
#: ingest commit inside the traced half of the window.
SECONDS = {"tpch-cold": 1, "serve-warm": 2, "serve-ingest": 7}


def _run(root: Path, workload: str, trace: int, *extra: str):
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0",
        "--seconds", str(SECONDS[workload]), "--trace", str(trace),
        "--sf", str(SF), *extra,
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for w in spec["workloads"]:
        workload = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not result or not result["correct"]:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want)}")
            print(f"ok   {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)
        proc, result = _run(ROOT, workload, 0, "--corrupt-expected")
        if proc.returncode == 0 or not result or result["correct"]:
            problems.append(f"{workload}: corrupted expected result passed")
        else:
            print(f"ok   {workload}: corrupted expected result fails "
                  f"({result['failed']} failed)", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run(bare, "tpch-cold", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or result is not None:
        problems.append("a checkout without the program did not fail")
    else:
        print(f"ok   checkout without the program: exit {proc.returncode}")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
