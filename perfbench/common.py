"""Shared helpers of the benchmark: raw-sample statistics, memory
readings, the metric table and the result line.

Every percentile here is computed from the raw samples (linear
interpolation between closest ranks) and is always reported together
with its sample count; nothing is read back from a histogram.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch output of one run (server logs, span dumps); git-ignored.
OUT_DIR = ROOT / ".perfbench_out"


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of raw samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: list[float]) -> float:
    return percentile(samples, 50.0)


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def wait_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            return
        time.sleep(min(left, 0.05))


class Report:
    """Metric values of one run, printed as text lines and as the
    final JSON result line.

    ``put`` records a metric (its unit comes from ``BENCHMARK.json``)
    with the number of samples behind it; ``note`` records a figure
    with its unit that is printed but not part of the JSON result
    (workload-specific breakdowns).
    """

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, int]] = {}
        self.notes: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = (float(value), int(n))

    def note(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.notes[name] = (float(value), unit, int(n))

    def fail(self, problem: str) -> None:
        """Count one failed operation and remember why (first few)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def emit(self, wanted: list[dict]) -> int:
        """Print every figure, then the JSON line; returns the exit code.

        ``wanted`` is the metric list of ``BENCHMARK.json`` for this
        mode; a wanted metric the run did not produce is an error.
        """
        missing = [m["name"] for m in wanted if m["name"] not in self.metrics]
        if missing:
            raise RuntimeError(f"run produced no value for {missing}")
        for name, (value, unit, n) in sorted(self.notes.items()):
            print(f"  {name:<46} {value:>14.6g} {unit:<8} n={n}")
        for m in wanted:
            value, n = self.metrics[m["name"]]
            print(f"* {m['name']:<46} {value:>14.6g} {m['unit']:<8} n={n}")
        for problem in self.problems:
            print(f"FAILED: {problem}")
        metrics = {
            m["name"]: {"value": self.metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        }
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }), flush=True)
        return 0 if self.correct else 1


def load_spec() -> dict:
    """``BENCHMARK.json`` of this checkout."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def out_path(name: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{os.getpid()}-{name}"
