"""Expected TPC-H results kept with the benchmark, and their check.

A result is kept as a *signature*: its row count, column names and
types, a hash of every non-float column's values and the float
columns' values themselves.  A check compares row counts and
non-float columns exactly and floats within a relative tolerance —
strategies sum in different orders, so q8/q14/q17 legitimately differ
in the last bits and byte digests would fail correct code.

Regenerate the committed tables (every config must agree first)::

    PYTHONPATH=src python3 perfbench/expected.py --sf 0.1 --seeds 0-23
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

REL_TOL = 1e-9
ABS_TOL = 1e-9


def expected_path(sf: float, seed: int) -> Path:
    return EXPECTED_DIR / f"tpch_sf{sf:g}_seed{seed}.json"


def signature(table) -> dict:
    from repro.storage.column import DType

    exact: dict[str, str] = {}
    floats: dict[str, list] = {}
    for name in table.column_names:
        col = table.column(name)
        values = col.to_pylist()
        if col.dtype is DType.FLOAT64:
            floats[name] = values
        else:
            blob = json.dumps(values, default=str).encode()
            exact[name] = hashlib.sha256(blob).hexdigest()[:32]
    return {
        "rows": table.num_rows,
        "columns": [
            [n, table.column(n).dtype.value] for n in table.column_names
        ],
        "exact": exact,
        "floats": floats,
    }


def mismatch(got: dict, want: dict) -> str | None:
    """Why ``got`` differs from ``want`` (``None`` when it matches)."""
    if got["rows"] != want["rows"]:
        return f"{got['rows']} rows, expected {want['rows']}"
    if got["columns"] != want["columns"]:
        return f"columns {got['columns']}, expected {want['columns']}"
    for name, digest in want["exact"].items():
        if got["exact"].get(name) != digest:
            return f"column {name} differs"
    for name, values in want["floats"].items():
        for i, (a, b) in enumerate(zip(got["floats"][name], values)):
            if (a is None) != (b is None):
                return f"column {name} row {i}: null mismatch"
            if a is not None and not math.isclose(
                a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL
            ):
                return f"column {name} row {i}: {a!r} vs expected {b!r}"
    return None


def corrupt(expected: dict[str, dict]) -> None:
    """Perturb one expected float (or a row count) in place; a run
    checked against the result must fail."""
    for sig in expected.values():
        for values in sig["floats"].values():
            for i, v in enumerate(values):
                if v:
                    values[i] = v * 1.001
                    return
    next(iter(expected.values()))["rows"] += 1


def load(sf: float, seed: int) -> dict[str, dict] | None:
    path = expected_path(sf, seed)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["queries"]


def reference(catalog, specs: dict) -> dict[str, dict]:
    """Signatures from the classical executor (eager, no pre-filter),
    for a seed with no committed table."""
    from repro.core.runner import RunConfig, run_query

    config = RunConfig(strategy="nopredtrans", materialize="eager")
    return {
        name: signature(run_query(spec, catalog, config=config).table)
        for name, spec in specs.items()
    }


def _generate(sf: float, seed: int) -> dict[str, dict]:
    from cold import build_specs, configs
    from repro.core.runner import run_query
    from repro.tpch.datagen import generate_tpch

    catalog = generate_tpch(sf=sf, seed=seed)
    specs = build_specs(sf)
    want = reference(catalog, specs)
    for cfg_name, config in configs().items():
        for name, spec in specs.items():
            got = signature(run_query(spec, catalog, config=config).table)
            why = mismatch(got, want[name])
            if why is not None:
                raise SystemExit(
                    f"sf={sf} seed={seed} {name} {cfg_name}: {why}"
                )
    return want


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sf", type=float, required=True)
    parser.add_argument("--seeds", type=_seeds, required=True)
    args = parser.parse_args(argv)
    EXPECTED_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        queries = _generate(args.sf, seed)
        with open(expected_path(args.sf, seed), "w") as fh:
            json.dump({"sf": args.sf, "seed": seed, "queries": queries}, fh,
                      separators=(",", ":"))
        print(f"wrote {expected_path(args.sf, seed).name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
