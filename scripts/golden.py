#!/usr/bin/env python3
"""Golden records: the bits of a fixed set of seeded CLI records.

    python3 scripts/golden.py [--update]

For each argv of ARGVS, tests/golden_records.json holds the sha256 of
each field of the record's ``results``, rendered as sorted JSON. A
record's bits follow the kernels of the core numpy's OpenBLAS chose and
the thread count large replicas solve on, so the file keys its records by
both (``blas_core`` and ``blas_threads`` of bench.py's machine block).
The script recomputes this machine's records in-process and prints each
field that moved, with its new value; with --update it also rewrites this
machine's entry. tests/test_golden.py makes the same check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
FILE = ROOT / "tests" / "golden_records.json"

# the four benchmark workloads at small sizes (ensemble-r2's dim-1000 replica whole), every
# other subcommand, and the shapes, entry laws and sizes whose records earlier changes tracked by
# hand: among them a tall diagram, whose W has exact zeros, and complex dims 65 and 129, where a
# product taken in column blocks once ended in a block too narrow for its kernels
ARGVS = (
    "simulate --r 2 --dilation 500 --replicas 1 --kmax 4 --bins 96 --seed 11",
    "simulate --r 2 --dilation 50 --replicas 4 --kmax 4 --bins 96 --seed 11",
    "law --r 4 --grid 768 --tol 1e-5 --kmax 6",
    "sample-law --r 2 --samples 20000 --bins 96 --seed 11",
    "triangular --size 60 --replicas 8 --entries real-gaussian --kmax 3 --bins 96 --seed 11",
    "triangular --size 300 --replicas 7 --seed 11",
    "simulate --parts 5,4,4,1 --dilation 40 --replicas 2 --seed 11",
    "simulate --parts 1,1,1 --dilation 200 --replicas 2 --seed 11",
    "simulate --r 10 --dilation 40 --replicas 2 --seed 11",
    "simulate --r 2 --dilation 30 --replicas 3 --entries rademacher --seed 11",
    "simulate --r 3 --dilation 20 --replicas 2 --entries real-gaussian --trunc 1.5 --seed 11",
    "simulate --r 1 --dilation 65 --replicas 2 --seed 11",
    "simulate --r 1 --dilation 129 --replicas 2 --seed 11",
    "shape --parts 5,4,4,1 --dilation 2 --format json",
    "moments --r 3 --kmax 8 --oracle-trees",
    "trees --r 2 --vertices 6",
)


def blas_key() -> str | None:
    """The key of this machine's records, or None where numpy is not built on scipy-openblas."""
    from bench import machine

    m = machine()
    return None if m["blas_core"] is None else f"{m['blas_core']}, {m['blas_threads']} BLAS threads"


def results(argv: str) -> dict:
    """The ``results`` of the record the CLI writes for ``argv``."""
    from youngspec import cli

    args = cli._parse_args(argv.split())
    return cli.build_record(cli.RunConfig(**{k: v for k, v in vars(args).items() if k in cli._FIELDS}))[
        "results"]


def _render(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False)


def hashes(res: dict) -> dict[str, str]:
    return {field: hashlib.sha256(_render(value).encode()).hexdigest() for field, value in res.items()}


def moved(stored: dict[str, str], res: dict) -> list[str]:
    """The fields whose hash differs from ``stored``, in the record's order, then the stored
    fields the record lacks."""
    new = hashes(res)
    return [f for f in new if stored.get(f) != new[f]] + [f for f in stored if f not in new]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite this machine's entry")
    args = parser.parse_args(argv)
    key = blas_key()
    if key is None:
        print("numpy is not built on scipy-openblas: no golden records", file=sys.stderr)
        return 2
    golden = json.loads(FILE.read_text()) if FILE.exists() else {}
    stored, entry, changed = golden.get(key, {}), {}, False
    for line in ARGVS:
        res = results(line)
        entry[line] = hashes(res)
        for field in moved(stored.get(line, {}), res):
            changed = True
            preview = _render(res.get(field))
            print(f"{line}: {field} moved to {preview[:200]}{' ...' if len(preview) > 200 else ''}")
    changed |= set(stored) != set(ARGVS)
    if args.update:
        golden[key] = entry
        FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entry)} records for {key} to {FILE.relative_to(ROOT)}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
