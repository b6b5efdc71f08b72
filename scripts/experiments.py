#!/usr/bin/env python3
"""The experiments, each written as a JSON record and as a CSV table into out/.

Density grids of the limit laws for r = 1..4 (singular at 0, square-root
soft edge at L(r)), block ensembles of orders r = 1..3 against their limit
law, and staircase matrices against the triangular law:

    python3 scripts/experiments.py

writes the 16 files into the checkout's out/. Each ``--out`` is relative to
the checkout, so no record names where the checkout lies.
"""

import os
import pathlib
import sys

from youngspec.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = pathlib.Path("out")
SEED = "20260809"

# each experiment's record, its table and its argv
EXPERIMENTS = [
    *((f"law_r{r}.json", f"density_r{r}.csv",
       ["law", "--r", str(r), "--grid", "768", "--tol", "1e-5", "--kmax", "6"]) for r in (1, 2, 3, 4)),
    *((f"block_r{r}.json", f"block_r{r}_hist.csv",
       ["simulate", "--r", str(r), "--dilation", str(dilation), "--entries", "complex-gaussian",
        "--replicas", "40", "--seed", SEED, "--kmax", "6", "--bins", "96"])
      for r, dilation in ((1, 60), (2, 60), (3, 40))),
    ("triangular.json", "triangular_hist.csv",
     ["triangular", "--size", "200", "--replicas", "20", "--seed", SEED, "--bins", "96", "--kmax", "3"]),
]


def run() -> None:
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    for record, table, argv in EXPERIMENTS:
        rc = main(argv + ["--out", str(OUT / record)])
        rc |= main(argv + ["--format", "csv", "--out", str(OUT / table)])
        if rc:
            sys.exit(rc)
        print(f"wrote {record} and {table}")


if __name__ == "__main__":
    run()
