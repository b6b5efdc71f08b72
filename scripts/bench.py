#!/usr/bin/env python3
"""Benchmark summaries: medians and quartiles of perfbench runs over seeds.

    python3 scripts/bench.py --out BENCH_23.json [--workloads W ...] [--seeds S ...]
                             [--seconds T] [--baseline DIR --baseline-out PATH]
    python3 scripts/bench.py --compare A.json B.json

A run calls ``perfbench/run.py --workload W --seed S --seconds T`` once per
workload and seed, each in a fresh process, and reads the JSON object on
its last line. The summary file holds the checkout's git revision, the
machine (platform, CPU model, CPUs this process may use), the Python,
numpy, scipy and OpenBLAS versions, OpenBLAS's thread count (null where
numpy is not built on scipy-openblas), and for each workload and end-to-end
metric the median, first and third quartiles and count over the seeds,
beside the raw values and how many runs passed their checks.

With --baseline, another checkout's perfbench runs pair with this one's,
seed by seed, and the side that runs first alternates from pair to pair,
so a drift of the host's speed falls on both alike; the baseline's summary
goes to --baseline-out.

--compare prints, for each workload and metric of both files, the median of
each, the change and A's interquartile range, and marks a change larger
than that range; where both files ran the same seeds it counts the pairs,
one a seed, in which B reads better (BENCHMARK.json gives the direction).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ("ensemble-r2", "law-r4", "sample-law-r2", "triangular")


def machine() -> dict:
    """Platform, CPU model and usable CPUs, the interpreter's library versions and the number
    of threads numpy's OpenBLAS runs, which the perfbench jobs inherit."""
    import numpy as np
    import scipy

    from youngspec.spectra import _openblas

    lib = _openblas()
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if threads is not None:
        threads.restype, threads.argtypes = ctypes.c_int, ()

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
                 platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"platform": platform.platform(), "cpu_model": model, "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads() if threads is not None else None}


def git_rev(checkout: Path) -> str | None:
    """The checkout's HEAD, marked "+dirty" where its files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    return head.stdout.strip() + ("+dirty" if git("status", "--porcelain", "--untracked-files=no").stdout
                                  else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last-line result object, or the failure it ended in."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-300:]}


def summarise(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of one metric's values."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def summary(checkout: Path, runs: dict[str, list[dict]], seeds: list[int], seconds: float) -> dict:
    workloads = {}
    for name, results in runs.items():
        names = dict.fromkeys(m for res in results for m in res["metrics"])
        workloads[name] = {
            "correct": sum(bool(res.get("correct")) for res in results),
            "runs": len(results),
            "metrics": {m: summarise([res["metrics"][m]["value"] for res in results if m in res["metrics"]])
                        for m in names},
        }
    return {"git_rev": git_rev(checkout), "machine": machine(), "seeds": seeds, "seconds": seconds,
            "workloads": workloads}


def compare(a: dict, b: dict) -> list[str]:
    """One line a workload and metric in both: the medians, the change, A's spread and, where
    both ran the same seeds, the pairs (one seed each) in which B is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    paired = a.get("seeds") is not None and a.get("seeds") == b.get("seeds")
    lines = [f"A {a['git_rev']}  B {b['git_rev']}",
             f"{'workload':14s} {'metric':12s} {'A median':>11s} {'B median':>11s} "
             f"{'change':>8s} {'A q3-q1':>10s} {'B better':>8s}"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        for metric, sa in (wa["metrics"].items() if wb else ()):
            sb = wb["metrics"].get(metric)
            if sb is None:
                continue
            diff, spread = sb["median"] - sa["median"], sa["q3"] - sa["q1"]
            change = f"{diff / sa['median']:+.1%}" if sa["median"] else f"{diff:+.3g}"
            sign = 1 if lower.get(metric, True) else -1
            wins = (f"{sum(sign * (vb - va) < 0 for va, vb in zip(sa['values'], sb['values']))}"
                    f"/{sa['n']}" if paired and sa["n"] == sb["n"] else "-")
            mark = "  beyond A's spread" if abs(diff) > spread else ""
            lines.append(f"{name:14s} {metric:12s} {sa['median']:11.5g} {sb['median']:11.5g} "
                         f"{change:>8s} {spread:10.3g} {wins:>8s}{mark}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two summary files to compare")
    parser.add_argument("--out", help="summary file to write, BENCH_<pr>.json by convention")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--baseline", type=Path, help="another checkout to alternate with")
    parser.add_argument("--baseline-out", help="summary file of the baseline checkout")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(compare(a, b)))
        return 0
    if not args.out or bool(args.baseline) != bool(args.baseline_out):
        parser.error("a run needs --out, and --baseline and --baseline-out go together")
    sides = [(args.baseline.resolve(), args.baseline_out)] if args.baseline else []
    sides.append((ROOT, args.out))
    runs = {out: {w: [] for w in args.workloads} for _, out in sides}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            for checkout, out in sides[::-1] if i % 2 else sides:
                res = run_once(checkout, workload, seed, args.seconds)
                runs[out][workload].append(res)
                print(f"{checkout.name} {workload} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()), flush=True)
    for checkout, out in sides:
        text = json.dumps(summary(checkout, runs[out], args.seeds, args.seconds), indent=2)
        Path(out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
