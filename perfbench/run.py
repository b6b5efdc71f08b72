"""youngspec benchmark: CLI jobs in fresh processes, checked against oracles.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload it runs CLI jobs back to back, each in a fresh Python
process, for S seconds (at least two jobs: the second reruns the first
job's arguments and must reproduce its ``results`` byte for byte). Then
it reruns the first job once more with spans around every public
function (``spans.py``), compares that ``results`` too, evaluates the
accuracy metrics against the oracles in ``oracles.py``, and probes the
program's Lévy distance on 300 small seeded pairs.

It prints a provenance block, the checks and every metric with its unit,
and as the last line one JSON object whose metrics are the end-to-end
ones of BENCHMARK.json (--trace 0) or the per-layer ones (--trace 1).
The exit code is nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 150
PROBE_PAIRS = 300


def job_env() -> dict:
    """Environment of a job: the checkout's sources, BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_job(argv: list[str], work: Path, tag: str, trace: bool = False) -> dict:
    """One CLI invocation in a fresh interpreter; returns timings and output."""
    out, report, trace_file = work / f"{tag}.json", work / f"{tag}.report", work / f"{tag}.spans"
    cmd = [sys.executable, str(HERE / "job.py"), str(report)]
    if trace:
        cmd += ["--trace", str(trace_file)]
    cmd += ["--", *argv, "--out", str(out)]
    job = {"argv": argv, "problems": []}
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=job_env(), cwd=work, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        job["problems"].append(f"no exit within {JOB_TIMEOUT_S} s")
        return job
    try:
        rep = json.loads(report.read_text())
        text = out.read_text()
        record = json.loads(text)
    except (OSError, ValueError) as exc:
        job["problems"].append(f"no usable output ({exc}); exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return job
    if proc.returncode != 0 or rep["rc"] != 0:
        job["problems"].append(f"exit {proc.returncode}/{rep['rc']}: {proc.stderr.strip()[-300:]}")
    job.update(setup_s=rep["imported"] - launched, job_s=rep["job_s"], rss_mib=rep["rss_mib"],
               results=record["results"], handler_s=record["provenance"]["wall_time_s"],
               output_bytes=len(text.encode()))
    if trace:
        with open(trace_file, "rb") as fp:
            job["trace"] = pickle.load(fp)
    return job


def canonical(results: dict) -> str:
    return json.dumps(results, sort_keys=True)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, or the max if n <= 10."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def levy_probe(seed: int) -> float:
    """Largest |program Lévy - exact| over seeded step-vs-grid CDF pairs."""
    from youngspec.spectra import GridCDF, StepCDF, levy_distance
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for _ in range(PROBE_PAIRS):
        vals = rng.uniform(-0.2, 1.2, int(rng.integers(1, 41)))
        xs = np.sort(rng.uniform(0.0, 1.0, 20))
        fs = np.sort(rng.uniform(0.0, 1.0, 20))
        fs[0], fs[-1] = 0.0, 1.0
        step = StepCDF(vals)
        got = levy_distance(step, GridCDF(xs, fs))
        exact = oracles.levy_exact(oracles.step_graph(step.atoms, step.multiplicities),
                                   oracles.linear_graph(xs, fs))
        worst = max(worst, abs(got - exact))
    return worst


def provenance(workload: str, seed: int, job_seeds: list) -> dict:
    import mpmath
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    mem_kib = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                   if line.startswith("MemTotal"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "mem_mib": mem_kib // 1024,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": job_env()["OPENBLAS_NUM_THREADS"]},
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "workload": workload, "workload_seed": seed, "job_seeds": job_seeds,
    }


def run_workload(name: str, seed: int, seconds: float, work: Path, probe: bool) -> dict:
    """Timed jobs, the traced rerun and the accuracy checks of one workload."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    jobs, job_seeds = [], []
    start = time.monotonic()
    while len(jobs) < 2 or time.monotonic() - start < seconds:
        # the second job reruns the first: the determinism check
        if len(jobs) != 1:
            job_seeds.append(rng.randrange(2**31) if wl.seeded else None)
        job = run_job(wl.argv(job_seeds[-1]), work, f"job{len(jobs)}")
        if "results" in job:
            try:
                job["problems"] += wl.check(job["results"])
            except (KeyError, TypeError) as exc:
                job["problems"].append(f"results lack an expected field: {exc!r}")
        jobs.append(job)
    traced = run_job(jobs[0]["argv"], work, "traced", trace=True)
    first = jobs[0].get("results")
    for other, what in ((jobs[1], "rerun with the same arguments"), (traced, "traced rerun")):
        if first is not None and "results" in other and canonical(other["results"]) != canonical(first):
            other["problems"].append(f"{what} changed results")

    everything = jobs + [traced]
    failed = sum(1 for j in everything if j["problems"])
    timed = [j for j in jobs if "results" in j]
    res = {
        "checks": [f"job {i} {j['argv']}: {p}" for i, j in enumerate(everything) for p in j["problems"]],
        "attempted": len(everything), "failed": failed,
        "times": [j["job_s"] for j in timed],
        "setups": [j["setup_s"] for j in everything if "setup_s" in j],
        "provenance": provenance(name, seed, job_seeds),
        "metrics": {"ok_ratio": 1.0 - failed / len(everything), "failed_ratio": failed / len(everything)},
    }
    if first is None or "trace" not in traced:
        return res
    m = res["metrics"]
    p50 = statistics.median(res["times"])
    m["job_s_tail"], res["tail_percentile"] = tail(res["times"])
    m.update({
        "setup_s": statistics.median(res["setups"]),
        "job_s_p50": p50,
        "peak_rss_mb": max(j["rss_mib"] for j in timed),
        "cli.handler_s": traced["handler_s"],
        "cli.overhead_s": traced["job_s"] - traced["handler_s"],
        "cli.output_bytes": traced["output_bytes"],
        "trace.overhead_s": traced["job_s"] - p50,
    })
    m.update(spans.layer_metrics(traced["trace"]["spans"], traced["handler_s"]))
    m.update(wl.accuracy(first, traced["trace"]["captured"]))
    if probe:
        m["spectra.levy_err_probe"] = levy_probe(seed)
    return res


def report(name: str, res: dict, spec: dict, trace: int) -> dict:
    """Print one workload's report; return the contract's result object."""
    print(f"== workload {name}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    m = res["metrics"]
    for group in ("end_to_end", "per_layer"):
        for item in spec[group]:
            value = f"{m[item['name']]:.6g}" if item["name"] in m else "not measured"
            print(f"{group:10s} {item['name']:28s} {value} {item['unit']}")
    print(f"also       failed_ratio {m['failed_ratio']:.6g} 1 ({res['failed']} of {res['attempted']} jobs)")
    if "tail_percentile" in res:
        print(f"also       job_s_tail {m['job_s_tail']:.6g} s (p{res['tail_percentile']:.0f} "
              f"of {len(res['times'])} timed jobs)")
    print("job_s samples " + " ".join(f"{t:.4f}" for t in res["times"]))
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in res["setups"]))
    for line in res["checks"]:
        print("CHECK FAILED " + line)
    chosen = spec["per_layer" if trace else "end_to_end"]
    complete = all(item["name"] in m for item in chosen)
    return {
        "correct": not res["checks"] and complete,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {item["name"]: {"value": m[item["name"]], "unit": item["unit"]}
                    for item in chosen if item["name"] in m},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "youngspec" / "cli.py").is_file():
        print(f"error: no youngspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        probe = bool(args.trace) or args.workload == "all"
        results = [report(n, run_workload(n, args.seed, args.seconds, work, probe), spec, args.trace)
                   for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
