import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("scripts_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_summary_quartiles():
    bench = _bench_module()
    assert bench.summarise([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "values": [5.0, 1.0, 4.0, 2.0, 3.0]}
    assert bench.summarise([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1, "values": [7.0]}


def test_bench_compare_marks_a_change_beyond_the_spread():
    bench = _bench_module()

    def side(rev, values, metric="job_s_p50"):
        return {"git_rev": rev, "seeds": [1, 2, 3],
                "workloads": {"w": {"metrics": {metric: bench.summarise(values)}}}}

    lines = bench.compare(side("a", [10.0, 11.0, 12.0]), side("b", [8.0, 12.5, 9.0]))
    assert lines[-1].split()[:7] == ["w", "job_s_p50", "11", "9", "-18.2%", "1", "2/3"]
    assert lines[-1].endswith("beyond A's spread")
    lines = bench.compare(side("a", [10.0, 11.0, 12.0]), side("b", [10.5, 11.5, 12.5]))
    assert lines[-1].split()[6] == "0/3" and "beyond" not in lines[-1]
    # ok_ratio is better higher
    lines = bench.compare(side("a", [0.9, 0.95, 1.0], "ok_ratio"), side("b", [1.0, 1.0, 1.0], "ok_ratio"))
    assert lines[-1].split()[6] == "2/3"


def test_bench_script_smoke_run_on_law_r4(tmp_path):
    # one one-second perfbench run of law-r4, then the file compared with itself
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--workloads", "law-r4",
                           "--seeds", "1", "--seconds", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    law = bench["workloads"]["law-r4"]
    assert law["correct"] == law["runs"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(law["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for stats in law["metrics"].values():
        assert stats["n"] == 1 and stats["q1"] == stats["median"] == stats["q3"]
    assert law["metrics"]["ok_ratio"]["median"] == 1.0
    assert bench["seeds"] == [1] and bench["machine"]["cpus"] >= 1
    assert set(bench["machine"]) == {"platform", "cpu_model", "cpus", "python", "numpy", "scipy", "blas",
                                     "blas_threads", "blas_core"}
    threads = bench["machine"]["blas_threads"]
    assert threads is None or threads >= 1
    assert (bench["machine"]["blas_core"] is None) == (threads is None)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == len(spec["end_to_end"])
    assert all("law-r4" in row and "beyond" not in row for row in rows)
