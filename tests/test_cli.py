import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from youngspec.cli import RunConfig, build_record, main
from youngspec.errors import ConfigError
from youngspec.limitlaw import density_with_error

from _oracle import limit_density
from _tables import COLOURED_TREE_COUNTS

RECORD_SCHEMA = {
    "type": "object",
    "required": ["config", "results", "provenance"],
    "additionalProperties": False,
    "properties": {
        "config": {
            "type": "object",
            "required": ["subcommand", "seed", "format"],
        },
        "results": {"type": "object"},
        "provenance": {
            "type": "object",
            "required": ["seed", "substreams", "wall_time_s", "version"],
            "properties": {
                "seed": {"type": ["integer", "null"]},
                "substreams": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"},
                              "minItems": 2, "maxItems": 2},
                },
                "wall_time_s": {"type": "number"},
                "version": {"type": "string"},
            },
        },
    },
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def payload_without_clock(record: dict) -> str:
    rec = json.loads(json.dumps(record))
    rec["provenance"].pop("wall_time_s")
    rec["config"].pop("jobs", None)
    return json.dumps(rec, sort_keys=True)


def test_shape_text(capsys):
    code, out = run_cli(["shape", "--parts", "5,4,4,1"], capsys)
    assert code == 0
    assert "(5, 4, 4, 1)" in out
    assert "conjugate:     (4, 3, 3, 3, 1)" in out
    assert "7/2" in out
    assert out.splitlines()[0] == "■" * 5


def test_shape_json(capsys):
    code, out = run_cli(["shape", "--parts", "3,2,1", "--dilation", "2", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["dilated_parts"] == [6, 6, 4, 4, 2, 2]
    assert rec["results"]["balance_ratio"] == "2/1"


def test_moments_matches_reference_column(capsys):
    code, out = run_cli(["moments", "--r", "2", "--kmax", "10"], capsys)
    assert code == 0
    rec = json.loads(out)
    got = [row["gen_catalan"] for row in rec["results"]["table"]]
    assert got == COLOURED_TREE_COUNTS[2]


def test_moments_with_tree_oracle(capsys):
    code, out = run_cli(["moments", "--r", "3", "--kmax", "4", "--oracle-trees"], capsys)
    assert code == 0
    rec = json.loads(out)
    for row in rec["results"]["table"]:
        assert row["tree_count"] == row["gen_catalan"]


def test_trees(capsys):
    code, out = run_cli(["trees", "--r", "3", "--vertices", "4"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["count"] == 165


def test_simulate_schema_and_determinism(tmp_path, capsys):
    args = ["simulate", "--r", "1", "--dilation", "8", "--entries", "rademacher",
            "--replicas", "3", "--seed", "11", "--kmax", "3", "--bins", "10"]
    code, out1 = run_cli(args, capsys)
    assert code == 0
    rec1 = json.loads(out1)
    assert set(rec1) == {"config", "results", "provenance"}
    assert rec1["provenance"]["seed"] == 11
    assert rec1["provenance"]["substreams"] == [[11, 0], [11, 1], [11, 2]]
    assert len(rec1["results"]["moments"]) == 4
    assert rec1["results"]["moments"][0]["mean"] == 1.0
    assert rec1["results"]["pooled_count"] == 3 * 8

    code, out2 = run_cli(args, capsys)
    rec2 = json.loads(out2)
    assert payload_without_clock(rec1) == payload_without_clock(rec2)


def test_simulate_jobs_equivalence(capsys):
    cases = [
        ["simulate", "--r", "1", "--dilation", "6", "--replicas", "4",
         "--seed", "3", "--kmax", "2", "--bins", "6"],
        ["triangular", "--size", "12", "--replicas", "3", "--entries", "real-gaussian",
         "--seed", "3", "--bins", "6"],
    ]
    for base in cases:
        _, out1 = run_cli(base + ["--jobs", "1"], capsys)
        _, out2 = run_cli(base + ["--jobs", "2"], capsys)
        assert payload_without_clock(json.loads(out1)) == payload_without_clock(json.loads(out2))


def test_simulate_with_explicit_parts(capsys):
    code, out = run_cli(["simulate", "--parts", "3,1", "--dilation", "4", "--replicas", "2",
                         "--seed", "5", "--kmax", "2", "--bins", "4", "--range", "0,9"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["levy_to_limit"] is None
    assert rec["results"]["shape"] == [3, 1]


def test_simulate_csv(tmp_path, capsys):
    out_file = tmp_path / "hist.csv"
    code, _ = run_cli(["simulate", "--r", "1", "--dilation", "6", "--replicas", "2",
                       "--seed", "2", "--bins", "12", "--format", "csv",
                       "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count,density"
    assert len(lines) == 13


def test_law_json_and_csv(tmp_path, capsys):
    code, out = run_cli(["law", "--r", "1", "--grid", "128", "--kmax", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    res = rec["results"]
    assert res["edge"] == {"exact": "4/1", "float": 4.0}
    assert abs(res["normalization"] - 1.0) < 1e-3
    assert abs(res["edge_fits"]["hard"] + 0.5) < 0.05
    assert sorted(res["edge_fits"]) == ["hard", "hard_expected", "soft", "soft_expected"]
    for row in res["moment_checks"]:
        assert row["beta_product_matches"]
        assert row["contour_rel_err"] < 1e-8

    out_file = tmp_path / "grid.csv"
    code, _ = run_cli(["law", "--r", "1", "--grid", "128", "--kmax", "0", "--format", "csv",
                       "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,density,abs_err"
    assert len(lines) == len(res["grid"]["x"]) + 1


def test_law_small_grid_reports_null_edge_fits(capsys):
    code, out = run_cli(["law", "--r", "1", "--grid", "16", "--kmax", "1"], capsys)
    assert code == 0
    fits = json.loads(out)["results"]["edge_fits"]
    for key in ("hard", "soft"):
        assert fits[key] is None
        assert "grid points in the fit window" in fits[key + "_reason"]
    assert fits["hard_expected"] == -0.5 and fits["soft_expected"] == 0.5


def test_sample_law(capsys):
    code, out = run_cli(["sample-law", "--r", "2", "--samples", "5000", "--seed", "4",
                         "--bins", "8"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["ks_to_limit"] < 0.05
    assert len(rec["results"]["density_at_midpoints"]) == 8


def test_triangular(capsys):
    code, out = run_cli(["triangular", "--size", "40", "--replicas", "2", "--seed", "6",
                         "--bins", "10"], capsys)
    assert code == 0
    rec = json.loads(out)
    res = rec["results"]
    assert res["moments"][0]["mean"] == 1.0
    assert len(res["dh_density_at_midpoints"]) == 10
    assert res["sup_discrepancy"] < 0.25


def test_config_file_roundtrip(tmp_path, capsys):
    code, out = run_cli(["simulate", "--r", "1", "--dilation", "6", "--replicas", "3",
                         "--seed", "13", "--kmax", "2", "--bins", "5"], capsys)
    rec_flags = json.loads(out)

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(rec_flags["config"]))
    code, out2 = run_cli(["--config", str(cfg_file), "simulate"], capsys)
    assert code == 0
    assert payload_without_clock(json.loads(out2)) == payload_without_clock(rec_flags)


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"subcommand": "trees", "r": 2, "vertices": 3}))
    code, out = run_cli(["--config", str(cfg_file), "trees", "--r", "3"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["r"] == 3 and rec["results"]["vertices"] == 3


def test_config_file_loses_to_abbreviated_flag(tmp_path, capsys):
    # argparse accepts --gri for --grid; the typed value still beats the file's
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"grid": 64}))
    code, out = run_cli(["--config", str(cfg_file), "law", "--r", "2", "--gri", "32", "--kmax", "1"],
                        capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["config"]["grid"] == 32 and len(rec["results"]["grid"]["x"]) == 32
    code, out = run_cli(["--config", str(cfg_file), "law", "--r", "2", "--kmax", "1"], capsys)
    assert code == 0 and json.loads(out)["config"]["grid"] == 64


@pytest.mark.parametrize("argv", [
    ["shape", "--parts", "3,-1"],
    ["simulate", "--parts", "0", "--dilation", "2", "--replicas", "2", "--seed", "1"],
    ["simulate", "--r", "1", "--dilation", "2", "--replicas", "2", "--seed", "1",
     "--entries", "rademacher", "--trunc", "0.5"],
    ["--config", "no-such-dir/cfg.json", "trees", "--r", "2", "--vertices", "2"],
    ["simulate", "--r", "1", "--dilation", "2", "--replicas", "2", "--seed", "1", "--trunc", "inf"],
    ["simulate", "--r", "1", "--dilation", "2", "--replicas", "2", "--seed", "1",
     "--range=-inf,inf"],
], ids=["negative-part", "empty-shape", "degenerate-truncation", "missing-config-file",
        "infinite-truncation", "infinite-range"])
def test_bad_input_is_validation_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), err


_SIMULATE = {"subcommand": "simulate", "r": 1, "dilation": 2, "replicas": 2, "seed": 1}
_LAW = {"subcommand": "law", "r": 2, "grid": 16, "kmax": 1}


@pytest.mark.parametrize("stored, wanted", [
    ({"subcommand": "trees", "r": 2.5, "vertices": 3}, "--r must be an integer >= 1"),
    ({"subcommand": "law", "r": 2, "grid": 16.5, "kmax": 1}, "--grid must be an integer >= 16"),
    ({"subcommand": "shape", "parts": 5}, "--parts must be a list of integers"),
    ({**_SIMULATE, "range": [0, 1, 2]}, "--range must be two finite numbers"),
    ({**_LAW, "out": 7}, "--out must be a file name"),
    ({**_LAW, "format": "xml"}, "law --format must be one of"),
    ({"subcommand": "trees", "r": 2, "vertices": 3, "format": "csv"}, "trees --format must be one of"),
    ({**_SIMULATE, "seed": True}, "--seed must be an integer >= 0"),
    ({**_LAW, "kmax": None}, "law requires --kmax"),
], ids=["float-r", "float-grid", "scalar-parts", "three-range", "integer-out", "unknown-format",
        "csv-for-trees", "bool-seed", "null-kmax"])
def test_bad_config_file_value_is_validation_error(stored, wanted, tmp_path):
    # JSON values skip argparse's conversion, so the same rules must catch them
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(stored))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "youngspec", "--config", str(cfg_file),
                           stored["subcommand"]], capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 2 and proc.stderr.startswith("error: "), proc.stderr
    assert wanted in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == "" and list(tmp_path.iterdir()) == [cfg_file]


def test_hand_built_config_is_validated():
    # build_record applies the same rules to a RunConfig no parser produced
    with pytest.raises(ConfigError, match="--r must be an integer >= 1"):
        build_record(RunConfig(subcommand="law", r=0))
    with pytest.raises(ConfigError, match="law requires --grid"):
        build_record(RunConfig(subcommand="law", r=2))
    with pytest.raises(ConfigError, match="moments --format"):
        build_record(RunConfig(subcommand="moments", r=1, kmax=2, format="csv"))
    with pytest.raises(ConfigError, match="--tol must be a positive number"):
        build_record(RunConfig(subcommand="law", r=2, grid=16, tol=float("nan"), kmax=1))


@pytest.mark.parametrize("argv, wanted", [
    (["moments", "--r", "3", "--kmax", "2000"], "k = 320 of the r = 3 law"),
    (["triangular", "--size", "5", "--replicas", "2", "--seed", "1", "--kmax", "800"],
     "k = 721 of the triangular law"),
    (["simulate", "--parts", "5,4", "--dilation", "3", "--replicas", "2", "--seed", "1",
      "--kmax", "1500"], "simulate result exceeds the float range"),
    # L(10^4) = 10001^10001 / 10^40000 has more digits than Python prints
    (["law", "--r", "10000", "--grid", "16", "--kmax", "0"], "too many digits"),
], ids=["moments", "triangular", "simulate-parts", "law-edge-digits"])
def test_unrepresentable_results_are_numerical_failures(argv, wanted, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == "", out[:200]
    assert err.startswith("numerical failure: OutsideDomainError") and wanted in err, err


def test_tree_budget_is_numerical_failure():
    proc = subprocess.run([sys.executable, "-m", "youngspec", "trees", "--r", "1000000",
                           "--vertices", "12"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: ResourceLimitError"), proc.stderr


def test_missing_seed_is_validation_error(capsys):
    code, _ = run_cli(["simulate", "--r", "1", "--dilation", "4", "--replicas", "2"], capsys)
    assert code == 2


def test_bad_config_value_is_validation_error(capsys):
    code, _ = run_cli(["law", "--r", "0"], capsys)
    assert code == 2
    code, _ = run_cli(["simulate", "--r", "1", "--parts", "2,1", "--dilation", "2",
                       "--replicas", "2", "--seed", "1"], capsys)
    assert code == 2


def test_numerical_failure_exit_code(capsys):
    code, _ = run_cli(["law", "--r", "3", "--grid", "32", "--tol", "1e-30"], capsys)
    assert code == 3


def test_law_large_order_is_finite(capsys):
    # the parametric law works in logs, so r = 120 neither overflows nor
    # loses its moments
    code, out = run_cli(["law", "--r", "120", "--grid", "64"], capsys)
    assert code == 0
    checks = json.loads(out)["results"]["moment_checks"]
    assert len(checks) == 7
    assert all(row["grid_rel_err"] < 1e-10 for row in checks), checks


def test_simulate_square_case_levy_convergence(capsys):
    # documented example seed; the pooled spectrum at N=50 must sit close
    # to the square-case limit law
    code, out = run_cli(["simulate", "--r", "1", "--dilation", "50", "--replicas", "10",
                         "--seed", "7", "--kmax", "2", "--bins", "32"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["levy_to_limit"] < 0.05


def test_simulate_square_case_catalan_moments(capsys):
    code, out = run_cli(["simulate", "--r", "1", "--dilation", "50",
                         "--entries", "complex-gaussian", "--replicas", "20",
                         "--seed", "7", "--kmax", "4"], capsys)
    assert code == 0
    rec = json.loads(out)
    want = [1.0, 1.0, 2.0, 5.0, 14.0]
    for row, ref in zip(rec["results"]["moments"], want):
        assert abs(row["mean"] - ref) / ref < 0.1


def test_trees_large_order_finishes():
    # 6.4e11 coloured trees: the count walks each of the 429 plane trees once
    proc = subprocess.run([sys.executable, "-m", "youngspec", "trees", "--r", "20", "--vertices", "8"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["count"] == 636434408610


def test_sample_law_midpoint_densities_are_exact(capsys):
    code, out = run_cli(["sample-law", "--r", "2", "--samples", "1000", "--seed", "4",
                         "--bins", "96"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    edges = np.asarray(res["histogram"]["edges"])
    mids = 0.5 * (edges[:-1] + edges[1:])
    got = np.asarray(res["density_at_midpoints"])
    inside = mids < 6.75
    assert np.array_equal(got[inside], density_with_error(2, mids[inside])[0])
    assert np.all(got[~inside] == 0.0)
    # midpoint 2 sits at 0.027 L, where the hard-edge singularity is steep
    for i in (2, 40, 85):
        ref = limit_density(2, float(mids[i]))
        assert abs(got[i] - ref) <= 1e-12 * ref, (i, got[i], ref)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "youngspec", "trees", "--r", "2", "--vertices", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["count"] == 3


def test_cli_import_leaves_out_scipy_and_process_pool():
    # scipy, mpmath and sympy are test dependencies only (the triangular
    # law's series coefficients are literals), and worker processes load
    # only for --jobs > 1
    code = ("import sys, youngspec.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath', 'sympy') "
            "or m == 'concurrent.futures.process'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_trace_hooks_run(tmp_path):
    # perfbench wraps the program's functions by name; a traced job must still run
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    matrix_spans = {"matrices.sample_shaped", "matrices.covariance", "spectra.eigenvalues"}
    jobs = [
        (["simulate", "--r", "2", "--dilation", "6", "--replicas", "2", "--seed", "1",
          "--kmax", "2", "--bins", "4"], matrix_spans),
        (["law", "--r", "2", "--grid", "64", "--kmax", "2"], {"limitlaw.density_grid"}),
        (["sample-law", "--r", "2", "--samples", "500", "--seed", "2", "--bins", "4"],
         {"limitlaw.beta_product_samples", "spectra.levy_distance"}),
        (["triangular", "--size", "12", "--replicas", "2", "--entries", "real-gaussian",
          "--seed", "3", "--bins", "4"], matrix_spans),
    ]
    for argv, wanted in jobs:
        report, trace = tmp_path / "report.json", tmp_path / "spans.pkl"
        proc = subprocess.run([sys.executable, str(repo / "perfbench" / "job.py"), str(report),
                               "--trace", str(trace), "--", *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(report.read_text())["rc"] == 0, argv
        names = {span[0] for span in pickle.loads(trace.read_bytes())["spans"]}
        assert wanted <= names, (argv, wanted - names)


def test_build_record_direct():
    cfg = RunConfig(subcommand="moments", r=1, kmax=4)
    rec = build_record(cfg)
    assert [row["gen_catalan"] for row in rec["results"]["table"]] == [1, 1, 2, 5, 14]


def test_every_subcommand_validates_against_schema(capsys):
    invocations = [
        ["shape", "--parts", "3,1", "--format", "json"],
        ["moments", "--r", "2", "--kmax", "3"],
        ["trees", "--r", "2", "--vertices", "3"],
        ["simulate", "--r", "1", "--dilation", "5", "--replicas", "2",
         "--seed", "1", "--kmax", "2", "--bins", "4"],
        ["law", "--r", "1", "--grid", "64", "--kmax", "1"],
        ["sample-law", "--r", "1", "--samples", "500", "--seed", "2", "--bins", "4"],
        ["triangular", "--size", "12", "--replicas", "2", "--seed", "3", "--bins", "4"],
    ]
    for argv in invocations:
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        jsonschema.validate(json.loads(out), RECORD_SCHEMA)
