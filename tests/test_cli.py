import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from youngspec import cli
from youngspec.cli import RunConfig, build_record, main, render_output
from youngspec.errors import ConfigError, InvalidRangeError
from youngspec.limitlaw import density_with_error, dh_cdf, support_edge
from youngspec.matrices import EntryDistribution
from youngspec.partitions import Partition
from youngspec.spectra import StepCDF, histogram, shape_ensemble_spectra, spectra_moments
from youngspec.streams import substream

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
    # each end is finite but hi - lo is not
    ["simulate", "--r", "1", "--dilation", "1", "--replicas", "1", "--seed", "1",
     "--range=-1e308,1e308"],
    # hi - lo is one ulp, below what 64 bins can split
    ["simulate", "--r", "1", "--dilation", "1", "--replicas", "1", "--seed", "1",
     "--range=1,1.0000000000000002"],
    ["trees", "--r", "2", "--vertices", "3", "--out", "no-such-dir/out.json"],
    # Philox takes a 64-bit key: a larger seed is refused, not reduced to one that is taken
    ["sample-law", "--r", "1", "--samples", "5", "--seed", str(1 << 64), "--bins", "2"],
], ids=["negative-part", "empty-shape", "degenerate-truncation", "missing-config-file",
        "infinite-truncation", "infinite-range", "infinite-range-width", "unsplittable-range",
        "unwritable-out", "seed-past-64-bits"])
def test_bad_input_is_validation_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err


def test_largest_seed_still_runs(capsys):
    code, out = run_cli(["sample-law", "--r", "1", "--samples", "5", "--seed", str((1 << 64) - 1),
                         "--bins", "2"], capsys)
    assert code == 0 and json.loads(out)["provenance"]["substreams"] == [[(1 << 64) - 1, 0]]


@pytest.mark.parametrize("stored, wanted", [
    ([1], "config file must hold a JSON object"),
    ({"subcommand": "law"}, "config file is for 'law', not 'trees'"),
    ({"r": 2, "colour": 3}, "unknown config key 'colour'"),
], ids=["not-an-object", "other-subcommand", "unknown-key"])
def test_config_file_refusals(stored, wanted, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(stored))
    code = main(["--config", str(cfg_file), "trees", "--r", "2", "--vertices", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err == f"error: {wanted}\n", err


def test_no_subcommand_prints_help(capsys):
    code = main([])
    out, err = capsys.readouterr()
    assert code == 2 and out.startswith("usage: youngspec") and err == ""


_ENDS = st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None)
@example(lo=0.0, hi=5e-324, bins=1)  # one bin of the least width: its count's density is inf
@given(lo=_ENDS, hi=st.one_of(_ENDS, st.tuples(_ENDS, st.integers(-3, 5000)).map(
    lambda p: p[0] + p[1] * math.ulp(p[0]))), bins=st.integers(0, 4096))
def test_validated_range_is_one_histogram_can_take(lo, hi, bins):
    # _validate applies the histogram's own edge rule: it admits a (range, bins) iff histogram does
    cfg = RunConfig(subcommand="simulate", r=1, dilation=1, replicas=1, seed=1, kmax=0, bins=bins,
                    range=[lo, hi])
    try:
        cli._validate(cfg)
        admitted = True
    except ConfigError:
        admitted = False
    try:
        histogram(np.zeros(1), bins, (lo, hi))
        accepted = True
    except InvalidRangeError:
        accepted = False
    assert admitted == accepted, (lo, hi, bins)


def _pooled_max(parts, dilation, replicas, seed):
    shape = Partition(parts).dilate(dilation)
    dist = EntryDistribution("complex-gaussian")
    return float(shape_ensemble_spectra(shape, dilation, dist, replicas, seed).max())


@pytest.mark.parametrize("argv, lo, hi", [
    (["simulate", "--r", "2", "--dilation", "6", "--replicas", "2", "--seed", "1", "--kmax", "1",
      "--bins", "7"], 0.0, 1.05 * float(support_edge(2))),
    (["sample-law", "--r", "3", "--samples", "300", "--seed", "2", "--bins", "5"],
     0.0, 1.05 * float(support_edge(3))),
    (["triangular", "--size", "10", "--replicas", "2", "--seed", "3", "--kmax", "1", "--bins", "6"],
     0.0, 1.05 * math.e),
    (["simulate", "--parts", "3,1", "--dilation", "4", "--replicas", "2", "--seed", "5", "--kmax", "1",
      "--bins", "9"], 0.0, 1.05 * _pooled_max([3, 1], 4, 2, 5)),
    (["simulate", "--parts", "3,1", "--dilation", "4", "--replicas", "2", "--seed", "5", "--kmax", "1",
      "--bins", "9", "--range", "0.5,9"], 0.5, 9.0),
    (["simulate", "--r", "2", "--dilation", "6", "--replicas", "2", "--seed", "1", "--kmax", "1",
      "--bins", "7", "--range=-1,3.25"], -1.0, 3.25),
    # every entry is truncated to 0, so the spectrum is all 0: the window ends 5 % past the
    # law's mean eigenvalue |lambda| / len(lambda) = 1, not at (0, 0)
    (["simulate", "--parts", "1", "--dilation", "1", "--replicas", "1", "--seed", "1",
      "--entries", "centered-uniform", "--trunc", "0.01"], 0.0, 1.05),
], ids=["simulate-r", "sample-law", "triangular", "simulate-parts", "simulate-parts-range",
        "simulate-r-range", "all-zero-spectrum"])
def test_default_histogram_window(argv, lo, hi, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0, argv
    rec = json.loads(out)
    edges = np.array(rec["results"]["histogram"]["edges"])
    assert edges.tobytes() == np.linspace(lo, hi, rec["config"]["bins"] + 1).tobytes()


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
    # a setting with a flag default is required, so a null is refused, not read as the default
    ({**_SIMULATE, "entries": None}, "simulate requires --entries"),
    ({"subcommand": "moments", "r": 2, "kmax": 2, "oracle_trees": None},
     "moments requires --oracle-trees"),
], ids=["float-r", "float-grid", "scalar-parts", "three-range", "integer-out", "unknown-format",
        "csv-for-trees", "bool-seed", "null-kmax", "null-entries", "null-oracle-trees"])
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
    with pytest.raises(ConfigError, match="unknown subcommand 'bogus'"):
        build_record(RunConfig(subcommand="bogus"))


def _refuse(*args, **kwargs):
    raise AssertionError("reached after the failing check")


# ``late`` names a cli step patched to raise: the failure must come before it
@pytest.mark.parametrize("argv, late, wanted", [
    (["moments", "--r", "3", "--kmax", "2000"], None, "k = 320 of the r = 3 law"),
    # the limit moments overflow at k = 721, before any spectrum is drawn
    (["triangular", "--size", "5", "--replicas", "2", "--seed", "1", "--kmax", "800"],
     "shape_ensemble_spectra", "k = 721 of the triangular law"),
    (["simulate", "--parts", "5,4", "--dilation", "3", "--replicas", "2", "--seed", "1",
      "--kmax", "1500"], None, "empirical moment k = 317 exceeds the float range"),
    # every moment up to k = 200 is finite, but some variances are not
    (["simulate", "--parts", "5,4", "--dilation", "3", "--replicas", "2", "--seed", "1",
      "--kmax", "200"], None, "simulate result exceeds the float range"),
    # the limit moments overflow at k = 377, before any spectrum is drawn
    (["simulate", "--r", "2", "--dilation", "2", "--replicas", "2", "--seed", "1",
      "--kmax", "200000"], "shape_ensemble_spectra", "moment k = 377 of the r = 2 law"),
    # the all-zero spectrum's one eigenvalue lies in a bin 5e-324 wide: its density is inf
    (["simulate", "--parts", "1", "--dilation", "1", "--replicas", "1", "--seed", "1",
      "--entries", "centered-uniform", "--trunc", "0.01", "--range=0,5e-324", "--bins", "1"], None,
     "simulate result exceeds the float range"),
    # L(10^4) = 10001^10001 / 10^40000 has more digits than Python prints
    (["law", "--r", "10000", "--grid", "16", "--kmax", "0"], None, "too many digits"),
    # L(10^5) has 500,005 digits in its numerator; printing fails before the grid is solved
    (["law", "--r", "100000", "--grid", "16", "--kmax", "0"], "density_grid", "too many digits"),
], ids=["moments", "triangular", "simulate-parts", "simulate-parts-variance",
        "simulate-limit-moments", "subnormal-bin", "law-edge-digits", "law-edge-digits-first"])
def test_unrepresentable_results_are_numerical_failures(argv, late, wanted, capsys, monkeypatch):
    if late:
        monkeypatch.setattr(cli, late, _refuse)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == "", out[:200]
    assert err.startswith("numerical failure: OutsideDomainError") and wanted in err, err
    assert err.count("\n") == 1, err


def test_triangular_empirical_moment_overflow_is_numerical_failure(capsys, monkeypatch):
    # five eigenvalues 3.0 sum 3^k past the float range at k = 645, dh_moment(k) only at
    # k = 721: the empirical overflow is named and leaks no numpy warning, which the
    # pytest settings turn into an error
    monkeypatch.setattr(cli, "shape_ensemble_spectra", lambda *args, **kwargs: np.full((2, 5), 3.0))
    code = main(["triangular", "--size", "5", "--replicas", "2", "--seed", "1", "--kmax", "700"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "", out[:200]
    assert err == ("numerical failure: OutsideDomainError: "
                   "empirical moment k = 645 exceeds the float range\n"), err


@pytest.mark.parametrize("argv, dim", [
    (["simulate", "--r", "2", "--dilation", "2", "--replicas", "3", "--seed", "1"], 4),
    (["triangular", "--size", "3", "--replicas", "3", "--seed", "1"], 3),
], ids=["simulate", "triangular"])
def test_ensembles_take_their_moments_in_one_pass(argv, dim, capsys, monkeypatch):
    # both ensemble subcommands take every moment through one spectra_moments call
    calls = []

    def spy(spectra, k_max):
        calls.append((spectra.shape, k_max))
        return spectra_moments(spectra, k_max)

    monkeypatch.setattr(cli, "spectra_moments", spy)
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert calls == [((3, dim), record["config"]["kmax"])]


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
    err = np.asarray(res["density_abs_err_at_midpoints"])
    inside = mids < 6.75
    f, f_err = density_with_error(2, mids[inside])
    assert np.array_equal(got[inside], f) and np.array_equal(err[inside], f_err)
    assert np.all(got[~inside] == 0.0) and np.all(err[~inside] == 0.0)
    assert err.shape == got.shape and np.all(err >= 0.0) and np.any(err > 0.0)
    # midpoint 2 sits at 0.027 L, where the hard-edge singularity is steep
    for i in (2, 40, 85):
        ref = limit_density(2, float(mids[i]))
        assert abs(got[i] - ref) <= 1e-12 * ref, (i, got[i], ref)


def test_sample_law_density_only_inside_the_support():
    # no flag sets sample-law's --range, but a hand-built config may: the midpoint 0 of
    # (-1, 1) lies outside (0, L), where the density is 0, not an OutsideSupportError
    rec = build_record(RunConfig(subcommand="sample-law", r=2, samples=100, seed=1, bins=4,
                                 range=[-1.0, 7.0]))
    res = rec["results"]
    assert res["density_at_midpoints"][0] == 0.0
    assert res["density_at_midpoints"][1:] == density_with_error(2, np.array([2.0, 4.0, 6.0]))[0].tolist()


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
    # the package root holds only its version: each name is imported from its module
    code = ("import sys, youngspec; "
            "print([m for m in sys.modules if m.startswith('youngspec.') or m == 'numpy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_subcommands_leave_out_numpy_ma():
    # np.unique without return flags imports numpy.ma, about 14 ms per job
    runs = [["shape", "--parts", "3,1"], ["moments", "--r", "2", "--kmax", "3"],
            ["trees", "--r", "2", "--vertices", "3"],
            ["simulate", "--r", "2", "--dilation", "4", "--replicas", "2", "--seed", "1"],
            ["simulate", "--parts", "3,1", "--dilation", "4", "--replicas", "2", "--seed", "1"],
            ["law", "--r", "2", "--grid", "64", "--kmax", "2"],
            ["sample-law", "--r", "2", "--samples", "500", "--seed", "1"],
            ["triangular", "--size", "12", "--replicas", "2", "--seed", "1"]]
    code = ("import contextlib, io, json, sys, youngspec.cli as cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    print(argv[0], 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [w for argv in runs for w in (argv[0], "False")]


@pytest.mark.parametrize("argv, handler", [
    (["simulate", "--r", "2", "--dilation", "1000000", "--replicas", "1", "--seed", "1"],
     "shape_ensemble_spectra"),
    (["simulate", "--parts", "5,4,4,1", "--dilation", "7000", "--entries", "rademacher",
      "--replicas", "1", "--seed", "1"], "shape_ensemble_spectra"),
    (["triangular", "--size", "12000", "--replicas", "1", "--seed", "1"], "shape_ensemble_spectra"),
    # a byte count past the float range is reported as inf GiB, not an OverflowError
    (["simulate", "--r", "2", "--dilation", "9" * 400, "--replicas", "1", "--seed", "1"],
     "shape_ensemble_spectra"),
])
def test_matrix_memory_budget_refuses_before_sampling(argv, handler, capsys, monkeypatch):
    # X and W of one replica: 8 or 16 bytes * (rows * cols + rows^2) and a row block's scratch,
    # here 116 TiB, 13 GiB, 4.3 GiB and about 1e802 bytes, over the 4 GiB budget; nothing is
    # dilated or sampled
    def forbidden(*args, **kwargs):
        raise AssertionError("work before the budget check")

    monkeypatch.setattr(cli, handler, forbidden)
    monkeypatch.setattr(cli.Partition, "dilate", forbidden)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "over the 4 GiB budget" in err, err


def test_matrix_memory_budget_admits_its_largest_replica():
    # complex dim s needs 16 * 2 * s^2 bytes of X and W and 16 * 64 * s of the product's
    # conjugate rows, beside its s pooled eigenvalues, one replica, two moment rows and 4 bins:
    # 11568 is the largest dim whose sum fits 4 GiB
    def need(s):
        return (16 * (2 * s**2 + 64 * s) + cli.EIG_BYTES * s + cli.REPLICA_BYTES + 2 * cli.ORDER_BYTES
                + 4 * cli.BIN_BYTES)

    assert need(11568) <= cli.MEMORY_BUDGET < need(11569)
    for size, ok in ((11568, True), (11569, False)):
        cfg = RunConfig(subcommand="triangular", size=size, replicas=1, seed=1, kmax=1, bins=4)
        if ok:
            cli._validate(cfg)
        else:
            with pytest.raises(ConfigError, match="budget"):
                cli._validate(cfg)


@pytest.mark.parametrize("samples", ["10000000000000", "148102321", "9" * 400])
def test_samples_memory_budget_refuses_before_drawing(samples, capsys, monkeypatch):
    # SAMPLE_BYTES per draw: 264 TiB, one sample over 4 GiB, and a count past the float range
    def forbidden(*args, **kwargs):
        raise AssertionError("draws before the budget check")

    monkeypatch.setattr(cli, "beta_product_samples", forbidden)
    assert main(["sample-law", "--r", "2", "--samples", samples, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "over the 4 GiB budget" in err, err


def test_refused_total_never_reads_as_the_budget(capsys, monkeypatch):
    # one draw over: the total is rounded up, so it does not read as 4 GiB
    monkeypatch.setattr(cli, "beta_product_samples", _refuse)
    assert main(["sample-law", "--r", "2", "--samples", "148062889", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample-law needs 4.01 GiB, over the 4 GiB budget ("), err


def test_samples_memory_budget_admits_its_largest_count():
    # the draws get what the 4 bins and a distance block leave of the budget
    largest = (cli.MEMORY_BUDGET - 4 * cli.BIN_BYTES - cli.WALK_BYTES) // cli.SAMPLE_BYTES
    assert largest == 148_064_295
    for samples, ok in ((largest, True), (largest + 1, False)):
        cfg = RunConfig(subcommand="sample-law", r=2, samples=samples, seed=1, bins=4)
        if ok:
            cli._validate(cfg)
        else:
            with pytest.raises(ConfigError, match="budget"):
                cli._validate(cfg)


def test_samples_memory_budget_covers_the_traced_peak():
    # SAMPLE_BYTES bounds a run's traced peak per sample, constant part included: the
    # distances' blocks are a constant part, so the run spans a dozen of them
    import tracemalloc

    cfg = RunConfig(subcommand="sample-law", r=2, samples=200_000, seed=1, bins=16)
    cli._run_sample_law(cfg)  # caches and imports are not per-sample
    tracemalloc.start()
    try:
        cli._run_sample_law(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 * cli.SAMPLE_BYTES * cfg.samples < peak <= cli.SAMPLE_BYTES * cfg.samples * 1.05


# the captures perfbench's limit-CDF accuracy check unpacks: exactly one of each, with these keys
_LIMIT_CAPTURES = {"limitlaw.density_grid": {"r", "edge", "x", "f", "err"},
                   "spectra.levy_distance": {"atoms", "counts", "xs", "fs", "value"}}


def test_benchmark_trace_hooks_run(tmp_path):
    # perfbench wraps the program's functions by name; a traced job must still run
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    matrix_spans = {"matrices.sample_shaped", "matrices.covariance", "spectra.eigenvalues"}
    jobs = [
        (["simulate", "--r", "2", "--dilation", "6", "--replicas", "2", "--seed", "1",
          "--kmax", "2", "--bins", "4"], matrix_spans, _LIMIT_CAPTURES),
        (["law", "--r", "2", "--grid", "64", "--kmax", "2"], {"limitlaw.density_grid"}, {}),
        (["sample-law", "--r", "2", "--samples", "500", "--seed", "2", "--bins", "4"],
         {"limitlaw.beta_product_samples", "spectra.levy_distance"}, _LIMIT_CAPTURES),
        (["triangular", "--size", "12", "--replicas", "2", "--entries", "real-gaussian",
          "--seed", "3", "--bins", "4"], matrix_spans, {}),
    ]
    for argv, wanted, captures in jobs:
        report, trace = tmp_path / "report.json", tmp_path / "spans.pkl"
        proc = subprocess.run([sys.executable, str(repo / "perfbench" / "job.py"), str(report),
                               "--trace", str(trace), "--", *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(report.read_text())["rc"] == 0, argv
        traced = pickle.loads(trace.read_bytes())
        names = {span[0] for span in traced["spans"]}
        assert wanted <= names, (argv, wanted - names)
        for name, keys in captures.items():
            assert [set(c) for c in traced["captured"].get(name, [])] == [keys], (argv, name)


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


_KINDS = ("complex-gaussian", "real-gaussian", "rademacher", "centered-uniform")
# each subcommand's options, in --help order, as the CLI has always parsed
# them: (flag, type / choices / action, default)
PARSER_GOLDEN = {
    "shape": [("--parts", "_ints", None), ("--dilation", "int", None), ("--out", None, None),
              ("--format", ("text", "json"), "text")],
    "moments": [("--r", "int", None), ("--kmax", "int", None),
                ("--oracle-trees", "store_true", False), ("--out", None, None)],
    "trees": [("--r", "int", None), ("--vertices", "int", None), ("--out", None, None)],
    "simulate": [("--r", "int", None), ("--parts", "_ints", None), ("--dilation", "int", None),
                 ("--entries", _KINDS, "complex-gaussian"), ("--trunc", "float", None),
                 ("--replicas", "int", None), ("--seed", "int", None), ("--kmax", "int", 4),
                 ("--bins", "int", 64), ("--range", "_floats", None), ("--jobs", "int", 1),
                 ("--out", None, None), ("--format", ("json", "csv"), "json")],
    "law": [("--r", "int", None), ("--grid", "int", 768), ("--tol", "float", 1e-5),
            ("--kmax", "int", 6), ("--out", None, None), ("--format", ("json", "csv"), "json")],
    "sample-law": [("--r", "int", None), ("--samples", "int", None), ("--seed", "int", None),
                   ("--bins", "int", 64), ("--out", None, None),
                   ("--format", ("json", "csv"), "json")],
    "triangular": [("--size", "int", None), ("--replicas", "int", None),
                   ("--entries", _KINDS, "complex-gaussian"), ("--seed", "int", None),
                   ("--kmax", "int", 3), ("--bins", "int", 64), ("--jobs", "int", 1),
                   ("--out", None, None), ("--format", ("json", "csv"), "json")],
}


def test_parser_matches_golden():
    sub = cli.build_parser()._subparsers._group_actions[0]
    assert list(sub.choices) == list(PARSER_GOLDEN)
    for sc, p in sub.choices.items():
        got = []
        for a in p._actions[1:]:  # after -h
            kind = (tuple(a.choices) if a.choices else a.type.__name__ if a.type
                    else "store_true" if a.const is True else None)
            assert a.dest == a.option_strings[-1][2:].replace("-", "_"), a
            got.append((*a.option_strings, kind, a.default))
        assert got == PARSER_GOLDEN[sc], sc
        assert p.get_default("format") == cli._FORMATS[sc][0] == ("text" if sc == "shape" else "json")


def test_readme_command_lines_parse():
    # every `youngspec ...` line of README.md parses; none of them is run
    import shlex

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text().replace("\\\n", " ")
    lines = [ln.split("#")[0] for ln in text.splitlines() if ln.startswith("youngspec ")]
    assert len(lines) >= 7
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        assert args.subcommand == argv[0], line


def _window_sup_reference(pooled, lo, hi):
    """Brute-force sup of |S - F| on [lo, hi]: values and left limits at each
    atom and its nextafter neighbours, and at lo and hi."""
    ecdf = StepCDF(pooled)
    atoms = np.unique(pooled)
    pts = np.concatenate([[lo, hi], atoms, np.nextafter(atoms, -np.inf), np.nextafter(atoms, np.inf)])
    pts = pts[(pts >= lo) & (pts <= hi)]
    f = dh_cdf(pts)
    right = np.abs(ecdf.eval(pts) - f)
    left = np.abs(ecdf.eval_left(pts) - f)[pts > lo]  # S(lo-) lies outside the window
    return float(max(right.max(), left.max()))


@pytest.mark.parametrize("pooled", [
    None,  # a seeded staircase spectrum
    [0.1, 0.2, 0.2, 0.5, 0.5, 0.5, 1.0, 1.0, 2.5, 2.5, 3.0],  # atoms at lo, hi and tied
    [1.0] * 8,  # one jump, whose left side is the sup
    [0.05, 2.6, 2.7],  # no atom inside the window
    list(np.round(substream(16, 0).uniform(0.0, 3.0, 400), 2)),  # ties throughout
], ids=["spectrum", "edges-and-ties", "one-jump", "no-atom-inside", "rounded"])
def test_triangular_sup_discrepancy_is_exact(pooled, monkeypatch):
    real, seen = cli.shape_ensemble_spectra, []

    def spectra(*args, **kwargs):
        out = real(*args, **kwargs) if pooled is None else np.array([pooled], dtype=float)
        seen.append(out.ravel())
        return out

    monkeypatch.setattr(cli, "shape_ensemble_spectra", spectra)
    cfg = RunConfig(subcommand="triangular", size=30, replicas=2, seed=5, kmax=1, bins=8)
    res = build_record(cfg)["results"]
    ref = _window_sup_reference(seen[0], *res["window"])
    assert abs(res["sup_discrepancy"] - ref) <= 1e-12, (res["sup_discrepancy"], ref)
    if pooled == [1.0] * 8:  # S(1-) = 0, so the gap is F(1) there
        assert res["sup_discrepancy"] == max(dh_cdf(1.0), 1.0 - dh_cdf(1.0))


@pytest.mark.parametrize("argv", [
    ["simulate", "--r", "1", "--dilation", "2", "--replicas", "1", "--seed", "1", "--bins", "9" * 400],
    ["sample-law", "--r", "2", "--samples", "10", "--seed", "1",
     "--bins", str(cli.MEMORY_BUDGET // cli.BIN_BYTES + 1)],
    ["triangular", "--size", "3", "--replicas", "1", "--seed", "1", "--bins", "100000000"],
    ["law", "--r", "2", "--grid", "9" * 400],
    ["law", "--r", "2", "--grid", str(cli.MEMORY_BUDGET // cli.GRID_BYTES + 1)],
], ids=["simulate-huge-bins", "sample-law-one-bin-over", "triangular-1e8-bins", "law-huge-grid",
        "law-one-point-over"])
def test_bins_and_grid_memory_budget_refuses_before_work(argv, capsys, monkeypatch):
    # BIN_BYTES a bin, GRID_BYTES a grid point; a 400-digit count is past the float range
    def forbidden(*args, **kwargs):
        raise AssertionError("work before the budget check")

    for sc in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, sc, forbidden)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "over the 4 GiB budget" in err, err
    assert f"error: {argv[0]} needs " in err, err
    assert f"{'grid points' if argv[0] == 'law' else 'histogram bins'} " in err, err


def test_bins_and_grid_memory_budget_admits_its_largest_count():
    # the bins get what a complex size-3 replica (its Hermitian gate's W and three row
    # blocks, 16 * (9 + 3 * 9) bytes), its 3 pooled eigenvalues and two moment rows leave
    # of the budget; law's grid has the budget to itself
    replica = 16 * 36 + 3 * cli.EIG_BYTES + cli.REPLICA_BYTES + 2 * cli.ORDER_BYTES
    for field, unit, rest, base in (
            ("bins", cli.BIN_BYTES, replica, dict(subcommand="triangular", size=3, replicas=1, seed=1, kmax=1)),
            ("grid", cli.GRID_BYTES, 0, dict(subcommand="law", r=2, tol=1e-5, kmax=1))):
        largest = (cli.MEMORY_BUDGET - rest) // unit
        assert largest == {"bins": 6_316_122, "grid": 5_804_009}[field]
        cli._validate(RunConfig(**base, **{field: largest}))
        with pytest.raises(ConfigError, match="budget"):
            cli._validate(RunConfig(**base, **{field: largest + 1}))


@pytest.mark.parametrize("cfg, unit", [
    (RunConfig(subcommand="triangular", size=3, replicas=1, seed=1, kmax=1, bins=10_000), "BIN_BYTES"),
    (RunConfig(subcommand="law", r=2, grid=5_000, tol=1e-5, kmax=1), "GRID_BYTES"),
], ids=["bins", "grid"])
def test_bins_and_grid_memory_budget_covers_the_traced_peak(cfg, unit):
    # the per-unit constant bounds a run's traced peak, record and its JSON text included
    import tracemalloc

    units = cfg.bins or cfg.grid
    render_output(build_record(cfg), cfg)  # caches and imports are not per-unit
    tracemalloc.start()
    try:
        render_output(build_record(cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_unit = getattr(cli, unit)
    assert 0.75 * per_unit * units < peak <= per_unit * units * 1.05, peak / units


@pytest.mark.parametrize("argv, parts", [
    # each part alone fits the 4 GiB budget; their sum does not
    (["sample-law", "--r", "2", "--samples", "148102320", "--bins", "6316128", "--seed", "1"],
     ["draws 4 GiB", "histogram bins 4 GiB"]),
    (["triangular", "--size", "9000", "--replicas", "1", "--seed", "1", "--bins", "3000000"],
     ["one replica's matrices 2.42 GiB", "pooled eigenvalues", "histogram bins 1.9 GiB"]),
    # 2e9 pooled eigenvalues of 1e6 replicas at dim 2000
    (["simulate", "--r", "2", "--dilation", "1000", "--replicas", "1000000", "--seed", "1"],
     ["one replica's matrices 0.121 GiB", "pooled eigenvalues 146 GiB"]),
    (["simulate", "--r", "1", "--dilation", "1", "--replicas", "9" * 400, "--seed", "1"],
     ["pooled eigenvalues inf GiB"]),
    # 1.4e11 glyphs of (5, 4, 4, 1) dilated 10^5 times
    (["shape", "--parts", "5,4,4,1", "--dilation", "100000"], ["diagram boxes 1.96e+03 GiB"]),
    (["shape", "--parts", "5,4,4,1", "--dilation", "9" * 400], ["diagram boxes inf GiB"]),
    (["shape", "--parts", "9" * 400], ["diagram boxes inf GiB"]),
    # where no moment overflows nothing else bounds kmax: 1e8 orders of two replicas
    (["simulate", "--parts", "1", "--dilation", "1", "--entries", "rademacher", "--replicas", "2",
      "--seed", "1", "--kmax", "100000000"], ["moment rows 126 GiB"]),
    (["triangular", "--size", "2", "--replicas", "1", "--seed", "1", "--kmax", "9" * 400],
     ["moment rows inf GiB"]),
], ids=["sample-law-draws-and-bins", "triangular-replica-and-bins", "simulate-pooled",
        "simulate-huge-replicas", "shape-dilation", "shape-huge-dilation", "shape-huge-part",
        "simulate-kmax", "triangular-huge-kmax"])
def test_summed_memory_budget_refuses_before_work(argv, parts, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work before the budget check")

    for sc in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, sc, forbidden)
    monkeypatch.setattr(cli.Partition, "dilate", forbidden)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and ", over the 4 GiB budget (" in err, err
    assert err.startswith(f"error: {argv[0]} needs "), err
    for part in parts:
        assert part in err, err


def test_pooled_and_shape_memory_budget_admits_its_largest_count():
    # dim-2 replicas: 16 * (4 + 3 * 4) bytes of matrices (the Hermitian gate's W and three
    # row blocks), five moment rows and 64 bins leave the rest to the spectra
    budget = cli.MEMORY_BUDGET
    replicas = ((budget - 16 * 16 - 5 * cli.ORDER_BYTES - 64 * cli.BIN_BYTES)
                // (2 * cli.EIG_BYTES + cli.REPLICA_BYTES))
    base = dict(subcommand="simulate", r=1, dilation=2, seed=1, kmax=4, bins=64)
    cli._validate(RunConfig(**base, replicas=replicas))
    with pytest.raises(ConfigError, match="pooled eigenvalues"):
        cli._validate(RunConfig(**base, replicas=replicas + 1))
    # at kmax 2e5 a dim-1 run of two replicas needs 0.25 GiB of moment rows; it is admitted
    cli._validate(RunConfig(subcommand="simulate", parts=[1], dilation=1, entries="rademacher",
                            replicas=2, seed=1, kmax=200_000, bins=64))
    boxes = budget // cli.BOX_BYTES  # (1,) dilated d times has d^2 boxes
    side = math.isqrt(boxes)
    cli._validate(RunConfig(subcommand="shape", parts=[1], dilation=side))
    with pytest.raises(ConfigError, match="diagram boxes"):
        cli._validate(RunConfig(subcommand="shape", parts=[1], dilation=side + 1))


@pytest.mark.parametrize("cfg", [
    RunConfig(subcommand="triangular", size=20, replicas=1000, seed=1, kmax=3, bins=64),
    RunConfig(subcommand="simulate", r=1, dilation=1, replicas=4000, seed=1, kmax=4, bins=64),
    RunConfig(subcommand="shape", parts=[5, 4, 4, 1], dilation=100, format="text"),
    RunConfig(subcommand="triangular", size=1, replicas=1000, seed=1, kmax=20, bins=64),
    RunConfig(subcommand="triangular", size=1, replicas=1000, seed=1, kmax=100, bins=64),
    RunConfig(subcommand="simulate", r=2, dilation=100, replicas=20, seed=1, kmax=20, bins=64),
    RunConfig(subcommand="simulate", r=1, dilation=1, replicas=4000, seed=1, kmax=100, bins=64),
    RunConfig(subcommand="simulate", r=1, dilation=1, replicas=4000, seed=1, kmax=20, bins=64),
], ids=["triangular-pooled", "simulate-pooled-dim-1", "shape-boxes", "triangular-kmax-20",
        "triangular-kmax-100", "simulate-kmax-20", "simulate-kmax-100", "simulate-dim-1-kmax-20"])
def test_summed_memory_budget_covers_the_traced_peak(cfg):
    # EIG_BYTES, REPLICA_BYTES, ORDER_BYTES and BOX_BYTES: the summed parts bound
    # the traced peak
    import tracemalloc

    need = sum(cli._memory_needs(cfg, cfg.parts and cli.Partition(cfg.parts)).values())
    render_output(build_record(cfg), cfg)  # caches and imports are not per-unit
    tracemalloc.start()
    try:
        render_output(build_record(cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 * need < peak <= need * 1.05, peak / need


@pytest.mark.parametrize("script, runs", [
    ("make_density_grids", 8), ("run_block_ensembles", 6), ("triangular_demo", 2)])
def test_scripts_command_lines_parse_and_validate(script, runs, tmp_path, monkeypatch, capsys):
    # each script's command lines go through the parser and the rules; no handler runs
    # and nothing is written into the checkout
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{script}.py"
    spec = importlib.util.spec_from_file_location(f"scripts_{script}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seen = []

    def checked(argv):
        args = cli.build_parser().parse_args(argv)
        cli._validate(RunConfig(**{k: v for k, v in vars(args).items() if k in cli._FIELDS}))
        seen.append(argv)
        return 0

    monkeypatch.setattr(module, "main", checked)
    monkeypatch.setattr(module, "OUT", tmp_path / "out")
    if script == "make_density_grids":  # it changes into the checkout to write out/
        monkeypatch.setattr(module.os, "chdir", lambda where: None)
    module.run()
    assert len(seen) == runs and all("--out" in argv for argv in seen)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
