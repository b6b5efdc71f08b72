"""Acceptance battery.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers (run with -s to see them). Criteria carry hard runtime caps.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from youngspec.cli import main as cli_main
from youngspec.combinatorics import (
    count_r_plane_trees,
    dh_moment,
    dh_scaled_gen_catalan,
    gen_catalan,
    limit_moment,
)
from youngspec.limitlaw import (
    beta_product_moment,
    cdf_grid,
    contour_moment,
    density,
    density_grid,
    density_mp,
    density_r2,
    dh_cdf,
    edge_exponent_fit,
    stieltjes,
    support_edge,
)
from youngspec.matrices import EntryDistribution
from youngspec.partitions import staircase
from youngspec.spectra import (
    StepCDF,
    levy_distance,
    shape_ensemble_spectra,
    spectra_moments,
)

from _tables import COLOURED_TREE_COUNTS

SEED = 20260809


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {num:2d}: {desc}{tail}")


def test_criterion_01_exact_table():
    with Timer() as t:
        mismatches = [(r, k) for r, col in COLOURED_TREE_COUNTS.items()
                      for k, want in enumerate(col) if gen_catalan(r, k) != want]
    ok = not mismatches and t.elapsed < 1.0
    report(1, "66-entry coloured-tree table reproduced exactly", ok,
           f"{66 - len(mismatches)}/66 exact in {t.elapsed:.3f}s")
    assert ok, mismatches


def test_criterion_02_tree_oracle_equivalence():
    with Timer() as t:
        bad = [(r, k) for r in range(1, 5) for k in range(7)
               if count_r_plane_trees(r, k + 1) != gen_catalan(r, k)]
    ok = not bad and t.elapsed < 60.0
    report(2, "brute-force tree counts equal the closed form (r<=4, k<=6)", ok,
           f"28/28 counts in {t.elapsed:.1f}s")
    assert ok, bad


def test_criterion_03_moment_cross_validation():
    with Timer() as t:
        worst_contour = 0.0
        worst_grid = 0.0
        beta_exact = True
        for r in range(1, 5):
            grid = density_grid(r)
            for k in range(7):
                exact = limit_moment(r, k)
                beta_exact &= beta_product_moment(r, k) == exact
                fex = float(exact)
                worst_contour = max(worst_contour, abs(contour_moment(r, k) - fex) / fex)
                worst_grid = max(worst_grid, abs(grid.moment(k) - fex) / fex)
    ok = beta_exact and worst_contour < 1e-8 and worst_grid < 1e-4 and t.elapsed < 300.0
    report(3, "moments: beta-product exact, contour <1e-8, density grid <1e-4 (r<=4, k<=6)",
           ok, f"contour {worst_contour:.1e}, grid {worst_grid:.1e}, {t.elapsed:.1f}s")
    assert ok


def test_criterion_04_closed_form_density_agreement():
    with Timer() as t:
        pts1 = np.linspace(0.05 * 4.0, 0.95 * 4.0, 20)
        worst1 = max(abs(density(1, float(x), tol=1e-9) - density_mp(float(x))) for x in pts1)
        edge2 = float(support_edge(2))
        pts2 = np.linspace(0.05 * edge2, 0.95 * edge2, 20)
        worst2 = max(abs(density(2, float(x), tol=1e-8) - density_r2(float(x))) for x in pts2)
    ok = worst1 < 1e-8 and worst2 < 1e-6 and t.elapsed < 120.0
    report(4, "parametric density matches closed forms (r=1 @1e-8, r=2 @1e-6, 20 pts each)",
           ok, f"max diffs {worst1:.1e} / {worst2:.1e}, {t.elapsed:.1f}s")
    assert ok


def test_criterion_05_edge_exponents():
    with Timer() as t:
        rows = []
        for r in (1, 2, 3):
            grid = density_grid(r)
            hard = edge_exponent_fit(grid, "lower")
            soft = edge_exponent_fit(grid, "upper")
            rows.append((r, hard, -r / (r + 1.0), soft))
    all_ok = True
    details = []
    for r, hard, want_hard, soft in rows:
        ok_h = abs(hard - want_hard) <= 0.05
        ok_s = abs(soft - 0.5) <= 0.05
        all_ok &= ok_h and ok_s
        details.append(f"r={r}: hard {hard:+.3f} (want {want_hard:+.3f}{'' if ok_h else ' MISS'}), "
                       f"soft {soft:+.3f}{'' if ok_s else ' MISS'}")
    ok = all_ok and t.elapsed < 300.0
    report(5, "edge-exponent fits within +-0.05 over the fixed windows (r=1,2,3)", ok,
           "; ".join(details) + f", {t.elapsed:.1f}s")
    assert ok, (
        "fitted vs expected edge exponents over the fixed windows (hard [1e-5,1e-2]L, "
        "soft [1e-4,1e-1]L, +-0.05): " + "; ".join(details) + f"; {t.elapsed:.1f}s (cap 300s)"
    )


def _staircase_ensemble(n: int, dist: EntryDistribution, replicas: int) -> np.ndarray:
    """Spectra of the r = 2 staircase dilated n times, scaled by n: one row a replica."""
    return shape_ensemble_spectra(staircase(2).dilate(n), n, dist, replicas, seed=SEED)


def test_criterion_06_block_ensemble_at_desk_scale():
    with Timer() as t:
        pooled = _staircase_ensemble(60, EntryDistribution("complex-gaussian"), 50).ravel()
        want = [1.0, 1.5, 5.0, 21.0, 99.0]
        rels = [abs(float(np.mean(pooled**k)) - want[k]) / want[k] for k in range(5)]
        lev = levy_distance(StepCDF(pooled), cdf_grid(2))
    ok = max(rels) < 0.03 and lev < 0.03 and t.elapsed < 300.0
    report(6, "r=2, N=60, 50 replicas: pooled moments within 3%, Levy < 0.03", ok,
           f"worst moment {max(rels):.4f}, Levy {lev:.4f}, {t.elapsed:.1f}s")
    assert ok


def test_criterion_07_variance_scaling():
    with Timer() as t:
        dist = EntryDistribution("complex-gaussian")
        v15 = spectra_moments(_staircase_ensemble(15, dist, 400), 2).variances[2]
        v30 = spectra_moments(_staircase_ensemble(30, dist, 400), 2).variances[2]
        ratio = v15 / v30
    ok = 2.0 <= ratio <= 8.0 and t.elapsed < 300.0
    report(7, "moment-variance ratio Var(N=15)/Var(N=30) in [2, 8] (r=2, k=2)", ok,
           f"ratio {ratio:.2f}, {t.elapsed:.1f}s")
    assert ok


def test_criterion_08_universality():
    with Timer() as t:
        want = [1.0, 1.5, 5.0, 21.0, 99.0]
        results = {}
        for label, dist in (
            ("rademacher", EntryDistribution("rademacher")),
            ("uniform/C=10", EntryDistribution("centered-uniform", 10.0)),
        ):
            pooled = _staircase_ensemble(60, dist, 50).ravel()
            results[label] = max(abs(float(np.mean(pooled**k)) - want[k]) / want[k]
                                 for k in range(5))
    ok = all(v < 0.05 for v in results.values()) and t.elapsed < 300.0
    report(8, "same ensemble check at 5% for rademacher and truncated-uniform entries", ok,
           ", ".join(f"{k}: {v:.4f}" for k, v in results.items()) + f", {t.elapsed:.1f}s")
    assert ok


def test_criterion_09_triangular_limit():
    with Timer() as t:
        pooled = shape_ensemble_spectra(staircase(200), 200, EntryDistribution("complex-gaussian"),
                                        20, seed=SEED).ravel()
        want = [1.0, 0.5, 2.0 / 3.0, 9.0 / 8.0]
        rels = [abs(float(np.mean(pooled**k)) - want[k]) / want[k] for k in range(4)]
        ecdf = StepCDF(pooled)
        xs = np.unique(np.concatenate([np.linspace(0.2, 2.5, 321),
                                       pooled[(pooled >= 0.2) & (pooled <= 2.5)]]))
        sup = float(np.max(np.abs(ecdf.eval(xs) - dh_cdf(xs))))
    ok = max(rels) < 0.05 and sup < 0.05 and t.elapsed < 300.0
    report(9, "triangular N=200: moments within 5% of (1, 1/2, 2/3, 9/8), sup diff < 0.05", ok,
           f"worst moment {max(rels):.4f}, sup {sup:.4f}, {t.elapsed:.1f}s")
    assert ok


def test_criterion_10_triangular_limit_of_tree_counts():
    with Timer() as t:
        worst = Fraction(0)
        for k in range(6):
            rel = abs(dh_scaled_gen_catalan(10_000, k) / dh_moment(k) - 1)
            worst = max(worst, rel)
    ok = worst <= Fraction(1, 200) and t.elapsed < 1.0
    report(10, "scaled counts at r=10^4 within 0.5% of the triangular moments (k<=5)", ok,
           f"worst rel {float(worst):.2e}, {t.elapsed:.3f}s")
    assert ok


def test_criterion_11_stieltjes_series():
    with Timer() as t:
        v = stieltjes(1, 5.0, tol=1e-14)
        d1 = abs(v - (1.0 - math.sqrt(0.2)) / 2.0)
        worst = 0.0
        for r in range(1, 5):
            z = 1e6 * float(support_edge(r))
            worst = max(worst, abs(z * stieltjes(r, z) - 1.0))
    ok = d1 < 1e-10 and worst < 1e-5
    report(11, "series: closed form at (r=1, z=5) within 1e-10; z*G(z) -> 1 within 1e-5", ok,
           f"diffs {d1:.1e} / {worst:.1e}, {t.elapsed:.3f}s")
    assert ok


def test_criterion_12_determinism(tmp_path, capsys):
    def run(args):
        code = cli_main(args)
        out = capsys.readouterr().out
        assert code == 0
        rec = json.loads(out)
        rec["provenance"].pop("wall_time_s")
        rec["config"].pop("jobs")
        return json.dumps(rec, sort_keys=True)

    with Timer() as t:
        sim = ["simulate", "--r", "2", "--dilation", "12", "--replicas", "6",
               "--seed", "41", "--kmax", "3", "--bins", "12"]
        a = run(sim + ["--jobs", "1"])
        b = run(sim + ["--jobs", "1"])
        c = run(sim + ["--jobs", "3"])
        tri = ["triangular", "--size", "30", "--replicas", "4", "--seed", "17", "--bins", "8"]
        d = run(tri + ["--jobs", "1"])
        e = run(tri + ["--jobs", "2"])
        # replicas of 132 KiB, above matrices.SIDE_BY_SIDE[0]: --jobs 2 runs two workers on a
        # host of two CPUs or more, where the argvs above, of 19 and 29 KiB, take one at any --jobs
        wide = ["triangular", "--size", "64", "--replicas", "4", "--seed", "17", "--bins", "8"]
        h = run(wide + ["--jobs", "1"])
        i = run(wide + ["--jobs", "2"])
        samp = ["sample-law", "--r", "1", "--samples", "2000", "--seed", "23", "--bins", "8"]
        f = run(samp)
        g = run(samp)
    ok = a == b == c and d == e and h == i and f == g
    report(12, "stochastic subcommands byte-identical across reruns and --jobs levels", ok,
           f"{t.elapsed:.1f}s")
    assert ok
