"""The four benchmark workloads: their CLI jobs, output checks and accuracy.

Each ``check`` returns the list of problems found in one job's
``results`` (empty when correct). Each ``accuracy`` compares the first
job's results, and what the traced rerun of that job captured, with the
independent oracles; known defects show up there as values, not as
failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

# Lévy <= KS holds exactly; the program's Lévy is a bisection with tolerance 1e-9.
LEVY_SLACK = 1e-9
# Oracle points span [1e-4 L, 0.99 L]: past 0.99 L mpmath's Meijer G gets slow.
ORACLE_SPAN = (1e-4, 0.99)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    seeded: bool
    check: Callable[[dict], list[str]]
    accuracy: Callable[[dict, dict], dict]

    def argv(self, seed: int | None) -> list[str]:
        return list(self.args) + (["--seed", str(seed)] if self.seeded else [])


def _hist_total(res: dict) -> int:
    h = res["histogram"]
    return int(sum(h["counts"])) + h["below"] + h["above"]


def _grid_accuracy(r: int, x, f, err) -> dict:
    """density_err and err_bar_ratio of density values at every grid point in ORACLE_SPAN."""
    x, f, err = (np.asarray(v, dtype=float) for v in (x, f, err))
    edge = (r + 1) ** (r + 1) / r**r
    sel = (x >= ORACLE_SPAN[0] * edge) & (x <= ORACLE_SPAN[1] * edge)
    ref = np.array([oracles.limit_density(r, float(v)) for v in x[sel]])
    gap = np.abs(f[sel] - ref)
    return {"density_err": float(np.max(gap / ref)), "err_bar_ratio": float(np.max(gap / err[sel]))}


def _limit_cdf_accuracy(res: dict, captured: dict) -> dict:
    """Accuracy of the order-r limit CDF a sample is compared with, and of the Lévy distance."""
    [grid] = captured["limitlaw.density_grid"]
    [levy] = captured["spectra.levy_distance"]
    out = _grid_accuracy(grid["r"], grid["x"], grid["f"], grid["err"])
    out["moment_err"] = abs(float(levy["fs"][-1]) - 1.0)
    exact = oracles.levy_exact(oracles.step_graph(levy["atoms"], levy["counts"]),
                               oracles.linear_graph(levy["xs"], levy["fs"]))
    out["levy_err"] = abs(levy["value"] - exact)
    return out


# -- ensemble-r2 ---------------------------------------------------------

# Pooled spectral moments of dimension-1000 matrices differ from the limit
# by an O(1/N) finite-size bias plus O(1/N) fluctuations of linear spectral
# statistics; the relative error stayed below 5.5e-3 up to k = 4 over six
# seeds, so 3e-2 leaves a wide margin.
ENSEMBLE_MOMENT_TOL = 3e-2


def _check_ensemble(res: dict) -> list[str]:
    bad = []
    if res["pooled_count"] != 4000:
        bad.append(f"pooled_count {res['pooled_count']} != 4000")
    if _hist_total(res) != res["pooled_count"]:
        bad.append("histogram counts + below + above != pooled_count")
    if not res["levy_to_limit"] <= res["ks_to_limit"] + LEVY_SLACK:
        bad.append("levy_to_limit > ks_to_limit")
    for mom, lim in zip(res["moments"], res["limit_moments"]):
        if abs(mom["mean"] - lim) > ENSEMBLE_MOMENT_TOL * lim:
            bad.append(f"moment k={mom['k']} {mom['mean']} vs limit {lim}")
    return bad


# -- law-r4 --------------------------------------------------------------


def _check_law(res: dict) -> list[str]:
    """The bounds of acceptance criterion 3 on the law's own cross-checks."""
    bad = []
    for row in res["moment_checks"]:
        if not row["beta_product_matches"]:
            bad.append(f"beta product moment k={row['k']} differs from the exact one")
        if not row["contour_rel_err"] < 1e-8:
            bad.append(f"contour moment k={row['k']} rel err {row['contour_rel_err']}")
        if not row["grid_rel_err"] < 1e-4:
            bad.append(f"grid moment k={row['k']} rel err {row['grid_rel_err']}")
    if not abs(res["normalization"] - 1.0) < 1e-4:
        bad.append(f"normalization {res['normalization']}")
    return bad


def _law_accuracy(res: dict, captured: dict) -> dict:
    out = _grid_accuracy(res["r"], res["grid"]["x"], res["grid"]["density"], res["grid"]["abs_err"])
    out["moment_err"] = float(max(abs(Fraction(row["grid"]) / Fraction(row["exact"]) - 1)
                                  for row in res["moment_checks"]))
    out["levy_err"] = 0.0
    return out


# -- sample-law-r2 -------------------------------------------------------

# Dvoretzky-Kiefer-Wolfowitz: P(KS > eps) <= 2 exp(-2 n eps^2); at
# probability 1e-9 eps = sqrt(ln(2e9) / (2n)). The limit CDF itself is
# accurate to far better than the 1e-4 added for it.
DKW_ALPHA = 1e-9
LIMIT_CDF_SLACK = 1e-4


def _check_sample_law(res: dict) -> list[str]:
    bad = []
    if res["histogram"]["total"] != res["samples"] or _hist_total(res) != res["samples"]:
        bad.append("histogram total != samples")
    if not res["levy_to_limit"] <= res["ks_to_limit"] + LEVY_SLACK:
        bad.append("levy_to_limit > ks_to_limit")
    bound = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * res["samples"])) + LIMIT_CDF_SLACK
    if not res["ks_to_limit"] <= bound:
        bad.append(f"ks_to_limit {res['ks_to_limit']} above the DKW bound {bound}")
    return bad


# -- triangular ----------------------------------------------------------

# Staircase matrices of size 200 carry a finite-size bias growing with k
# (relative error 1.5e-2 to 2.7e-2 at k = 3 over six seeds, same sign
# every time); 8e-2 is three times the largest. The pooled 16000
# eigenvalues put the sup distance to the limit CDF near 2e-3 (bias plus
# sampling noise of order 1/sqrt(16000)); 1e-2 is four times the largest.
TRIANGULAR_MOMENT_TOL = 8e-2
TRIANGULAR_SUP_TOL = 1e-2


def _check_triangular(res: dict) -> list[str]:
    bad = []
    for mom in res["moments"]:
        if not mom["rel_err"] <= TRIANGULAR_MOMENT_TOL:
            bad.append(f"moment k={mom['k']} rel err {mom['rel_err']}")
    if not res["sup_discrepancy"] <= TRIANGULAR_SUP_TOL:
        bad.append(f"sup_discrepancy {res['sup_discrepancy']}")
    if _hist_total(res) != res["size"] * res["replicas"]:
        bad.append("histogram counts + below + above != size * replicas")
    return bad


def _triangular_accuracy(res: dict, captured: dict) -> dict:
    edges = np.asarray(res["histogram"]["edges"])
    mids = 0.5 * (edges[:-1] + edges[1:])
    got = np.asarray(res["dh_density_at_midpoints"])
    inside = mids < math.e
    ref = np.array([oracles.triangular_density(float(x)) for x in mids[inside]])
    return {"density_err": float(np.max(np.abs(got[inside] - ref) / ref)),
            "err_bar_ratio": 0.0, "moment_err": 0.0, "levy_err": 0.0}


# why each workload is here, and what it should and should not move: BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("ensemble-r2",
             ("simulate", "--r", "2", "--dilation", "500", "--replicas", "4",
              "--entries", "complex-gaussian", "--kmax", "4", "--bins", "96"),
             True, _check_ensemble, _limit_cdf_accuracy),
    Workload("law-r4",
             ("law", "--r", "4", "--grid", "768", "--tol", "1e-5", "--kmax", "6"),
             False, _check_law, _law_accuracy),
    Workload("sample-law-r2",
             ("sample-law", "--r", "2", "--samples", "200000", "--bins", "96"),
             True, _check_sample_law, _limit_cdf_accuracy),
    Workload("triangular",
             ("triangular", "--size", "200", "--replicas", "80", "--entries", "real-gaussian",
              "--kmax", "3", "--bins", "96"),
             True, _check_triangular, _triangular_accuracy),
)}
