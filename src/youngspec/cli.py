"""Command-line interface: seeded, reproducible runs with JSON/CSV output.

Every stochastic subcommand requires an explicit seed; rerunning any
command with the same configuration reproduces the numerical payload
byte for byte (only the wall-clock provenance field differs), including
under different --jobs settings. One row declares each setting (flag
parsing and rule, _SETTINGS) and one each subcommand (handler, help,
formats, flag defaults, _SUBCOMMANDS); a setting with a default is
required, so a config file's null for one (--entries, --oracle-trees
too) is refused. The rules are checked on the resolved RunConfig,
whatever produced it. simulate, sample-law and triangular summarise a
sample one way: a histogram over one window (_window) and, against a
limit law, Levy and KS distances to its cdf_grid CDF (_distances).

Exit codes: 0 success; 2 validation error (a missing setting, a value of
the wrong type or out of range, a --range its --bins cannot split, an
unreadable config file, an unwritable --out, a bad shape or entry law, a
run whose replica, pooled spectra, draws, bins, grid and diagram sum past
the memory budget); 3 numerical failure from the library, a result
beyond the float range too.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .combinatorics import count_r_plane_trees, dh_moment, gen_catalan, limit_moment
from .errors import (ConfigError, InsufficientPointsError, InvalidRangeError, OutsideDomainError,
                     YoungSpecError)
from .limitlaw import (beta_product_moment, beta_product_samples, cdf_grid, contour_moment,
                       density_grid, density_with_error, dh_cdf, dh_density, edge_exponent_fit,
                       support_edge)
from .matrices import BLOCK, CHUNK, ENTRY_KINDS, EntryDistribution
from .partitions import Partition, balance_ratio, render, staircase
from .spectra import (StepCDF, histogram, histogram_edges, ks_distance, levy_distance,
                      shape_ensemble_spectra, spectra_moments)
from .streams import substream


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    subcommand: str
    parts: list[int] | None = None
    r: int | None = None
    dilation: int | None = None
    entries: str = "complex-gaussian"
    trunc: float | None = None
    replicas: int | None = None
    kmax: int | None = None
    bins: int | None = None
    range: list[float] | None = None
    grid: int | None = None
    tol: float | None = None
    samples: int | None = None
    size: int | None = None
    seed: int | None = None
    jobs: int = 1
    out: str | None = None
    format: str = "json"
    oracle_trees: bool = False
    vertices: int | None = None


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}

# bytes a run may hold in its largest arrays, summed over its parts: one
# replica's X, W and row-block or draw scratch, the pooled spectra with their
# step CDF and its distances' blocks, the moment rows (no table of replica
# moments is held), sample-law's draws likewise and one block of their
# distances' walk, a histogram's or a density grid's arrays with their JSON
# text, and a shape's rendered diagram
MEMORY_BUDGET = 4 << 30
# traced peak bytes a sample (28.2 at 2e5, r = 1 to 3: 24 of draws, sorted
# atoms and counts, the rest one block of 2^14 knots of a distance; 25.0 at
# 1e6), of the distances' walk beside them (WALK_BYTES: up to 1.01e6 above 29
# a sample, 1.6e4 to 3e4 samples, r = 1 to 20), a bin (1e3 to 8e3: 665 to 671
# sample-law, 520 to 530 triangular, 378 to 384 simulate), a law grid point
# (2e4 to 8e4, r = 1, 2, 4), a pooled eigenvalue plus a replica (456 a
# replica at dim 1, 2,000 to 4,000 replicas; 67 to 76 an eigenvalue,
# replica included, triangular at dim 20 to 200, 8 to 16 simulate), a moment
# order (row and JSON: 947 to 989 simulate, kmax 100 to 2e4; 1,112 to 1,335
# triangular, kmax 50 to 300) and a diagram box (shape, 1.4e5 to 1.3e6
# boxes: 14.1 to 14.5), by tracemalloc over build_record and render_output
SAMPLE_BYTES, BIN_BYTES, GRID_BYTES, WALK_BYTES = 29, 680, 740, 1_100_000
EIG_BYTES, REPLICA_BYTES, ORDER_BYTES, BOX_BYTES = 78, 390, 1350, 15
_UNIT_BYTES = {"samples": (SAMPLE_BYTES, "draws"), "bins": (BIN_BYTES, "histogram bins"),
               "grid": (GRID_BYTES, "grid points")}


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v) -> bool:
    return _real(v) and abs(v) <= sys.float_info.max


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


# each setting's flag spec, what its value must be, and the test; the entry
# law has no test here (EntryDistribution checks it), the shape checks its
# own parts further and --range the histogram's edge rule, and an integer
# setting must be an int (a bool is not one)
_SETTINGS = {
    "tol": ({"type": float}, "a positive number", lambda v: _finite(v) and v > 0),
    "trunc": ({"type": float}, "a number", _real),
    "range": ({"type": _floats}, "two finite numbers",
              lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite, v))),
    "parts": ({"type": _ints}, "a list of integers",
              lambda v: isinstance(v, list) and all(type(x) is int for x in v)),
    "out": ({}, "a file name", lambda v: isinstance(v, str)),
    "oracle_trees": ({"action": "store_true"}, "true or false", lambda v: isinstance(v, bool)),
    "entries": ({"choices": ENTRY_KINDS}, None, None),
    **{name: ({"type": int}, f"an integer >= {least}", lambda v, least=least: type(v) is int and v >= least)
       for name, least in {"r": 1, "dilation": 1, "replicas": 1, "samples": 1, "size": 1, "vertices": 1,
                           "bins": 1, "jobs": 1, "grid": 16, "kmax": 0, "seed": 0}.items()},
}


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` maps a subcommand to values replacing its flag defaults."""
    parser = argparse.ArgumentParser(
        prog="youngspec", description="Diagram-shaped random matrix simulation and limit-law evaluation")
    parser.add_argument("--config", help="JSON file with flag defaults (same keys as the config echo)")
    sub = parser.add_subparsers(dest="subcommand")
    for sc, (_, help_line, formats, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(sc, help=help_line)
        for name, default in {**flags, "out": None}.items():
            p.add_argument(_flag(name), **_SETTINGS[name][0],
                           default=None if default is NEEDED else default)
        if len(formats) > 1:
            p.add_argument("--format", choices=formats)
        # a config file's format meets the format rule, also where there is no --format
        p.set_defaults(**{"format": formats[0], **(defaults or {}).get(sc, {})})
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _validate(cfg: RunConfig) -> None:
    sc = cfg.subcommand
    if sc not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {sc!r}" if sc else "no subcommand given")
    for name, (_, what, ok) in _SETTINGS.items():
        value = getattr(cfg, name)
        if ok and value is not None and not ok(value):
            raise ConfigError(f"{_flag(name)} must be {what}, got {value!r}")
    for name in _REQUIRED[sc]:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{sc} requires {_flag(name)}")
    if cfg.format not in _FORMATS[sc]:
        raise ConfigError(f"{sc} --format must be one of {_FORMATS[sc]}, got {cfg.format!r}")
    if sc == "simulate" and (cfg.r is None) == (cfg.parts is None):
        raise ConfigError("simulate requires exactly one of --r / --parts")
    try:
        lam = None if cfg.parts is None else Partition(cfg.parts)
        if sc in ("simulate", "triangular"):
            EntryDistribution(cfg.entries, cfg.trunc)
        if cfg.seed is not None:
            substream(cfg.seed)
    except (ValueError, OverflowError) as exc:  # a cutoff beyond the float range overflows
        raise ConfigError(str(exc)) from exc
    if sc == "simulate" and lam is not None and lam.weight() == 0:
        raise ConfigError("simulate requires --parts with a positive part")
    needs = _memory_needs(cfg, lam)
    total = sum(needs.values())
    if total > MEMORY_BUDGET:
        parts = ", ".join(f"{what} {_gib(need)}" for what, need in needs.items())
        raise ConfigError(f"{sc} needs {_gib(total, up=True)}, over the {_gib(MEMORY_BUDGET)} budget "
                          f"({parts})")
    if cfg.range is not None and cfg.bins is not None:  # after the budget, which bounds the bins
        try:
            histogram_edges(cfg.bins, cfg.range)
        except InvalidRangeError:
            raise ConfigError(f"--range must be split by --bins {cfg.bins} into bins of positive "
                              f"width, got {cfg.range!r}") from None


def _gib(n: int, up: bool = False) -> str:
    g = n / 2**30 if n.bit_length() < 1000 else math.inf  # else / overflows
    if up and g < math.inf:  # 3 digits rounded up: no total over the budget reads as it
        scale = 10.0 ** (2 - math.floor(math.log10(g)))
        g = math.ceil(g * scale) / scale
    return f"{g:.3g} GiB"


def _memory_needs(cfg: RunConfig, lam: Partition | None) -> dict[str, int]:
    """Traced bytes of each part of a run whose sum the budget bounds, from the undilated shape."""
    needs = {}
    if cfg.subcommand in ("simulate", "triangular"):
        rows, cols = ((cfg.size, cfg.size) if cfg.subcommand == "triangular"
                      else (cfg.r * cfg.dilation,) * 2 if lam is None  # staircase(r) is r by r
                      else (lam.length() * cfg.dilation, lam.parts[0] * cfg.dilation))
        # a replica peaks drawing X (a chunk's |X| and mask), in the product (X, W and the
        # conjugate of BLOCK rows of X) or in the Hermitian gate (W and three BLOCK-row blocks)
        item, block = EntryDistribution(cfg.entries).itemsize, min(BLOCK, rows)
        x, w = item * rows * cols, item * rows * rows
        needs["one replica's matrices"] = max(x + 9 * min(rows * cols, CHUNK), x + w + item * block * cols,
                                              w + 3 * item * block * rows)
        needs["pooled eigenvalues"] = cfg.replicas * (EIG_BYTES * rows + REPLICA_BYTES)
        needs["moment rows"] = (cfg.kmax + 1) * ORDER_BYTES
    if cfg.subcommand == "sample-law":
        needs["distances' block"] = WALK_BYTES
    if cfg.subcommand == "shape":
        needs["diagram boxes"] = BOX_BYTES * lam.weight() * (cfg.dilation or 1) ** 2
    for name, (unit, what) in _UNIT_BYTES.items():
        if name in _FLAGS[cfg.subcommand]:
            needs[what] = unit * getattr(cfg, name)
    return needs


def _window(values: np.ndarray, cfg: RunConfig, edge: float | None,
            mean: Fraction | None = None) -> tuple[dict, np.ndarray]:
    """The histogram record of ``values`` and its bin midpoints, over --range or else from 0 to
    5 % past ``edge``: the limit law's, or with none the largest value, or ``mean`` (the law's
    mean eigenvalue) where the largest is not positive."""
    if cfg.range is None and edge is None:
        edge = top if (top := float(values.max())) > 0 else float(mean)
    hist = histogram(values, cfg.bins, tuple(cfg.range or (0.0, 1.05 * edge)))
    return ({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(hist).items()},
            0.5 * hist.edges[:-1] + 0.5 * hist.edges[1:])  # no sum of two ends overflows


def _ensemble(cfg: RunConfig, shape: Partition, scale: int, edge: float | None,
              mean: Fraction | None = None) -> tuple:
    """--replicas spectra of W = X X*/scale on ``shape``: pooled, their moments, their window."""
    dist = EntryDistribution(cfg.entries, cfg.trunc)
    spectra = shape_ensemble_spectra(shape, scale, dist, cfg.replicas, cfg.seed, jobs=cfg.jobs)
    pooled = spectra.ravel()
    return pooled, spectra_moments(spectra, cfg.kmax), *_window(pooled, cfg, edge, mean)


def _distances(values: np.ndarray, limit) -> dict:
    """Lévy and KS distances from the step CDF of ``values`` to the ``limit`` CDF."""
    ecdf = StepCDF(values)
    return {"levy_to_limit": float(levy_distance(ecdf, limit)),
            "ks_to_limit": float(ks_distance(ecdf, limit))}


def _frac(x: Fraction) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # Python prints no integer of more than sys.get_int_max_str_digits() digits
        raise OutsideDomainError("an exact result has too many digits to print") from None


def _moment_float(value: Fraction, k: int, law: str) -> float:
    """An exact moment as a float; OutsideDomainError names k and the law where it overflows."""
    try:
        return float(value)
    except OverflowError:
        raise OutsideDomainError(f"moment k = {k} of the {law} exceeds the float range") from None


# -- subcommand handlers -------------------------------------------------


def _run_shape(cfg: RunConfig) -> dict:
    lam = Partition(cfg.parts)
    shown = lam.dilate(cfg.dilation) if cfg.dilation else lam
    out = {
        "parts": list(lam.parts),
        "length": lam.length(),
        "weight": lam.weight(),
        "conjugate": list(lam.conjugate().parts),
        "diagram": render(shown),
    }
    if lam:
        out["balance_ratio"] = _frac(balance_ratio(lam, cfg.dilation or 1))
        out["balance_ratio_float"] = float(balance_ratio(lam, cfg.dilation or 1))
    if cfg.dilation:
        out["dilation"] = cfg.dilation
        out["dilated_parts"] = list(shown.parts)
        out["dilated_weight"] = shown.weight()
    return out


def _run_moments(cfg: RunConfig) -> dict:
    rows = []
    for k in range(cfg.kmax + 1):
        mk = limit_moment(cfg.r, k)
        row = {
            "k": k,
            "gen_catalan": gen_catalan(cfg.r, k),
            "moment": _frac(mk),
            "moment_float": _moment_float(mk, k, f"r = {cfg.r} law"),
        }
        if cfg.oracle_trees and k <= 6:  # the tree oracle is brute force: small orders only
            row["tree_count"] = count_r_plane_trees(cfg.r, k + 1)
        rows.append(row)
    return {"r": cfg.r, "kmax": cfg.kmax, "table": rows}


def _run_trees(cfg: RunConfig) -> dict:
    return {"r": cfg.r, "vertices": cfg.vertices, "count": count_r_plane_trees(cfg.r, cfg.vertices)}


def _run_simulate(cfg: RunConfig) -> dict:
    if cfg.r is not None:
        base, edge = staircase(cfg.r), float(support_edge(cfg.r))
        # before the ensemble, so a moment beyond the float range costs no spectra
        limit_moments = [_moment_float(limit_moment(cfg.r, k), k, f"r = {cfg.r} law")
                         for k in range(cfg.kmax + 1)]
    else:
        base, edge = Partition(cfg.parts), None
    shape = base.dilate(cfg.dilation)
    pooled, em, hist, _ = _ensemble(cfg, shape, cfg.dilation, edge, balance_ratio(base, cfg.dilation))
    results = {
        "shape": list(base.parts),
        "dilation": cfg.dilation,
        "matrix_dim": shape.length(),
        "moments": [{"k": k, "mean": float(em.means[k]), "variance": float(em.variances[k])}
                    for k in range(cfg.kmax + 1)],
        "histogram": hist,
        "pooled_count": int(pooled.size),
        "levy_to_limit": None,
        "ks_to_limit": None,
    }
    if cfg.r is not None:
        results.update(_distances(pooled, cdf_grid(cfg.r)), r=cfg.r, limit_moments=limit_moments)
    return results


def _run_law(cfg: RunConfig) -> dict:
    r = cfg.r
    edge = support_edge(r)
    edge_exact = _frac(edge)  # an edge too long to print fails before the grid is solved
    grid = density_grid(r, n=cfg.grid, tol=cfg.tol)
    gcdf = grid.cdf()
    checks = []
    for k in range(cfg.kmax + 1):
        exact = limit_moment(r, k)
        fex = _moment_float(exact, k, f"r = {r} law")
        bp = beta_product_moment(r, k)
        cm = contour_moment(r, k)
        gm = grid.moment(k)
        checks.append({
            "k": k,
            "exact": _frac(exact),
            "beta_product": _frac(bp),
            "beta_product_matches": bp == exact,
            "contour": cm.value,
            "contour_rel_err": abs(cm.value - fex) / fex,
            "grid": gm,
            "grid_rel_err": abs(gm - fex) / fex,
        })
    return {
        "r": r,
        "edge": {"exact": edge_exact, "float": float(edge)},
        "grid": {"x": grid.x.tolist(), "density": grid.f.tolist(), "abs_err": grid.err.tolist()},
        "cdf": {"x": gcdf.xs.tolist(), "F": gcdf.fs.tolist()},
        "normalization": grid.integral(),
        "edge_fits": _edge_fits(grid, r),
        "moment_checks": checks,
    }


def _edge_fits(grid, r: int) -> dict:
    """Edge-exponent fits; a fit whose window holds too few grid points is null with a reason."""
    fits = {"hard_expected": -r / (r + 1.0), "soft_expected": 0.5}
    for key, edge in (("hard", "lower"), ("soft", "upper")):
        try:
            fits[key] = edge_exponent_fit(grid, edge)
        except InsufficientPointsError as exc:
            fits[key] = None
            fits[key + "_reason"] = str(exc)
    return fits


def _run_sample_law(cfg: RunConfig) -> dict:
    r = cfg.r
    draws = beta_product_samples(r, cfg.samples, substream(cfg.seed, 0))
    edge = float(support_edge(r))
    hist, mids = _window(draws, cfg, edge)
    dens, dens_err = np.zeros_like(mids), np.zeros_like(mids)
    inside = (mids > 0) & (mids < edge)
    dens[inside], dens_err[inside] = density_with_error(r, mids[inside])
    return {
        "r": r,
        "samples": cfg.samples,
        "histogram": hist,
        "density_at_midpoints": dens.tolist(),
        "density_abs_err_at_midpoints": dens_err.tolist(),
        **_distances(draws, cdf_grid(r, grid_size=512)),
    }


def _run_triangular(cfg: RunConfig) -> dict:
    # before the ensemble, so a moment beyond the float range costs no spectra
    limits = [_moment_float(dh_moment(k), k, "triangular law") for k in range(cfg.kmax + 1)]
    pooled, em, hist, mids = _ensemble(cfg, staircase(cfg.size), cfg.size, math.e)
    moments = [{"k": k, "mean": mk, "limit": ref, "rel_err": abs(mk - ref) / ref}
               for k, (mk, ref) in enumerate(zip(em.means.tolist(), limits))]
    # sup |S - F| over the window of acceptance criterion 9: F is continuous, so it
    # is reached at lo, at hi or on either side of the jump at an atom in (lo, hi]
    lo, hi = 0.2, 2.5
    ecdf = StepCDF(pooled)
    atoms, at, below = ecdf.knots(*np.searchsorted(ecdf.atoms, (lo, hi), side="right"))
    fs = dh_cdf(atoms)
    sup = float(max(np.max(np.abs(ecdf.eval([lo, hi]) - dh_cdf([lo, hi]))),
                    np.max(np.abs(at - fs), initial=0.0), np.max(np.abs(below - fs), initial=0.0)))
    return {
        "size": cfg.size,
        "replicas": cfg.replicas,
        "moments": moments,
        "histogram": hist,
        "dh_density_at_midpoints": dh_density(mids).tolist(),
        "window": [lo, hi],
        "sup_discrepancy": sup,
    }


# each subcommand: its handler, help line, output formats (the default
# first) and settings with their flag defaults; a setting with a default,
# or marked NEEDED (it has none but must be given), is required
NEEDED = object()
_SUBCOMMANDS = {
    "shape": (_run_shape, "render a diagram and its basic statistics", ("text", "json"),
              {"parts": NEEDED, "dilation": None}),
    "moments": (_run_moments, "exact moment table of the order-r limit law", ("json",),
                {"r": NEEDED, "kmax": NEEDED, "oracle_trees": False}),
    "trees": (_run_trees, "count coloured plane trees by brute force", ("json",),
              {"r": NEEDED, "vertices": NEEDED}),
    "simulate": (_run_simulate, "ensemble run of a block- or diagram-shaped model", ("json", "csv"),
                 {"r": None, "parts": None, "dilation": NEEDED, "entries": "complex-gaussian",
                  "trunc": None, "replicas": NEEDED, "seed": NEEDED, "kmax": 4, "bins": 64,
                  "range": None, "jobs": 1}),
    "law": (_run_law, "density/CDF grids and moment cross-checks of the limit law", ("json", "csv"),
            {"r": NEEDED, "grid": 768, "tol": 1e-5, "kmax": 6}),
    "sample-law": (_run_sample_law, "Monte Carlo draws of the limit law vs its density",
                   ("json", "csv"), {"r": NEEDED, "samples": NEEDED, "seed": NEEDED, "bins": 64}),
    "triangular": (_run_triangular, "staircase-shaped simulation against the triangular limit law",
                   ("json", "csv"), {"size": NEEDED, "replicas": NEEDED, "entries": "complex-gaussian",
                                     "seed": NEEDED, "kmax": 3, "bins": 64, "jobs": 1}),
}
_HANDLERS, _, _FORMATS, _FLAGS = (dict(zip(_SUBCOMMANDS, col)) for col in zip(*_SUBCOMMANDS.values()))
_REQUIRED = {sc: [name for name, d in flags.items() if d is not None] for sc, flags in _FLAGS.items()}
STOCHASTIC = {sc for sc, needed in _REQUIRED.items() if "seed" in needed}


# -- record assembly and output ------------------------------------------


def _provenance(cfg: RunConfig, wall: float) -> dict:
    # replica i draws from substream (seed, i); sample-law draws once
    n_sub = (cfg.replicas or 1) if cfg.subcommand in STOCHASTIC else 0
    return {
        "seed": cfg.seed,
        "substreams": [[cfg.seed, i] for i in range(n_sub)],
        "wall_time_s": wall,
        "version": __version__,
    }


def build_record(cfg: RunConfig) -> dict:
    _validate(cfg)
    start = time.perf_counter()
    results = _HANDLERS[cfg.subcommand](cfg)
    wall = time.perf_counter() - start
    return {
        "config": dataclasses.asdict(cfg),
        "results": results,
        "provenance": _provenance(cfg, wall),
    }


def _csv(header: list[str], *columns: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([repr(v) for v in row] for row in zip(*columns))
    return buf.getvalue()


def render_output(record: dict, cfg: RunConfig) -> str:
    """The record as JSON, CSV or text; a value beyond the float range raises OutsideDomainError."""
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise OutsideDomainError(f"a {cfg.subcommand} result exceeds the float range") from exc
    res = record["results"]
    if cfg.format == "csv" and cfg.subcommand == "law":
        return _csv(["x", "density", "abs_err"], res["grid"]["x"], res["grid"]["density"],
                    res["grid"]["abs_err"])
    if cfg.format == "csv":
        hist = res["histogram"]
        return _csv(["bin_left", "bin_right", "count", "density"],
                    hist["edges"][:-1], hist["edges"][1:], hist["counts"], hist["density"])
    if cfg.format == "text":
        lines = [res["diagram"], "",
                 f"parts:         {tuple(res['parts'])}",
                 f"length:        {res['length']}",
                 f"weight:        {res['weight']}",
                 f"conjugate:     {tuple(res['conjugate'])}"]
        if "balance_ratio" in res:
            lines.append(f"balance ratio: {res['balance_ratio']} = {res['balance_ratio_float']:.6g}")
        if "dilated_parts" in res:
            lines.append(f"dilated parts: {tuple(res['dilated_parts'])} (weight {res['dilated_weight']})")
        return "\n".join(lines) + "\n"
    return text


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with a --config file's values as the chosen subcommand's defaults.

    So every typed flag, abbreviated or not, wins; keys the subcommand lacks are ignored.
    """
    args = build_parser().parse_args(argv)
    if not (args.config and args.subcommand):
        return args
    try:
        with open(args.config) as fp:
            stored = json.load(fp)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(stored, dict):
        raise ConfigError("config file must hold a JSON object")
    if stored.get("subcommand", args.subcommand) != args.subcommand:
        raise ConfigError(f"config file is for {stored['subcommand']!r}, not {args.subcommand!r}")
    unknown = [key for key in stored if key not in _FIELDS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    own = {k: v for k, v in stored.items() if k != "subcommand" and hasattr(args, k)}
    return build_parser({args.subcommand: own}).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if not args.subcommand:
            build_parser().print_help()
            return 2
        cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in _FIELDS})
        text = render_output(build_record(cfg), cfg)
        if cfg.out:
            try:
                with open(cfg.out, "w") as fp:
                    fp.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write --out: {exc}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except YoungSpecError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not cfg.out or (cfg.subcommand == "shape" and cfg.format == "text"):
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
