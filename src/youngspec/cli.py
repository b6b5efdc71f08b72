"""Command-line interface: seeded, reproducible runs with JSON/CSV output.

Every stochastic subcommand requires an explicit seed; rerunning any
command with the same configuration reproduces the numerical payload
byte for byte (only the wall-clock provenance field differs), including
under different --jobs settings. Each setting's rule is checked once, on
the resolved RunConfig, whatever produced it.

Exit codes: 0 success; 2 validation error (a missing setting, a value of
the wrong type or out of range, an unreadable config file, an unwritable
--out, a bad shape or entry law); 3 numerical failure propagated from the
library, a result beyond the float range included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .combinatorics import (
    count_r_plane_trees,
    dh_moment,
    gen_catalan,
    limit_moment,
)
from .errors import ConfigError, InsufficientPointsError, OutsideDomainError, YoungSpecError
from .limitlaw import (
    beta_product_moment,
    beta_product_samples,
    cdf_grid,
    contour_moment,
    density_grid,
    density_with_error,
    dh_density,
    dh_cdf,
    edge_exponent_fit,
    support_edge,
)
from .matrices import ENTRY_KINDS, EntryDistribution
from .partitions import Partition, balance_ratio, render, staircase
from .spectra import (
    Histogram,
    StepCDF,
    ensemble_spectra,
    histogram,
    ks_distance,
    levy_distance,
    shape_ensemble_spectra,
    spectra_moments,
)
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

# the settings each subcommand cannot run without
_REQUIRED = {
    "shape": ("parts",), "moments": ("r", "kmax"), "trees": ("r", "vertices"),
    "simulate": ("dilation", "replicas", "seed", "kmax", "bins", "jobs"),
    "law": ("r", "grid", "tol", "kmax"), "sample-law": ("r", "samples", "seed", "bins"),
    "triangular": ("size", "replicas", "seed", "kmax", "bins", "jobs"),
}
STOCHASTIC = {sc for sc, needed in _REQUIRED.items() if "seed" in needed}

# output formats of each subcommand, the default first
_FORMATS = {"shape": ("text", "json"), "moments": ("json",), "trees": ("json",),
            **dict.fromkeys(("simulate", "law", "sample-law", "triangular"), ("json", "csv"))}

# the least value of each integer setting; its value must be an int (a bool is not one)
_LEAST = {"r": 1, "dilation": 1, "replicas": 1, "samples": 1, "size": 1, "vertices": 1,
          "bins": 1, "jobs": 1, "grid": 16, "kmax": 0, "seed": 0}


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v) -> bool:
    return _real(v) and abs(v) <= sys.float_info.max


# each setting's rule: what it must be, and the test; the shape and the
# entry law check their own values
_RULES = {
    "tol": ("a positive number", lambda v: _finite(v) and v > 0),
    "trunc": ("a number", _real),
    "range": ("two finite numbers lo < hi", lambda v: isinstance(v, (list, tuple)) and len(v) == 2
              and all(map(_finite, v)) and v[0] < v[1]),
    "parts": ("a list of integers",
              lambda v: isinstance(v, list) and all(type(x) is int for x in v)),
    "out": ("a file name", lambda v: isinstance(v, str)),
    "oracle_trees": ("true or false", lambda v: isinstance(v, bool)),
    **{name: (f"an integer >= {least}", lambda v, least=least: type(v) is int and v >= least)
       for name, least in _LEAST.items()},
}


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` maps a subcommand to values replacing its flag defaults."""
    parser = argparse.ArgumentParser(
        prog="youngspec",
        description="Diagram-shaped random matrix simulation and limit-law evaluation",
    )
    parser.add_argument("--config", help="JSON file with flag defaults (same keys as the config echo)")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("shape", help="render a diagram and its basic statistics")
    p.add_argument("--parts", type=_ints)
    p.add_argument("--dilation", type=int)

    p = sub.add_parser("moments", help="exact moment table of the order-r limit law")
    p.add_argument("--r", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--oracle-trees", action="store_true", dest="oracle_trees")

    p = sub.add_parser("trees", help="count coloured plane trees by brute force")
    p.add_argument("--r", type=int)
    p.add_argument("--vertices", type=int)

    p = sub.add_parser("simulate", help="ensemble run of a block- or diagram-shaped model")
    p.add_argument("--r", type=int)
    p.add_argument("--parts", type=_ints)
    p.add_argument("--dilation", type=int)
    p.add_argument("--entries", choices=ENTRY_KINDS, default="complex-gaussian")
    p.add_argument("--trunc", type=float)
    p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--range", type=_floats)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("law", help="density/CDF grids and moment cross-checks of the limit law")
    p.add_argument("--r", type=int)
    p.add_argument("--grid", type=int, default=768)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--kmax", type=int, default=6)

    p = sub.add_parser("sample-law", help="Monte Carlo draws of the limit law vs its density")
    p.add_argument("--r", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bins", type=int, default=64)

    p = sub.add_parser("triangular", help="staircase-shaped simulation against the triangular limit law")
    p.add_argument("--size", type=int)
    p.add_argument("--replicas", type=int)
    p.add_argument("--entries", choices=ENTRY_KINDS, default="complex-gaussian")
    p.add_argument("--seed", type=int)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--jobs", type=int, default=1)

    for name, p in sub.choices.items():
        p.add_argument("--out")
        if len(_FORMATS[name]) > 1:
            p.add_argument("--format", choices=_FORMATS[name])
        # a config file's format meets the format rule, also where there is no --format
        p.set_defaults(**{"format": _FORMATS[name][0], **(defaults or {}).get(name, {})})
    return parser


def _validate(cfg: RunConfig) -> None:
    sc = cfg.subcommand
    if sc not in _REQUIRED:
        raise ConfigError(f"unknown subcommand {sc!r}" if sc else "no subcommand given")
    for name, (what, ok) in _RULES.items():
        value = getattr(cfg, name)
        if value is not None and not ok(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be {what}, got {value!r}")
    for name in _REQUIRED[sc]:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{sc} requires --{name}")
    if cfg.format not in _FORMATS[sc]:
        raise ConfigError(f"{sc} --format must be one of {_FORMATS[sc]}, got {cfg.format!r}")
    if sc == "simulate" and (cfg.r is None) == (cfg.parts is None):
        raise ConfigError("simulate requires exactly one of --r / --parts")
    try:
        lam = None if cfg.parts is None else Partition(cfg.parts)
        if sc in ("simulate", "triangular"):
            EntryDistribution(cfg.entries, cfg.trunc)
    except (ValueError, OverflowError) as exc:  # a cutoff beyond the float range overflows
        raise ConfigError(str(exc)) from exc
    if sc == "simulate" and lam is not None and lam.weight() == 0:
        raise ConfigError("simulate requires --parts with a positive part")


def _hist_payload(h: Histogram) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(h).items()}


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
    return {
        "r": cfg.r,
        "vertices": cfg.vertices,
        "count": count_r_plane_trees(cfg.r, cfg.vertices),
    }


def _run_simulate(cfg: RunConfig) -> dict:
    dist = EntryDistribution(cfg.entries, cfg.trunc)
    if cfg.r is not None:
        base = staircase(cfg.r)
        edge = float(support_edge(cfg.r))
    else:
        base = Partition(cfg.parts)
        edge = None
    spectra = ensemble_spectra(base, cfg.dilation, dist, cfg.replicas, cfg.seed, jobs=cfg.jobs)
    pooled = np.concatenate(spectra)

    em = spectra_moments(spectra, cfg.kmax)
    moments = [{"k": k, "mean": float(em.means[k]), "variance": float(em.variances[k])}
               for k in range(cfg.kmax + 1)]

    rng = cfg.range if cfg.range is not None else [0.0, 1.05 * edge if edge else float(pooled.max()) * 1.05]
    hist = histogram(pooled, cfg.bins, tuple(rng))

    results = {
        "shape": list(base.parts),
        "dilation": cfg.dilation,
        "matrix_dim": int(base.dilate(cfg.dilation).length()),
        "moments": moments,
        "histogram": _hist_payload(hist),
        "pooled_count": int(pooled.size),
        "levy_to_limit": None,
        "ks_to_limit": None,
    }
    if cfg.r is not None:
        limit = cdf_grid(cfg.r)
        ecdf = StepCDF(pooled)
        results["levy_to_limit"] = float(levy_distance(ecdf, limit))
        results["ks_to_limit"] = float(ks_distance(ecdf, limit))
        results["r"] = cfg.r
        results["limit_moments"] = [_moment_float(limit_moment(cfg.r, k), k, f"r = {cfg.r} law")
                                    for k in range(cfg.kmax + 1)]
    return results


def _run_law(cfg: RunConfig) -> dict:
    r = cfg.r
    grid = density_grid(r, n=cfg.grid, tol=cfg.tol)
    gcdf = grid.cdf()
    edge = support_edge(r)
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
        "edge": {"exact": _frac(edge), "float": float(edge)},
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
    rng = substream(cfg.seed, 0)
    draws = beta_product_samples(r, cfg.samples, rng)
    edge = float(support_edge(r))
    hist = histogram(draws, cfg.bins, (0.0, 1.05 * edge))
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    dens = np.zeros_like(mids)
    inside = mids < edge
    dens[inside], _ = density_with_error(r, mids[inside])
    gcdf = density_grid(r, n=512).cdf()
    ecdf = StepCDF(draws)
    return {
        "r": r,
        "samples": cfg.samples,
        "histogram": _hist_payload(hist),
        "density_at_midpoints": dens.tolist(),
        "ks_to_limit": float(ks_distance(ecdf, gcdf)),
        "levy_to_limit": float(levy_distance(ecdf, gcdf)),
    }


def _run_triangular(cfg: RunConfig) -> dict:
    dist = EntryDistribution(cfg.entries, cfg.trunc)
    shape = staircase(cfg.size)
    spectra = shape_ensemble_spectra(shape, cfg.size, dist, cfg.replicas, cfg.seed, jobs=cfg.jobs)
    pooled = np.concatenate(spectra)
    moments = []
    for k in range(cfg.kmax + 1):
        ref = _moment_float(dh_moment(k), k, "triangular law")
        mk = float(np.mean(pooled**k))
        moments.append({"k": k, "mean": mk, "limit": ref, "rel_err": abs(mk - ref) / ref})
    hist = histogram(pooled, cfg.bins, (0.0, 1.05 * np.e))
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    dh_vals = dh_density(mids).tolist()

    lo, hi = 0.2, 2.5  # the window of acceptance criterion 9
    ecdf = StepCDF(pooled)
    xs = np.unique(np.concatenate([np.linspace(lo, hi, 321),
                                   pooled[(pooled >= lo) & (pooled <= hi)]]))
    sup = float(np.max(np.abs(ecdf.eval(xs) - dh_cdf(xs))))
    return {
        "size": cfg.size,
        "replicas": cfg.replicas,
        "moments": moments,
        "histogram": _hist_payload(hist),
        "dh_density_at_midpoints": dh_vals,
        "window": [lo, hi],
        "sup_discrepancy": sup,
    }


_HANDLERS = {
    "shape": _run_shape,
    "moments": _run_moments,
    "trees": _run_trees,
    "simulate": _run_simulate,
    "law": _run_law,
    "sample-law": _run_sample_law,
    "triangular": _run_triangular,
}


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
