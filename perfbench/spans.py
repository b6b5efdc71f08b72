"""Spans around youngspec's public functions, installed from outside the package.

Each function is wrapped under the name its caller looks it up by (a
module global of the calling module, or a class attribute), so the
program runs unchanged. A span is [name, start, end, parent, size];
spans stay in memory until the job ends. ``layer_metrics`` turns them
into per-layer self times and counts.
"""

from __future__ import annotations

import statistics
import time
from functools import wraps

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.captured: dict[str, list] = {}
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, size=None, capture=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        ``size(args, out)`` gives the span's work size; ``capture(args, out)``
        keeps inputs or outputs for the accuracy oracles. Both run after
        the span has closed.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[4] = size(args, out)
            if capture is not None:
                self.captured.setdefault(name, []).append(capture(args, out))
            return out

        setattr(owner, attr, traced)


def _gemm_size(args, out):
    x = args[0].entries
    rows, cols = x.shape
    flop_per_madd = 8 if np.iscomplexobj(x) else 2
    return (flop_per_madd * rows * rows * cols, x.nbytes + out.entries.nbytes)


def _levy_inputs(args, out):
    f, g = args
    return {"atoms": f.atoms, "counts": f.multiplicities, "xs": g.xs, "fs": g.fs, "value": out}


def _grid(args, out):
    return {"r": out.r, "edge": out.edge, "x": out.x, "f": out.f, "err": out.err}


def _points(args, out):
    return int(np.size(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap every public function the CLI handlers reach."""
    from youngspec import cli, limitlaw, matrices, spectra

    wrap = tracer.wrap
    for name in ("limit_moment", "gen_catalan", "dh_moment", "count_r_plane_trees"):
        wrap(cli, name, "combinatorics." + name)
    for name in ("beta_product_moment", "contour_moment", "support_edge", "edge_exponent_fit",
                 "dh_density", "dh_cdf", "beta_product_samples", "cdf_grid"):
        wrap(cli, name, "limitlaw." + name)
    wrap(cli, "density_grid", "limitlaw.density_grid", capture=_grid)
    wrap(limitlaw, "density_grid", "limitlaw.density_grid", capture=_grid)
    wrap(limitlaw, "density_with_error", "limitlaw.density_with_error", size=lambda a, out: a[0])
    for name in ("cdf", "moment", "integral"):
        wrap(limitlaw.DensityGrid, name, "limitlaw.DensityGrid." + name)

    wrap(cli, "substream", "streams.substream")
    wrap(matrices, "substream", "streams.substream")
    wrap(spectra, "sample_shaped", "matrices.sample_shaped",
         size=lambda a, out: (out.entries.size, a[0].weight()))
    wrap(spectra, "covariance", "matrices.covariance", size=_gemm_size)
    wrap(spectra, "eigenvalues", "spectra.eigenvalues", size=lambda a, out: out.dim)
    wrap(cli, "levy_distance", "spectra.levy_distance", capture=_levy_inputs)
    wrap(cli, "ks_distance", "spectra.ks_distance")
    wrap(cli, "histogram", "spectra.histogram")
    wrap(spectra.StepCDF, "__init__", "spectra.StepCDF.__init__")
    wrap(spectra.StepCDF, "eval", "spectra.StepCDF.eval", size=_points)
    wrap(spectra.StepCDF, "eval_left", "spectra.StepCDF.eval_left", size=_points)


# span name -> per-layer time metric its self time counts toward;
# substream spans are only counted
LAYER_OF = {
    "combinatorics.limit_moment": "combinatorics.s",
    "combinatorics.gen_catalan": "combinatorics.s",
    "combinatorics.dh_moment": "combinatorics.s",
    "combinatorics.count_r_plane_trees": "combinatorics.s",
    "limitlaw.beta_product_moment": "limitlaw.misc_s",
    "limitlaw.contour_moment": "limitlaw.misc_s",
    "limitlaw.support_edge": "limitlaw.misc_s",
    "limitlaw.edge_exponent_fit": "limitlaw.misc_s",
    "limitlaw.dh_density": "limitlaw.dh_s",
    "limitlaw.dh_cdf": "limitlaw.dh_s",
    "limitlaw.beta_product_samples": "limitlaw.sampler_s",
    "limitlaw.cdf_grid": "limitlaw.grid_s",
    "limitlaw.density_grid": "limitlaw.grid_s",
    "limitlaw.density_with_error": "limitlaw.density_s",
    "limitlaw.DensityGrid.cdf": "limitlaw.cdf_s",
    "limitlaw.DensityGrid.moment": "limitlaw.moment_s",
    "limitlaw.DensityGrid.integral": "limitlaw.moment_s",
    "matrices.sample_shaped": "matrices.sample_s",
    "matrices.covariance": "matrices.gemm_s",
    "spectra.eigenvalues": "spectra.eigvalsh_s",
    "spectra.levy_distance": "spectra.levy_s",
    "spectra.ks_distance": "spectra.ks_s",
    "spectra.histogram": "spectra.histogram_s",
    "spectra.StepCDF.__init__": "spectra.stepcdf_s",
    "spectra.StepCDF.eval": "spectra.stepcdf_s",
    "spectra.StepCDF.eval_left": "spectra.stepcdf_s",
}


def layer_metrics(spans: list[list], handler_s: float) -> dict[str, float]:
    """Per-layer self times and counts from one traced job.

    Self time is a span's duration minus the durations of its direct
    children. ``cli.unattributed_s`` is the handler time outside every
    top-level span.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    own = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
    out = {layer: 0.0 for layer in set(LAYER_OF.values())}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        if span[0] in LAYER_OF:
            out[LAYER_OF[span[0]]] += own[i]
        by_name.setdefault(span[0], []).append(i)

    def sizes(name):
        return [spans[i][4] for i in by_name.get(name, [])]

    # level tables are built inside the first density call of each order
    calls_by_order: dict[int, list[float]] = {}
    for i in by_name.get("limitlaw.density_with_error", []):
        calls_by_order.setdefault(spans[i][4], []).append(dur[i])
    tables = float(sum(d[0] - statistics.median(d) for d in calls_by_order.values()))
    out["limitlaw.tables_s"] = tables
    out["limitlaw.density_s"] -= tables

    drawn = sum(s[0] for s in sizes("matrices.sample_shaped"))
    boxes = sum(s[1] for s in sizes("matrices.sample_shaped"))
    gemm = sizes("matrices.covariance")
    flop = sum(s[0] for s in gemm)
    evals = sizes("spectra.StepCDF.eval") + sizes("spectra.StepCDF.eval_left")
    out.update({
        "streams.substreams": len(by_name.get("streams.substream", [])),
        "partitions.boxes": boxes,
        "matrices.entries_drawn": drawn,
        "matrices.mask_fill": boxes / drawn if drawn else 0.0,
        "matrices.gemm_flop": flop,
        "matrices.gemm_bytes": sum(s[1] for s in gemm),
        "matrices.gemm_gflops": flop / out["matrices.gemm_s"] / 1e9 if flop else 0.0,
        "spectra.eigvalsh_calls": len(sizes("spectra.eigenvalues")),
        "spectra.eig_dim": max(sizes("spectra.eigenvalues"), default=0),
        "spectra.cdf_evals": len(evals),
        "spectra.cdf_points": sum(evals),
        "limitlaw.density_evals": len(sizes("limitlaw.density_with_error")),
        "limitlaw.dh_calls": len(sizes("limitlaw.dh_cdf")) + len(sizes("limitlaw.dh_density")),
        "cli.unattributed_s": handler_s - sum(d for d, s in zip(dur, spans) if s[3] < 0),
    })
    return out
