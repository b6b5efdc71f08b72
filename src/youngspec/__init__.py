"""Simulation and exact spectral theory of diagram-shaped random matrices."""

__version__ = "0.1.0"

from .combinatorics import (
    catalan,
    count_r_plane_trees,
    dh_moment,
    dh_scaled_gen_catalan,
    enumerate_plane_trees,
    fuss_catalan,
    gen_catalan,
    limit_moment,
)
from .limitlaw import (
    ContourMoment,
    DensityGrid,
    beta_product_moment,
    beta_product_samples,
    cdf_grid,
    contour_moment,
    density,
    density_grid,
    density_mp,
    density_r2,
    density_with_error,
    dh_cdf,
    dh_density,
    dh_density_param,
    edge_exponent_fit,
    mp_cdf,
    stieltjes,
    stieltjes_hyp,
    support_edge,
)
from .matrices import (
    CovarianceMatrix,
    EntryDistribution,
    ShapedMatrix,
    covariance,
    sample_shaped,
    truncate_standardize,
)
from .partitions import (
    Partition,
    balance_ratio,
    render,
    square,
    staircase,
)
from .spectra import (
    EnsembleMoments,
    GridCDF,
    Histogram,
    Spectrum,
    StepCDF,
    eigenvalues,
    ensemble_moments,
    ensemble_spectra,
    histogram,
    ks_distance,
    levy_distance,
    shape_ensemble_spectra,
)
from .streams import substream
