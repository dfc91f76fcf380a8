"""Cut-and-project schemes, weighted Dirac combs, and their diffraction spectra."""

from ._version import __version__
from .lattice import Box, BudgetError, Lattice, density, dual, lattice_points_in_box
from .cps import (
    CutProjectScheme,
    DensityReport,
    InjectivityReport,
    Window,
    dual_cps,
    internal_density_check,
    model_set,
    verify_injectivity,
)
from .almost import AlmostPeriodScan, a_norm, eps_norm_almost_periods
from .comb import WeightedComb, autocorrelation_patch, descent, lift, model_comb, strip_comb
from .posdef import CrosscheckReport, gram_matrix, lift_pd_crosscheck
from .spectra import (
    Atomic,
    Axis,
    DiffractionSpectrum,
    MotifAtom,
    MotifAtomFiber,
    MotifDensityFiber,
    PeriodicMeasure,
    ProjectedDensity,
    ProjectionResult,
    Separable,
    TruncationError,
    TruncationSpec,
    box_profile,
    diffraction,
    lattice_comb_transform,
    make_cutoff,
    norm_bound_check,
    oracle_amplitudes,
    pair_fibered,
    pairing_values,
    project,
    spectral_projector,
    spectrum_metadata_json,
    trapezoid_profile,
)
from .tables import spectrum_to_csv

# the modules split out of comb stay out of the star-import names, which predate them
__all__ = [name for name in dir() if not name.startswith("_") and name not in ("almost", "tables")]
