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
    star,
    verify_injectivity,
)
from .almost import AlmostPeriodScan, a_norm, eps_norm_almost_periods, meyer_gap
from .comb import WeightedComb, autocorrelation_patch, descent, lift, model_comb, strip_comb
from .posdef import (
    CrosscheckReport,
    GramReport,
    RestrictionReport,
    gram_matrix,
    gram_min_eigenvalue,
    lift_pd_crosscheck,
    restriction_check,
)
from .spectra import (
    Atomic,
    AtomicTransform,
    Axis,
    Cutoff,
    DiffractionSpectrum,
    InternalProfile,
    MotifAtom,
    MotifAtomFiber,
    MotifDensityFiber,
    PeriodicMeasure,
    ProjectedDensity,
    ProjectionResult,
    Separable,
    SeparableTransform,
    TruncationError,
    TruncationSpec,
    atomic_profile,
    box_profile,
    diffraction,
    lattice_comb_transform,
    make_cutoff,
    norm_bound_check,
    oracle_amplitude,
    oracle_amplitudes,
    pair_fibered,
    pairing_values,
    project,
    spectral_projector,
    spectrum_metadata_json,
    trapezoid_profile,
    unit_cell_decay_constant,
)
from .tables import comb_from_csv, comb_to_csv, spectrum_to_csv

# the modules split out of comb stay out of the star-import names, which predate them
__all__ = [name for name in dir() if not name.startswith("_") and name not in ("almost", "tables")]
