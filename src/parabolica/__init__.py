"""Exact splitting analysis of homogeneous vector bundles on flag varieties,
with invariant curvature constants and a spectral Galerkin demo."""

__version__ = "0.1.0"

from .bundle import (
    BundleSpec,
    ChernData,
    SplittingReport,
    canonical_weight,
    chern_weight,
    cramer_coefficients,
    criterion_ratios,
    line_bundle_weight,
    splitting_report,
    weyl_dim,
)
from .curvature import (
    EndomorphismSpectrum,
    KahlerClass,
    NotKahlerError,
    einstein_class,
    endo_eigenvalues,
    hym_constant,
    omega_trace,
    spectrum_and_traces,
)
from .parabolic import (
    FullSetNotParabolicError,
    NotDominantError,
    ParabolicData,
    WeightSplit,
    build_parabolic,
    decompose_weight,
    is_dominant_for_levi,
)
from .rootsys import (
    InvalidTypeError,
    InvariantError,
    RootSystem,
    SimpleLieType,
    Weight,
    build_root_system,
    fundamental_weight,
    positive_root_count,
)
from .spectral import (
    FlatTorus,
    GalerkinSolution,
    IntegrabilityResult,
    NotL2Error,
    SingularProfile,
    SpectralFunction,
    compatibility_constant,
    distance_profile_coefficients,
    h2_cauchy_gap,
    integrability_check,
    profile_mean,
    solve_weight,
    spectral_h2_gap,
    truncate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
