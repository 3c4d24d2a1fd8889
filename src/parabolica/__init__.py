"""Exact splitting analysis of homogeneous vector bundles on flag varieties,
with invariant curvature constants and a spectral Galerkin demo.

The exact layers load with the package.  ``parabolica.spectral``, the only
module that needs numpy, is registered in ``sys.modules`` without running:
it runs, and imports numpy, on the first attribute read from it, and the
package serves its public names from it on demand.  So ``import parabolica``
and every exact computation leave numpy unimported."""

__version__ = "0.1.0"

import types as _types

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


def _run_deferred(module: _types.ModuleType) -> None:
    spec = object.__getattribute__(module, "__spec__")
    state = spec.loader_state
    with state["lock"]:
        if type(module) is _DeferredModule and not state["running"]:
            state["running"] = True
            try:
                spec.loader.exec_module(module)
            finally:
                state["running"] = False
            object.__setattr__(module, "__class__", _types.ModuleType)


class _DeferredModule(_types.ModuleType):
    """A submodule in ``sys.modules`` whose code has not run yet.

    The first attribute read or write runs it, under a lock, and turns this
    object into a plain module; so a value set on the module before then is
    not overwritten by its code.  ``importlib.util.LazyLoader`` takes no such
    lock before Python 3.13, where a second thread can read the module half
    run and get an AttributeError.  The thread that is running the module
    sees its namespace as it stands."""

    def __getattribute__(self, attr: str):
        _run_deferred(self)
        return _types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr: str, value) -> None:
        _run_deferred(self)
        _types.ModuleType.__setattr__(self, attr, value)


def _register_deferred(name: str) -> _types.ModuleType:
    import importlib.util
    import sys
    import threading

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader_state = {"lock": threading.RLock(), "running": False}
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _DeferredModule
    sys.modules[spec.name] = module
    return module


spectral = _register_deferred("spectral")

# The public names of parabolica.spectral, served by __getattr__.
_SPECTRAL_NAMES = (
    "FlatTorus",
    "GalerkinSolution",
    "IntegrabilityResult",
    "NotL2Error",
    "SingularProfile",
    "SpectralFunction",
    "compatibility_constant",
    "distance_profile_coefficients",
    "h2_cauchy_gap",
    "integrability_check",
    "solve_weight",
    "spectral_h2_gap",
)


def __getattr__(name: str):
    # Read from the module on each access and never cached here, so that a
    # function rebound on the module is the one the package serves too.
    if name in _SPECTRAL_NAMES:
        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # the names the package listed when it imported spectral eagerly: no
    # private helpers, and not these two hooks
    names = {name for name in globals() if not name.startswith("_") or name.startswith("__")}
    return sorted(names.union(_SPECTRAL_NAMES) - {"__getattr__", "__dir__"})


__all__ = [name for name in __dir__() if not name.startswith("_")]
