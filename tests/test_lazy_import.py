"""The package loads `parabolica.spectral`, and numpy with it, only on first use.

Each check that depends on what a process has imported runs in a fresh
interpreter, since this test session has long since imported numpy.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parabolica
from test_cli import SPECTRAL_REQUESTS, SPECTRAL_SHA256

ROOT = Path(__file__).resolve().parents[1]

# The public names as they were when the package imported spectral eagerly,
# less profile_mean and truncate, since removed.
PUBLIC_NAMES = [
    "BundleSpec", "ChernData", "EndomorphismSpectrum", "FlatTorus", "FullSetNotParabolicError",
    "GalerkinSolution", "IntegrabilityResult", "InvalidTypeError", "InvariantError", "KahlerClass",
    "NotDominantError", "NotKahlerError", "NotL2Error", "ParabolicData", "RootSystem", "SimpleLieType",
    "SingularProfile", "SpectralFunction", "SplittingReport", "Weight", "WeightSplit", "build_parabolic",
    "build_root_system", "bundle", "canonical_weight", "chern_weight", "compatibility_constant",
    "cramer_coefficients", "criterion_ratios", "curvature", "decompose_weight",
    "distance_profile_coefficients", "einstein_class", "endo_eigenvalues", "fundamental_weight",
    "h2_cauchy_gap", "hym_constant", "integrability_check", "is_dominant_for_levi", "linalg",
    "line_bundle_weight", "omega_trace", "parabolic", "positive_root_count", "rootsys",
    "solve_weight", "spectral", "spectral_h2_gap", "spectrum_and_traces", "splitting_report",
    "weyl_dim",
]
SPECTRAL_NAMES = [
    "FlatTorus", "GalerkinSolution", "IntegrabilityResult", "NotL2Error", "SingularProfile",
    "SpectralFunction", "compatibility_constant", "distance_profile_coefficients", "h2_cauchy_gap",
    "integrability_check", "solve_weight", "spectral_h2_gap",
]

# One exact request, then the pinned spectral requests, in one process.
ONE_PROCESS = """
import contextlib, hashlib, io, json, sys
import parabolica, parabolica.cli
requests = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = parabolica.cli.main(
        ["analyze", "--type=E8", "--parabolic=1,2,3,4,5,6,7", "--weight=0,0,0,0,0,0,0,1", "--kahler=1"]
    )
state = {"analyze_exit": code, "numpy_after_analyze": "numpy" in sys.modules,
         "spectral_registered": "parabolica.spectral" in sys.modules}
digest, out = hashlib.sha256(), io.StringIO()
for tokens in requests:
    with contextlib.redirect_stdout(out):
        state.setdefault("spectral_exits", []).append(parabolica.cli.main(tokens))
state["digest"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(state))
"""

# The benchmark's tracer wraps each traced function wherever it is bound.
TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
import parabolica.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2"]),
             cli.main(["spectral", "--dim=1", "--modes=8", "--profile=point:s=0.25"])]
print(json.dumps({"codes": codes, "binding_sites": t.binding_sites, "layers": t.summary()}))
"""


def _run(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def one_process() -> dict:
    return _run(ONE_PROCESS, json.dumps(SPECTRAL_REQUESTS))


def test_exact_request_imports_no_numpy(one_process):
    assert one_process["analyze_exit"] == 0
    assert one_process["numpy_after_analyze"] is False
    assert one_process["spectral_registered"] is True


def test_spectral_requests_after_an_exact_one_print_the_pinned_bytes(one_process):
    assert one_process["spectral_exits"] == [0] * len(SPECTRAL_REQUESTS)
    assert one_process["digest"] == SPECTRAL_SHA256


def test_public_names_are_unchanged():
    assert parabolica.__all__ == PUBLIC_NAMES
    public = [name for name in dir(parabolica) if not name.startswith("_")]
    assert [name for name in public if name != "cli"] == PUBLIC_NAMES  # cli joins once imported
    for name in SPECTRAL_NAMES:
        assert getattr(parabolica, name) is getattr(parabolica.spectral, name), name
    with pytest.raises(AttributeError):
        parabolica.no_such_name


def test_tracer_finds_every_traced_function_and_sees_its_calls():
    traced = _run(TRACED, str(ROOT / "bench"))
    assert traced["codes"] == [0, 0]
    assert all(traced["binding_sites"].values()), traced["binding_sites"]
    layers = traced["layers"]
    assert layers["parabolic.build_parabolic.calls"] == 1
    assert layers["spectral.distance_profile_coefficients.calls"] == 1
    assert layers["spectral.solve_weight.calls"] == 3


# Threads that all read the module for the first time at once.
RACE = """
import json, sys, threading
import parabolica
sys.setswitchinterval(1e-6)
barrier, errors = threading.Barrier(8), []
def first_read():
    barrier.wait()
    try:
        parabolica.spectral.solve_weight
        parabolica.SpectralFunction([1.0])
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "errors": errors}))
"""


def test_first_reads_from_many_threads_see_the_whole_module():
    assert _run(RACE) == {"alive": 0, "errors": []}
