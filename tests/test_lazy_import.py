"""The package loads `parabolica.spectral`, and numpy with it, only on first use,
and never loads `dataclasses` or `inspect`; exact requests load none of
`argparse`, `json` and `typing`.

Each check that depends on what a process has imported runs in a fresh
interpreter, since this test session has long since imported numpy.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import parabolica
from conftest import child_env
from test_cli import SPECTRAL_REQUESTS, SPECTRAL_SHA256

ROOT = Path(__file__).resolve().parents[1]

# The package's public names: the exact layers' names and the submodules.
PUBLIC_NAMES = [
    "BundleSpec", "ChernData", "EndomorphismSpectrum", "FullSetNotParabolicError", "InvalidTypeError",
    "InvariantError", "KahlerClass", "NotDominantError", "NotKahlerError", "ParabolicData", "RootSystem",
    "SimpleLieType", "SplittingReport", "Weight", "WeightSplit", "build_parabolic", "build_root_system",
    "bundle", "chern_weight", "cramer_coefficients", "criterion_ratios", "curvature", "decompose_weight",
    "einstein_class", "endo_eigenvalues", "fundamental_weight", "hym_constant", "is_dominant_for_levi",
    "linalg", "line_bundle_weight", "omega_trace", "parabolic", "positive_root_count", "rootsys",
    "spectral", "spectrum_and_traces", "splitting_report", "weyl_dim",
]
# The public names of parabolica.spectral, read from that module only.
SPECTRAL_NAMES = [
    "FlatTorus", "GalerkinSolution", "IntegrabilityResult", "NotL2Error", "SingularProfile",
    "SpectralFunction", "compatibility_constant", "distance_profile_coefficients", "galerkin_ladder",
    "h2_cauchy_gap", "integrability_check", "solve_weight", "spectral_h2_gap",
]

# One request of each exact command.
EXACT_REQUESTS = (
    ["analyze", "--type=E8", "--parabolic=1,2,3,4,5,6,7", "--weight=0,0,0,0,0,0,0,1", "--kahler=1"],
    ["curvature", "--type=E8", "--parabolic=1,2,3,4,5,6,7", "--kahler=2", "--line=-1"],
    ["dump-roots", "--type=E8"],
    ["paper-suite", "--quiet"],
)

# The exact requests, then the pinned spectral requests, in one process.
ONE_PROCESS = """
import contextlib, hashlib, io, json, sys
import parabolica, parabolica.cli
exact, requests = json.loads(sys.argv[1]), json.loads(sys.argv[2])
# the records do without these: dataclasses imports inspect, and the two were a third of the import
introspection = ("dataclasses", "inspect")
state = {"exact_exits": [], "numpy_after_exact": [], "introspection_after_exact": []}
state["introspection_after_import"] = [name for name in introspection if name in sys.modules]
for tokens in exact:
    with contextlib.redirect_stdout(io.StringIO()):
        state["exact_exits"].append(parabolica.cli.main(tokens))
    state["numpy_after_exact"].append("numpy" in sys.modules)
    state["introspection_after_exact"].append([name for name in introspection if name in sys.modules])
state["spectral_registered"] = "parabolica.spectral" in sys.modules
digest, out = hashlib.sha256(), io.StringIO()
for tokens in requests:
    with contextlib.redirect_stdout(out):
        state.setdefault("spectral_exits", []).append(parabolica.cli.main(tokens))
state["digest"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(state))
"""

# The import, then one request of each exact command, in a process that
# imports nothing else first: the script itself uses none of the modules named.
BARE_EXACT = """
import sys
import parabolica, parabolica.cli
import contextlib, io
codes = []
for tokens in {requests!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(parabolica.cli.main(tokens))
print(codes, sorted(name for name in {names!r} if name in sys.modules))
"""


def _bare_exact(names: tuple[str, ...], *flags: str) -> str:
    script = BARE_EXACT.format(requests=[list(tokens) for tokens in EXACT_REQUESTS], names=names)
    command = [sys.executable, *flags, "-c", script]
    done = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_requests_leave_argparse_and_json_unimported():
    assert _bare_exact(("argparse", "json")) == f"{[0] * len(EXACT_REQUESTS)} []\n"


def test_exact_requests_leave_typing_unimported():
    # -S: site, not the package, may import typing first
    assert _bare_exact(("typing",), "-S") == f"{[0] * len(EXACT_REQUESTS)} []\n"


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
    command = [sys.executable, "-c", script, *args]
    done = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def one_process() -> dict:
    return _run(ONE_PROCESS, json.dumps(EXACT_REQUESTS), json.dumps(SPECTRAL_REQUESTS))


def test_exact_request_imports_no_numpy(one_process):
    assert one_process["exact_exits"] == [0] * len(EXACT_REQUESTS)
    assert one_process["numpy_after_exact"] == [False] * len(EXACT_REQUESTS)
    assert one_process["spectral_registered"] is True


def test_import_and_exact_requests_leave_dataclasses_and_inspect_unimported(one_process):
    assert one_process["exact_exits"] == [0] * len(EXACT_REQUESTS)
    assert one_process["introspection_after_import"] == []
    assert one_process["introspection_after_exact"] == [[]] * len(EXACT_REQUESTS)


def test_spectral_requests_after_an_exact_one_print_the_pinned_bytes(one_process):
    assert one_process["spectral_exits"] == [0] * len(SPECTRAL_REQUESTS)
    assert one_process["digest"] == SPECTRAL_SHA256


def test_spectral_names_live_only_on_the_spectral_module():
    assert parabolica.__all__ == PUBLIC_NAMES
    public = [name for name in dir(parabolica) if not name.startswith("_")]
    assert [name for name in public if name != "cli"] == PUBLIC_NAMES  # cli joins once imported
    for name in SPECTRAL_NAMES:
        assert hasattr(parabolica.spectral, name), name
        assert not hasattr(parabolica, name), name
    with pytest.raises(AttributeError):
        parabolica.no_such_name


def test_tracer_finds_every_traced_function_and_sees_its_calls():
    traced = _run(TRACED, str(ROOT / "bench"))
    assert traced["codes"] == [0, 0]
    assert all(traced["binding_sites"].values()), traced["binding_sites"]
    layers = traced["layers"]
    assert layers["parabolic.build_parabolic.calls"] == 1
    assert layers["spectral.distance_profile_coefficients.calls"] == 1
    assert layers["spectral.integrability_check.calls"] == 1


# One cold spectral request, counting the mode tables it builds.
COLD_TABLES = """
import contextlib, io, json, sys
import parabolica.cli
spectral, builds = parabolica.spectral, []
genuine = spectral._build_table
spectral._build_table = lambda sides, size: builds.append(size) or genuine(sides, size)
with contextlib.redirect_stdout(io.StringIO()):
    code = parabolica.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "builds": len(builds)}))
"""


@pytest.mark.parametrize("dim, modes", [(1, 4096), (2, 4000)])
def test_cold_spectral_request_builds_two_mode_tables(dim, modes):
    # the reader's one-mode budget probe, then the --modes table that every ladder rung reads
    cold = _run(COLD_TABLES, "spectral", f"--dim={dim}", f"--modes={modes}", "--profile=point:s=0.25")
    assert cold == {"code": 0, "builds": 2}


# A value set on the deferred module before its first read.
SET_BEFORE_FIRST_READ = """
import json, sys
import parabolica
module = parabolica.spectral
deferred = type(module).__name__  # type() reads no attribute, so the module stays deferred
module.solve_weight = "set before the first read"
print(json.dumps({"deferred": deferred, "after": type(module).__name__, "numpy": "numpy" in sys.modules,
                  "value": module.solve_weight, "ran": callable(module.galerkin_ladder)}))
"""


def test_a_value_set_before_the_first_read_survives_the_module_code():
    """The first write runs the module and then sets the value, so the
    module's own ``def solve_weight`` does not overwrite it."""
    assert _run(SET_BEFORE_FIRST_READ) == {
        "deferred": "_DeferredModule", "after": "module", "numpy": True, "value": "set before the first read", "ran": True,
    }


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
        parabolica.spectral.SpectralFunction([1.0])
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
