"""Outside-in tracing of parabolica's public functions.

The library has no tracing of its own, so the benchmark wraps each traced
function at every place it is bound: the defining module, every module that
imported it by name (``cli`` imports ``splitting_report``, so both
``parabolica.bundle.splitting_report`` and ``parabolica.cli.splitting_report``
are wrapped) and the package namespace.  Methods are wrapped on their class.

Spans (function, start, end, parent span, op id) live in flat arrays while
the run lasts and are written out when it ends; self time is a span's
duration minus the time covered by its direct children.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# layer (module of parabolica) -> traced functions; "Class.method" for methods
LAYERS = {
    "rootsys": (
        "build_root_system",
        "root_system_from_cartan",
        "RootSystem.pairing",
        "RootSystem.weight_in_simple_roots",
    ),
    "linalg": ("det", "solve"),
    "parabolic": ("build_parabolic", "decompose_weight"),
    "bundle": ("splitting_report", "chern_weight", "cramer_coefficients", "weyl_dim", "criterion_ratios"),
    "curvature": ("endo_eigenvalues", "hym_constant", "omega_trace", "einstein_class"),
    "spectral": (
        "FlatTorus.modes",
        "FlatTorus.midpoint_grid",
        "FlatTorus.sample_mode",
        "distance_profile_coefficients",
        "integrability_check",
        "solve_weight",
        "h2_cauchy_gap",
        "spectral_h2_gap",
    ),
    "cli": ("main",),
}


def function_metrics() -> list[str]:
    """``<layer>.<function>`` for every traced function, in LAYERS order."""
    return [f"{layer}.{qual.rpartition('.')[2]}" for layer, quals in LAYERS.items() for qual in quals]


def _grid_rows(tracer, args, kwargs, result) -> None:
    tracer.counters["spectral.grid_points"] += result.shape[0]


def _quadrature_bytes(tracer, args, kwargs, result) -> None:
    points = args[2] if len(args) > 2 else kwargs["points"]
    tracer.counters["spectral.quadrature_bytes"] += points.shape[0] * 8


# Counters taken at a span boundary, keyed by the traced function.
_COUNT_HOOKS = {"spectral.midpoint_grid": _grid_rows, "spectral.sample_mode": _quadrature_bytes}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = {"spectral.grid_points": 0, "spectral.quadrature_bytes": 0}
        self.binding_sites: dict[str, int] = {}

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = _COUNT_HOOKS.get(name)
        fns, parents, ops, starts, ends, stack = self.fn, self.parent, self.op, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of LAYERS at each of its binding sites."""
        importlib.import_module("parabolica.cli")  # loads every layer
        modules = [m for n, m in sys.modules.items() if n == "parabolica" or n.startswith("parabolica.")]
        for layer, quals in LAYERS.items():
            module = importlib.import_module(f"parabolica.{layer}")
            for qual in quals:
                owner, _, attr = qual.rpartition(".")
                name = f"{layer}.{attr}"
                if owner:
                    cls = getattr(module, owner)
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    self.binding_sites[name] = 1
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                sites = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            sites += 1
                self.binding_sites[name] = sites

    def summary(self) -> dict[str, float]:
        """calls, self_ms and total_ms per function; self_ms per layer."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(count):
            f = self.fn[i]
            duration = self.end[i] - self.start[i]
            calls[f] += 1
            total[f] += duration
            own[f] += duration - child[i]
        out: dict[str, float] = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.self_ms"] = own[f] * 1e3
            out[f"{name}.total_ms"] = total[f] * 1e3
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(own[f] for f, n in enumerate(self.names) if n.startswith(layer + ".")) * 1e3
        return out

    def write(self, path) -> None:
        """Spans as gzipped CSV: span, op, function, parent span, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,function,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.op[i]},{self.names[self.fn[i]]},{self.parent[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )
