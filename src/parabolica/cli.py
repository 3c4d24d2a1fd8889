"""Command-line front end: analyze, curvature, spectral, paper-suite, dump-roots.

Conventions: simple-root nodes are 1-based Bourbaki indices on the command
line (0-based internally); weights are full-rank coordinate vectors over
the fundamental weights; every rational in a report is rendered as a
"p/q" string; reports carry a schema_version and are byte-stable for
identical requests.  Exit codes: 0 success, 1 input error or a reader
that closed stdout early, 2 fixture mismatch, 3 a failed internal
invariant (reported on stderr as "invariant violated: ...", without a
traceback).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import __version__, spectral
from .bundle import (
    BundleSpec,
    SplittingReport,
    canonical_weight,
    line_bundle_weight,
    splitting_report,
)
from .curvature import KahlerClass, einstein_class, hym_constant, spectrum_and_traces
from .parabolic import ParabolicData, build_parabolic
from .rootsys import InvalidTypeError, InvariantError, SimpleLieType, Weight, build_root_system

SCHEMA_VERSION = "1"


class ParseError(ValueError):
    """Malformed request tokens; the message names the offending piece."""


class FixtureMismatchError(AssertionError):
    """A reference fixture deviated from its pinned value."""


class _ReportTooLarge(ValueError):
    """An exact value the report cannot carry: a rational past Python's
    int-to-str digit limit, or a mean-curvature target past float range.
    ``main`` names the flags the value came from."""


# Longest message an `error:` line on stderr carries, ellipsis included.
_MAX_ERROR_CHARS = 200

# Largest torus dimension of a spectral request.  A report that is not
# square integrable builds no grid but lists one side length per dimension.
MAX_SPECTRAL_DIM = 64


@dataclass(frozen=True)
class SpectralRequest:
    dim: int
    modes: int
    exponent: float
    codim: int | None = None
    hym: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ParseError(f"spectral request: dim must be at least 1, got {self.dim}")
        if self.dim > MAX_SPECTRAL_DIM:
            raise ParseError(f"spectral request: dim must be at most {MAX_SPECTRAL_DIM}, got {self.dim}")
        if self.modes < 0:
            raise ParseError(f"spectral request: modes must be nonnegative, got {self.modes}")
        for name, value in (("s", self.exponent), ("hym", self.hym)):
            if not math.isfinite(value):
                raise ParseError(f"spectral request: {name} must be finite, got {value!r}")

    def profile(self) -> spectral.SingularProfile:
        codim = self.codim if self.codim is not None else self.dim
        return spectral.SingularProfile(ambient_dim=self.dim, codim=codim, exponent=self.exponent)


@dataclass(frozen=True)
class AnalysisRequest:
    lie_type: str
    parabolic: tuple[int, ...]
    weight: tuple[int, ...]
    kahler: tuple[Fraction, ...] | None = None
    line: tuple[int, ...] | None = None
    spectral: SpectralRequest | None = None

    def __post_init__(self) -> None:
        # The line's constants are taken against a Kahler class; without one
        # the report would have no curvature block to carry them.
        if self.line is not None and self.kahler is None:
            raise ParseError("--line: needs --kahler, the Kahler class its curvature constants are taken against")


def _split_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _split_fractions(text: str, what: str) -> tuple[Fraction, ...]:
    """Integers, p/q or plain decimals.  Exponent notation is refused before
    a Fraction is built: nine characters, 1e3000000, would make a
    three-million-digit integer."""
    tokens = text.split(",")
    try:
        if any("e" in tok.lower() for tok in tokens):
            raise ValueError("exponent notation")
        return tuple(Fraction(tok) for tok in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{what}: expected comma-separated integers, p/q or decimals, got {text!r}") from exc


def _picard_values(text: str, parse: Callable[[str, str], tuple], what: str, count: int) -> tuple:
    """A `--kahler` or `--line` value read by ``parse``: one entry per Picard node."""
    values = parse(text, what)
    if len(values) != count:
        raise ParseError(f"{what}: expected {count} coefficient(s) over the Picard nodes, got {len(values)}")
    return values


def _parse_fields(text: str, what: str) -> dict[str, str]:
    """Comma-separated key=value chunks as a dict; ParseError names a bad
    chunk or a repeated key."""
    fields: dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"{what}: expected key=value, got {chunk!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key in fields:
            raise ParseError(f"{what}: key {key!r} given twice")
        fields[key] = value
    return fields


def _levi_nodes(text: str, rank: int) -> tuple[int, ...]:
    """Validated 1-based Levi nodes, sorted; an empty string names the empty
    set, whose parabolic is the Borel subgroup (the full flag variety)."""
    nodes = _split_ints(text, "--parabolic") if text.strip() else ()
    if len(set(nodes)) != len(nodes):
        raise ParseError("--parabolic: duplicate node indices")
    for node in nodes:
        if not 1 <= node <= rank:
            raise ParseError(f"--parabolic: node {node} outside 1..{rank}")
    if len(nodes) == rank:
        raise ParseError("--parabolic: the full node set is not a parabolic (the variety would be a point)")
    return tuple(sorted(nodes))


def _spectral_request(fields: dict[str, str | int | float], what: str) -> SpectralRequest:
    """The one reader of `--spectral` and `spectral --profile` fields: s is
    required, dim, modes and hym default to 1, 128 and 1, codim to dim; any
    other key is refused."""
    for key in fields:
        if key not in ("s", "dim", "modes", "hym", "codim"):
            raise ParseError(f"{what}: unknown field {key!r}; expected s, dim, modes, hym or codim")
    try:
        dim, modes, exponent = int(fields.get("dim", 1)), int(fields.get("modes", 128)), float(fields["s"])
        codim = int(fields["codim"]) if "codim" in fields else None
        hym = float(fields.get("hym", 1))
    except KeyError as exc:
        raise ParseError(f"{what}: missing required field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc
    return SpectralRequest(dim, modes, exponent, codim, hym)


def parse_request(tokens: Sequence[str]) -> AnalysisRequest:
    """Validate analyze-style tokens into a request, or raise ParseError."""
    try:
        ns = _build_parser().parse_args(list(tokens))
    except SystemExit as exc:  # --help or --version
        raise ParseError("help or version requested, not an analyze request") from exc
    if ns.command != "analyze":
        raise ParseError(f"expected an analyze request, got {ns.command!r}")
    return _request_from_namespace(ns)


def _request_from_namespace(ns: argparse.Namespace) -> AnalysisRequest:
    lie_fields = _lie_fields(ns)
    spectral_req = _spectral_request(_parse_fields(ns.spectral, "--spectral"), "--spectral") if ns.spectral else None
    return AnalysisRequest(**lie_fields, spectral=spectral_req)


def _lie_fields(ns: argparse.Namespace) -> dict:
    """The one reader of the Lie-side flags of analyze and curvature, in this
    order: --type, --parabolic, --weight (analyze only), --kahler, --line.
    Returns AnalysisRequest's fields of the same names."""
    try:
        lie_type = SimpleLieType.from_string(ns.type)
    except InvalidTypeError as exc:
        raise ParseError(str(exc)) from exc
    rank = lie_type.rank
    fields: dict = {"lie_type": str(lie_type), "parabolic": _levi_nodes(ns.parabolic, rank)}
    if "weight" in ns:
        fields["weight"] = _split_ints(ns.weight, "--weight")
        if len(fields["weight"]) != rank:
            raise ParseError(f"--weight: expected {rank} coordinates, got {len(fields['weight'])}")
    picard = rank - len(fields["parabolic"])
    fields["kahler"] = _picard_values(ns.kahler, _split_fractions, "--kahler", picard) if ns.kahler else None
    fields["line"] = _picard_values(ns.line, _split_ints, "--line", picard) if ns.line else None
    return fields


def render_request(req: AnalysisRequest) -> list[str]:
    """Inverse of parse_request; parse_request(render_request(r)) == r.

    Values are attached as --flag=value, so a leading negative coordinate
    is not read as an option.
    """
    tokens = [
        "analyze",
        f"--type={req.lie_type}",
        "--parabolic=" + ",".join(str(n) for n in req.parabolic),
        "--weight=" + ",".join(str(c) for c in req.weight),
    ]
    if req.kahler is not None:
        tokens.append("--kahler=" + ",".join(str(c) for c in req.kahler))
    if req.line is not None:
        tokens.append("--line=" + ",".join(str(c) for c in req.line))
    if req.spectral is not None:
        s = req.spectral
        spec = f"dim={s.dim},modes={s.modes},s={s.exponent}"
        if s.codim is not None:
            spec += f",codim={s.codim}"
        if s.hym != 1.0:
            spec += f",hym={s.hym}"
        tokens.append(f"--spectral={spec}")
    return tokens


def _weight_json(w: Weight) -> list[str]:
    return [str(c) for c in w.coords]


def _parabolic_block(p: ParabolicData) -> dict:
    return {
        "levi_nodes": [i + 1 for i in p.levi_nodes],
        "picard_nodes": [i + 1 for i in p.picard_nodes],
        "levi_cartan": [list(row) for row in p.levi_cartan],
        "det_levi_cartan": str(p.levi_det),
        "phi_I_plus": [list(r) for r in p.complement_roots],
        "delta": _weight_json(p.delta),
    }


def _splitting_block(report: SplittingReport) -> dict:
    block = {
        "lambda_s": _weight_json(report.split.lambda_s),
        "lambda_c": _weight_json(report.split.lambda_c),
        "rank": report.chern.rank,
        "cramer_a": [str(a) for a in report.chern.cramer_a],
        "lambda_E": _weight_json(report.chern.lambda_E),
        "criterion": {str(beta + 1): str(v) for beta, v in sorted(report.criterion_values.items())},
        "splits": report.splits,
    }
    block["lambda_L0"] = _weight_json(report.lambda_L0) if report.lambda_L0 is not None else None
    block["lambda_E0_check"] = (
        _weight_json(report.lambda_E0_check) if report.lambda_E0_check is not None else None
    )
    return block


def _curvature_block(p: ParabolicData, kahler: KahlerClass, line: Weight | None) -> dict:
    einstein = einstein_class(p)
    psi = line if line is not None else einstein.as_weight(p)
    spectrum, traces = spectrum_and_traces(psi, kahler, p)
    try:
        block = {
            "kahler_class": [str(c) for c in kahler.coeffs],
            "einstein_class": [str(c) for c in einstein.coeffs],
            "normalization": "curvature forms carry a further 2*pi factor at report time",
            "omega_traces": {str(alpha + 1): str(t) for alpha, t in traces.items()},
            "psi": _weight_json(psi),
            "eigenvalues": {_root_label(root): str(q) for root, q in spectrum.eigenvalues.items()},
            "trace": str(spectrum.trace()),
        }
    except ValueError as exc:  # str() of a rational past the int-to-str digit limit
        raise _ReportTooLarge(str(exc)) from exc
    if line is not None:
        # psi is the line's weight here, so the trace is its mean-curvature constant
        block["hym_constant"] = block["trace"]
    return block


def _root_label(root: tuple[int, ...]) -> str:
    parts = []
    for i, m in enumerate(root):
        if m == 1:
            parts.append(f"a{i + 1}")
        elif m:
            parts.append(f"{m}a{i + 1}")
    return "+".join(parts)


def _spectral_block(req: SpectralRequest, hym_target: float | None = None, hym_flag: str = "--hym") -> dict:
    """The demo's report; its target is hym_target (from --kahler) or else req.hym (from hym_flag)."""
    torus = spectral.FlatTorus((1.0,) * req.dim)
    profile = req.profile()
    check = spectral.integrability_check(profile)
    target = req.hym if hym_target is None else hym_target
    block: dict = {
        "torus_sides": list(torus.side_lengths),
        "profile": {"codim": profile.codim, "exponent": profile.exponent},
        "integrable": {
            "finite": check.finite,
            "certificate": check.certificate,
            "tube_integral": check.tube_integral if check.certificate == "convergent" else "divergent",
        },
    }
    if not check.finite:
        return block
    f = spectral.distance_profile_coefficients(profile, torus, req.modes)
    truncations = _truncation_ladder(req.modes)
    residuals = []
    for n in truncations:
        sol = spectral.solve_weight(f, n, torus)
        residuals.append({"n": n, "residual": sol.residual_l2, "h2_norm": sol.h2_norm})
    gaps = []
    for m, n in zip(truncations, truncations[1:]):
        bound = spectral.h2_cauchy_gap(f, n, m, torus, kappa=0.0)
        gaps.append({"m": m, "n": n, "bound": bound, "gap": spectral.spectral_h2_gap(f, m, n, torus)})
    mean = f.coefficient(0) / torus.volume ** 0.5
    c0 = spectral.compatibility_constant(mean, target)
    if not math.isfinite(c0):  # the mean is finite, so 2*pi*target overflowed
        if hym_target is not None:
            raise _ReportTooLarge(f"hym target {target!r} puts c0 past float range")
        raise ParseError(f"{hym_flag}: hym {target!r} puts the target mean 2*pi*hym past float range")
    block.update(
        {
            "coeffs_head": [f.coefficient(j) for j in range(8)],
            "residuals": residuals,
            "h2_gaps": gaps,
            "hym_target": target,
            "c0": c0,
        }
    )
    return block


def _truncation_ladder(modes: int) -> list[int]:
    ladder = []
    n = 2
    while n < modes:
        ladder.append(n)
        n *= 2
    ladder.append(modes)
    return ladder


def build_analysis_report(req: AnalysisRequest) -> dict:
    rs = build_root_system(req.lie_type)
    p = build_parabolic(rs, [n - 1 for n in req.parabolic])
    splitting = splitting_report(BundleSpec(parabolic=p, highest_weight=Weight.of(*req.weight)))
    report = {
        "schema_version": SCHEMA_VERSION,
        "request": {
            "lie_type": req.lie_type,
            "parabolic": list(req.parabolic),
            "weight": list(req.weight),
        },
        "root_system": {
            "type": str(rs.lie_type),
            "rank": rs.rank,
            "positive_roots": len(rs.positive_roots),
        },
        "parabolic": _parabolic_block(p),
        "splitting": _splitting_block(splitting),
    }
    kahler = KahlerClass(req.kahler) if req.kahler is not None else None
    if kahler is not None:
        line = line_bundle_weight(req.line, p) if req.line is not None else None
        report["curvature"] = _curvature_block(p, kahler, line)
    if req.spectral is not None:
        # when the bundle splits and a Kahler class is fixed, the demo's
        # target mean is the constant mean curvature of the split-off L0
        hym_target = None
        if kahler is not None and splitting.splits:
            try:
                hym_target = float(hym_constant(splitting.lambda_L0, kahler, p))
            except OverflowError as exc:
                raise _ReportTooLarge(str(exc)) from exc
        report["spectral"] = _spectral_block(req.spectral, hym_target, "--spectral")
    return report


# ---------------------------------------------------------------------------
# Reference fixtures: the worked examples with pinned exact values.
# ---------------------------------------------------------------------------

_REFERENCE_FIXTURES: tuple[dict, ...] = (
    {
        "name": "universal-bundle-gr2c4",
        "type": "A3",
        "parabolic": (1, 3),
        "weight": (1, 0, 0),
        "expected": {
            "rank": 2,
            "cramer_a": ["1", "0"],
            "lambda_E": ["0", "-1", "0"],
            "criterion": {"2": "-1/2"},
            "splits": False,
            "lambda_L0": None,
        },
    },
    {
        "name": "spinor-bundle-q5",
        "type": "B3",
        "parabolic": (2, 3),
        "weight": (0, 0, 1),
        "expected": {
            "rank": 4,
            "cramer_a": ["2", "4"],
            "lambda_E": ["-2", "0", "0"],
            "criterion": {"1": "-1/2"},
            "splits": False,
            "lambda_L0": None,
            "levi_cartan": [[2, -2], [-1, 2]],
        },
    },
    {
        "name": "sym2-spinor-q5",
        "type": "B3",
        "parabolic": (2, 3),
        "weight": (0, 0, 2),
        "expected": {
            "rank": 10,
            "cramer_a": ["10", "20"],
            "lambda_E": ["-10", "0", "0"],
            "criterion": {"1": "-1"},
            "splits": True,
            "lambda_L0": ["-1", "0", "0"],
        },
    },
    {
        "name": "spin8-fundamental",
        "type": "D4",
        "parabolic": (1, 2),
        "weight": (1, 0, 0, 0),
        "expected": {
            "rank": 3,
            "criterion": {"3": "-1/3", "4": "-1/3"},
            "splits": False,
            "lambda_L0": None,
            "det_levi_cartan": "3",
        },
    },
    {
        "name": "spin8-adjoint-levi",
        "type": "D4",
        "parabolic": (1, 2),
        "weight": (1, 1, 0, 0),
        "expected": {
            "rank": 8,
            "criterion": {"3": "-1", "4": "-1"},
            "splits": True,
            "lambda_L0": ["0", "0", "-1", "-1"],
            "det_levi_cartan": "3",
        },
    },
)

_TANGENT_FIXTURE = {
    "name": "tangent-gr2c4",
    "type": "A3",
    "parabolic": (1, 3),
    "expected": {
        "delta": ["0", "4", "0"],
        "delta_in_simple_roots": ["2", "4", "2"],
        "degree_over_rank": "1",
        "splits": True,
    },
}


def _tangent_report() -> dict:
    rs = build_root_system(_TANGENT_FIXTURE["type"])
    p = build_parabolic(rs, [n - 1 for n in _TANGENT_FIXTURE["parabolic"]])
    delta = canonical_weight(p)
    in_simple = rs.weight_in_simple_roots(delta)
    dim = len(p.complement_roots)  # rank of the tangent bundle
    degrees = [delta[i] / dim for i in p.picard_nodes]
    return {
        "schema_version": SCHEMA_VERSION,
        "name": _TANGENT_FIXTURE["name"],
        "parabolic": _parabolic_block(p),
        "delta": _weight_json(delta),
        "delta_in_simple_roots": [str(x) for x in in_simple],
        "degree_over_rank": str(degrees[0]),
        "splits": all(d.denominator == 1 for d in degrees),
    }


def run_reference_suite() -> list[dict]:
    """Run every pinned example; raise FixtureMismatchError on any deviation."""
    reports = []
    for fixture in _REFERENCE_FIXTURES:
        req = AnalysisRequest(
            lie_type=fixture["type"],
            parabolic=fixture["parabolic"],
            weight=fixture["weight"],
        )
        report = build_analysis_report(req)
        combined = dict(report["splitting"])
        combined["levi_cartan"] = report["parabolic"]["levi_cartan"]
        combined["det_levi_cartan"] = report["parabolic"]["det_levi_cartan"]
        _check_fixture(fixture["name"], fixture["expected"], combined)
        reports.append({"name": fixture["name"], "report": report})
    tangent = _tangent_report()
    _check_fixture(
        _TANGENT_FIXTURE["name"],
        _TANGENT_FIXTURE["expected"],
        tangent,
    )
    reports.append({"name": _TANGENT_FIXTURE["name"], "report": tangent})
    return reports


def _check_fixture(name: str, expected: dict, actual: dict) -> None:
    for key, value in expected.items():
        if key not in actual:
            raise FixtureMismatchError(f"{name}: missing field {key!r}")
        if actual[key] != value:
            raise FixtureMismatchError(
                f"{name}: field {key!r} differs (expected {value!r}, got {actual[key]!r})"
            )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # one line on stderr instead of usage text
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="parabolica",
        description="Exact splitting analysis of homogeneous vector bundles on flag varieties.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, weighted: bool) -> None:
        p.add_argument("--type", required=True, help="Dynkin type, e.g. A3, B3, D4 (case-insensitive)")
        p.add_argument("--parabolic", required=True, help="Levi nodes, 1-based, e.g. 2,3 (empty: Borel)")
        if weighted:
            p.add_argument("--weight", required=True, help="highest weight coordinates, e.g. 0,0,2")

    analyze = sub.add_parser("analyze", help="splitting report for a bundle")
    common(analyze, weighted=True)
    analyze.add_argument("--kahler", help="Kahler coefficients over the Picard nodes, e.g. 1 or 1,2")
    analyze.add_argument("--line", help="line bundle degrees over the Picard nodes")
    analyze.add_argument("--spectral", help="spectral demo spec, e.g. dim=1,modes=128,s=0.25")

    curv = sub.add_parser("curvature", help="invariant curvature constants")
    common(curv, weighted=False)
    curv.add_argument("--kahler", help="Kahler coefficients (default: the Einstein class)")
    curv.add_argument("--line", help="line bundle degrees over the Picard nodes")

    spec = sub.add_parser("spectral", help="Galerkin demo for a singular profile")
    spec.add_argument("--dim", type=int, help="torus dimension (default 1)")
    spec.add_argument("--modes", type=int, help="eigenmodes to materialize (default 128)")
    spec.add_argument("--profile", required=True, help="e.g. point:s=0.25 or subtorus:s=0.4,codim=1")
    spec.add_argument("--hym", type=float, help="target mean-curvature constant (default 1)")
    spec.add_argument("--csv", action="store_true", help="residual ladder as CSV instead of JSON")

    suite = sub.add_parser("paper-suite", help="run the pinned example battery")
    suite.add_argument("--quiet", action="store_true", help="no ok <name> lines on stderr")

    dump = sub.add_parser("dump-roots", help="emit a root-system dump as JSON")
    dump.add_argument("--type", required=True)
    return parser


def _profile_request(ns: argparse.Namespace) -> SpectralRequest:
    """`spectral --profile kind:key=value,...`: the kind's rules, then the
    spectral reader; dim, modes and hym come only from their options."""
    if ":" not in ns.profile:
        raise ParseError(f"--profile: expected kind:key=value[,...], got {ns.profile!r}")
    kind, rest = ns.profile.split(":", 1)
    fields: dict[str, str | int | float] = _parse_fields(rest, "--profile")
    if kind not in ("point", "subtorus"):
        raise ParseError(f"--profile: unknown singular-set kind {kind!r}")
    if "s" not in fields:
        raise ParseError("--profile: missing exponent s")
    if kind == "point":
        fields.pop("codim", None)  # a point has codimension dim
    elif "codim" not in fields:
        raise ParseError("--profile: subtorus profiles need codim=")
    for key in ("dim", "modes", "hym"):
        fields.pop(key, None)
        if getattr(ns, key) is not None:
            fields[key] = getattr(ns, key)
    return _spectral_request(fields, "--profile")


def _emit(payload: dict | list) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False))
    sys.stdout.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(tokens)
        if ns.command == "analyze":
            req = _request_from_namespace(ns)
            _emit(build_analysis_report(req))
        elif ns.command == "curvature":
            req = _lie_fields(ns)
            p = build_parabolic(build_root_system(req["lie_type"]), [n - 1 for n in req["parabolic"]])
            kahler = KahlerClass(req["kahler"]) if req["kahler"] is not None else einstein_class(p)
            line = line_bundle_weight(req["line"], p) if req["line"] is not None else None
            _emit(_curvature_block(p, kahler, line))
        elif ns.command == "spectral":
            req = _profile_request(ns)
            block = _spectral_block(req)
            if ns.csv:
                sys.stdout.write("n,residual\n")
                for row in block.get("residuals", ()):
                    sys.stdout.write(f"{row['n']},{row['residual']!r}\n")
            else:
                _emit(block)
        elif ns.command == "paper-suite":
            try:
                reports = run_reference_suite()
            except FixtureMismatchError as exc:
                sys.stderr.write(f"fixture mismatch: {exc}\n")
                return 2
            if not ns.quiet:
                for entry in reports:
                    sys.stderr.write(f"ok {entry['name']}\n")
            _emit(reports)
        elif ns.command == "dump-roots":
            rs = build_root_system(ns.type)
            _emit(rs.to_dict())
        sys.stdout.flush()
    except SystemExit as exc:  # --help or --version
        return 0 if exc.code == 0 else 1
    except _ReportTooLarge:
        flags = " and ".join(f"--{name}" for name in ("kahler", "line") if getattr(ns, name, None))
        sys.stderr.write(f"error: {flags}: values too large or too finely divided for an exact report\n")
        return 1
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # flush at interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, IndexError, OverflowError) as exc:  # bad input, or a value past float range
        message = str(exc)
        if len(message) > _MAX_ERROR_CHARS:  # a huge flag value is echoed only in part
            message = message[: _MAX_ERROR_CHARS - 3] + "..."
        sys.stderr.write(f"error: {message}\n")
        return 1
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
