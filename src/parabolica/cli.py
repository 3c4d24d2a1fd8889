"""Command-line front end: analyze, curvature, spectral, paper-suite, dump-roots.

Conventions: simple-root nodes are 1-based Bourbaki indices on the command
line (0-based internally); weights are full-rank coordinate vectors over
the fundamental weights; every rational in a report is rendered as a
"p/q" string; reports carry a schema_version and are byte-stable for
identical requests.  Each command's flags are one table, _COMMANDS, read
by one loop, _read_flags; each flag is then read once, into the library's
validated type.  Exit codes: 0 success or help, 1 a refusal of the flags
("parabolica <command>: ...") or of a reader naming its flag, a report
value too large to carry or a closed stdout, 2 fixture mismatch, 3
a failed internal invariant or any other library fault (one "invariant
violated: ..." or "internal error: <Type>: <message>" line, no traceback).
"""
from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable, Collection, Iterable, Sequence
from fractions import Fraction
from itertools import chain
from operator import sub

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

from . import __version__, spectral
from .bundle import BundleSpec, SplittingReport, line_bundle_weight, splitting_report
from .curvature import KahlerClass, NotKahlerError, einstein_class, hym_constant, spectrum_and_traces
from .parabolic import NotDominantError, ParabolicData, build_parabolic
from .rootsys import InvalidTypeError, InvariantError, SimpleLieType, Weight, _Record, _rationals, build_root_system

SCHEMA_VERSION = "1"


class ParseError(ValueError):
    """A request refused by a reader; the message names the flag."""


class FixtureMismatchError(AssertionError):
    """A reference fixture deviated from its pinned value."""


class _ReportTooLarge(ValueError):
    """An exact value the report cannot carry: a rational past Python's
    int-to-str digit limit, or a mean-curvature target past float range.
    The arguments are the flags the value can come from; ``main`` names
    those that were given."""


# Longest message an `error:` line on stderr carries, ellipsis included.
_MAX_ERROR_CHARS = 200

# Largest torus dimension of a spectral request.  A report that is not
# square integrable builds no grid but lists one side length per dimension.
MAX_SPECTRAL_DIM = 64

_SPECTRAL_KEYS = ("s", "dim", "modes", "hym", "codim")  # the fields of `analyze --spectral`


class SpectralRequest(_Record):
    """A profile on the unit torus of its dimension, the modes to expand and the target hym."""

    __slots__ = _compared = ("profile", "modes", "hym")


def _read(flag: str, build: Callable, *args, refused: type[ValueError]):
    """``build(*args)``, the library's check of a value of ``flag``; its ``refused`` error becomes a ParseError."""
    try:
        return build(*args)
    except refused as exc:
        raise ParseError(f"{flag}: {exc}") from exc


def _split_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _split_fractions(text: str, what: str) -> tuple[Fraction, ...]:
    """Integers, p/q or plain decimals, each read by ``rootsys._rationals``."""
    try:
        return _rationals(text.split(","), what)
    except ValueError as exc:
        raise ParseError(f"{what}: expected comma-separated integers, p/q or decimals, got {text!r}") from exc


def _picard_values(text: str, parse: Callable[[str, str], tuple], what: str, count: int) -> tuple:
    """A `--kahler` or `--line` value read by ``parse``: one entry per Picard
    node.  An empty value has none, so it is refused like a short one."""
    values = parse(text, what) if text else ()
    if len(values) != count:
        raise ParseError(f"{what}: expected {count} coefficient(s) over the Picard nodes, got {len(values)}")
    return values


def _parse_fields(text: str, what: str, keys: Sequence[str]) -> dict[str, tuple[str, str]]:
    """Comma-separated key=value chunks as key -> (value, the flag ``what``);
    ParseError names a bad chunk, a key outside ``keys`` or a repeated key."""
    fields: dict[str, tuple[str, str]] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"{what}: expected key=value, got {chunk!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key not in keys:
            listed = f"{', '.join(keys[:-1])} or {keys[-1]}" if len(keys) > 1 else keys[0]
            raise ParseError(f"{what}: unknown field {key!r}; expected {listed}")
        if key in fields:
            raise ParseError(f"{what}: key {key!r} given twice")
        fields[key] = value, what
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


def _spectral_request(fields: dict[str, tuple[str, str]], what: str) -> SpectralRequest:
    """The one reader of a spectral request: ``fields`` maps each key given to
    its text and its flag, which a refusal of the value names (a default names
    ``what``).  s is required; dim, modes and hym default to 1, 128 and 1,
    codim to dim."""
    if "s" not in fields:
        raise ParseError(f"{what}: missing required field 's'")

    def read(key: str, kind: type, default: object = None) -> tuple:
        text, flag = fields.get(key, (default, what))
        try:
            return kind(text), flag
        except ValueError as exc:
            raise ParseError(f"{flag}: invalid {kind.__name__} value: {text!r}") from exc

    (dim, dim_flag), (modes, modes_flag), (exponent, _) = read("dim", int, 1), read("modes", int, 128), read("s", float)
    (codim, _), (hym, hym_flag) = read("codim", int, dim), read("hym", float, 1)
    if dim < 1:
        raise ParseError(f"{dim_flag}: dim must be at least 1, got {dim}")
    if dim > MAX_SPECTRAL_DIM:
        raise ParseError(f"{dim_flag}: dim must be at most {MAX_SPECTRAL_DIM}, got {dim}")
    if modes < 0:
        raise ParseError(f"{modes_flag}: modes must be nonnegative, got {modes}")
    if not math.isfinite(hym):
        raise ParseError(f"{hym_flag}: hym must be finite, got {hym!r}")
    if not _two_pi_finite(hym):
        raise ParseError(f"{hym_flag}: hym {hym!r} puts the target mean 2*pi*hym past float range")
    profile = _read(what, spectral.SingularProfile, dim, codim, exponent, refused=spectral._InvalidProfile)
    if profile.square_integrable:
        # only an L2 profile builds a grid and (cached) mode tables; every table is over budget once dim >= 12
        torus = spectral.FlatTorus((1.0,) * dim)
        for flag, count in ((dim_flag, 0), (modes_flag, modes)):
            _read(flag, spectral._quadrature_grid, torus, count, refused=spectral._OverBudget)
    return SpectralRequest(profile, modes, hym)


def _lie_fields(values: dict) -> dict:
    """The one reader of the Lie-side flags of analyze and curvature, in this
    order: --type, --parabolic, --weight (analyze only), --kahler, --line, as
    build_analysis_report's keyword arguments (a SimpleLieType, a KahlerClass)."""
    lie_type = _read("--type", SimpleLieType.from_string, values["type"], refused=InvalidTypeError)
    rank = lie_type.rank
    fields: dict = {"lie_type": lie_type, "parabolic": _levi_nodes(values["parabolic"], rank)}
    if "weight" in values:
        fields["weight"] = _split_ints(values["weight"], "--weight")
        if len(fields["weight"]) != rank:
            raise ParseError(f"--weight: expected {rank} coordinates, got {len(fields['weight'])}")
    picard = rank - len(fields["parabolic"])
    # only an absent flag is None: an empty --kahler= or --line= is refused
    kahler = None if "kahler" not in values else _picard_values(values["kahler"], _split_fractions, "--kahler", picard)
    fields["kahler"] = None if kahler is None else _read("--kahler", KahlerClass, kahler, refused=NotKahlerError)
    fields["line"] = None if "line" not in values else _picard_values(values["line"], _split_ints, "--line", picard)
    return fields


def _weight_json(w: Weight | None) -> list[str] | None:
    return None if w is None else [str(c) for c in w.coords]


def _parabolic_block(p: ParabolicData) -> dict:
    return {
        "levi_nodes": [i + 1 for i in p.levi_nodes],
        "picard_nodes": [i + 1 for i in p.picard_nodes],
        "levi_cartan": [list(row) for row in p.levi.cartan],
        "det_levi_cartan": str(p.levi.cartan_det),
        "phi_I_plus": [list(r) for r in p.complement_roots],
        "delta": _weight_json(p.delta),
    }


def _splitting_block(report: SplittingReport) -> dict:
    try:
        str(report.chern.rank)  # rendered later by int.__repr__, which has the same digit limit
        return {
            "lambda_s": _weight_json(report.split.lambda_s),
            "lambda_c": _weight_json(report.split.lambda_c),
            "rank": report.chern.rank,
            "cramer_a": [str(a) for a in report.chern.cramer_a],
            "lambda_E": _weight_json(report.chern.lambda_E),
            "criterion": {str(beta + 1): str(v) for beta, v in sorted(report.criterion_values.items())},
            "splits": report.splits,
            "lambda_L0": _weight_json(report.lambda_L0),
            "lambda_E0_check": _weight_json(report.lambda_E0_check),
        }
    except ValueError as exc:  # str() of an integer past the int-to-str digit limit
        raise _ReportTooLarge("weight") from exc


def _parabolic(lie_type: SimpleLieType | str, parabolic: tuple[int, ...]) -> ParabolicData:
    """The parabolic of ``lie_type`` with the 1-based Levi nodes ``parabolic``."""
    return build_parabolic(build_root_system(lie_type), [n - 1 for n in parabolic])


def _curvature_block(p: ParabolicData, kahler: KahlerClass | None, line: tuple[int, ...] | None) -> dict:
    """Curvature constants under ``kahler`` of the line of degrees ``line``, each by default the Einstein class's."""
    einstein = einstein_class(p)
    kahler = einstein if kahler is None else kahler
    psi = p.delta if line is None else line_bundle_weight(line, p)  # delta is the Einstein class's weight
    spectrum, traces = spectrum_and_traces(psi, kahler, p)
    labels = p.rs.labels
    try:
        block = {
            "kahler_class": [str(c) for c in kahler.coeffs],
            "einstein_class": [str(c) for c in einstein.coeffs],
            "normalization": "curvature forms carry a further 2*pi factor at report time",
            "omega_traces": {str(alpha + 1): str(t) for alpha, t in traces.items()},
            "psi": _weight_json(psi),
            "eigenvalues": {labels[root]: str(q) for root, q in spectrum.eigenvalues.items()},
            "trace": str(spectrum.trace()),
        }
    except ValueError as exc:  # str() of a rational past the int-to-str digit limit
        raise _ReportTooLarge("kahler", "line") from exc
    if line is not None:
        # psi is the line's weight here, so the trace is its mean-curvature constant
        block["hym_constant"] = block["trace"]
    return block


def _spectral_block(req: SpectralRequest, hym_target: float | None = None) -> dict:
    """The demo's report; its target is hym_target (the constant of lambda(L0)
    under --kahler) or else req.hym."""
    profile = req.profile
    torus = spectral.FlatTorus((1.0,) * profile.ambient_dim)
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
    rungs, pairs = spectral.galerkin_ladder(f, _truncation_ladder(req.modes), torus)
    residuals = [{"n": n, "residual": residual, "h2_norm": h2_norm} for n, residual, h2_norm in rungs]
    gaps = [{"m": m, "n": n, "bound": bound, "gap": gap} for m, n, bound, gap in pairs]
    mean = f.coefficient(0) / torus.volume ** 0.5
    block.update(
        {
            "coeffs_head": [f.coefficient(j) for j in range(8)],
            "residuals": residuals,
            "h2_gaps": gaps,
            "hym_target": target,
            "c0": spectral.compatibility_constant(mean, target),
        }
    )
    return block


def _l0_target(lambda_L0: Weight, kahler: KahlerClass, p: ParabolicData) -> float:
    """The constant of lambda(L0) under ``kahler``, a split bundle's spectral
    target.  When 2*pi times it passes float range, the error names --weight
    if 2*pi*c does for a coordinate c of lambda(L0), which it is linear in, else --kahler and --line."""
    target = hym_constant(lambda_L0, kahler, p)
    if _two_pi_finite(target):
        return float(target)
    if all(map(_two_pi_finite, lambda_L0.coords)):
        raise _ReportTooLarge("kahler", "line")
    raise _ReportTooLarge("weight")


def _two_pi_finite(x: Fraction | float) -> bool:
    """Whether 2*pi*x is a finite float, the target mean of a constant x."""
    try:
        return math.isfinite(2 * math.pi * float(x))
    except OverflowError:  # float(x) of a rational past float range
        return False


def _truncation_ladder(modes: int) -> list[int]:
    """The powers of two from 2 up to below ``modes``, then ``modes``."""
    return [1 << k for k in range(1, max(modes - 1, 0).bit_length())] + [modes]


def build_analysis_report(
    lie_type: SimpleLieType | str,
    parabolic: tuple[int, ...],
    weight: tuple[int, ...],
    kahler: KahlerClass | None = None,
    line: tuple[int, ...] | None = None,
    spectral: SpectralRequest | None = None,
) -> dict:
    """The `analyze` report; the arguments are _lie_fields' keys and the read
    `--spectral` request.  A weight not dominant for the Levi is refused naming --weight."""
    # The line's constants are taken against a Kahler class; without one
    # the report would have no curvature block to carry them.
    if line is not None and kahler is None:
        raise ParseError("--line: needs --kahler, the Kahler class its curvature constants are taken against")
    p = _parabolic(lie_type, parabolic)
    splitting = splitting_report(_read("--weight", BundleSpec, p, Weight.of(*weight), refused=NotDominantError))
    report = {
        "schema_version": SCHEMA_VERSION,
        "request": {
            "lie_type": str(p.rs.lie_type),
            "parabolic": list(parabolic),
            "weight": list(weight),
        },
        "root_system": {
            "type": str(p.rs.lie_type),
            "rank": p.rs.rank,
            "positive_roots": len(p.rs.positive_roots),
        },
        "parabolic": _parabolic_block(p),
        "splitting": _splitting_block(splitting),
    }
    if kahler is not None:
        report["curvature"] = _curvature_block(p, kahler, line)
    if spectral is not None:
        # when the bundle splits and a Kahler class is fixed, the demo's
        # target mean is the constant mean curvature of the split-off L0
        hym_target = _l0_target(splitting.lambda_L0, kahler, p) if kahler is not None and splitting.splits else None
        report["spectral"] = _spectral_block(spectral, hym_target)
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
    "weight": (1, -2, 1),  # -w_{0,I} theta, the highest weight of the tangent module
    "expected": {
        "delta": ["0", "4", "0"],
        "delta_in_simple_roots": ["2", "4", "2"],
        "degree_over_rank": "1",
        "splits": True,
    },
}


def _tangent_report() -> dict:
    """The tangent module's splitting report; its lambda(E) is c1(X), the parabolic block's root sum delta."""
    p = _parabolic(_TANGENT_FIXTURE["type"], _TANGENT_FIXTURE["parabolic"])
    report = splitting_report(BundleSpec(p, Weight.of(*_TANGENT_FIXTURE["weight"])))
    c1 = report.chern.lambda_E
    return {
        "schema_version": SCHEMA_VERSION,
        "name": _TANGENT_FIXTURE["name"],
        "parabolic": _parabolic_block(p),
        "delta": _weight_json(c1),
        "delta_in_simple_roots": [str(x) for x in p.rs.weight_in_simple_roots(c1)],
        "degree_over_rank": str(c1[p.picard_nodes[0]] / report.chern.rank),
        "splits": report.splits,
    }


def run_reference_suite() -> list[dict]:
    """Run every pinned example; raise FixtureMismatchError on any deviation."""
    reports = []
    for fixture in _REFERENCE_FIXTURES:
        report = build_analysis_report(fixture["type"], fixture["parabolic"], fixture["weight"])
        _check_fixture(fixture["name"], fixture["expected"], {**report["parabolic"], **report["splitting"]})
        reports.append({"name": fixture["name"], "report": report})
    tangent = _tangent_report()
    _check_fixture(_TANGENT_FIXTURE["name"], _TANGENT_FIXTURE["expected"], tangent)
    reports.append({"name": _TANGENT_FIXTURE["name"], "report": tangent})
    return reports


def _check_fixture(name: str, expected: dict, actual: dict) -> None:
    for key, value in expected.items():
        if key not in actual:
            raise FixtureMismatchError(f"{name}: missing field {key!r}")
        if actual[key] != value:
            raise FixtureMismatchError(f"{name}: field {key!r} differs (expected {value!r}, got {actual[key]!r})")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


_HELP = ("-h", "--help")
_TYPE = (True, True, "Dynkin type, e.g. A3, B3, D4 (case-insensitive)")
_PARABOLIC = (True, True, "Levi nodes, 1-based, e.g. 2,3 (empty: Borel)")
_LINE = (False, True, "line bundle degrees over the Picard nodes")

# Each command's summary and flags: flag -> (required, takes a value, help).
_COMMANDS: dict[str, tuple[str, dict[str, tuple[bool, bool, str]]]] = {
    "analyze": (
        "splitting report for a bundle",
        {
            "--type": _TYPE,
            "--parabolic": _PARABOLIC,
            "--weight": (True, True, "highest weight coordinates, e.g. 0,0,2"),
            "--kahler": (False, True, "Kahler coefficients over the Picard nodes, e.g. 1 or 1,2"),
            "--line": _LINE,
            "--spectral": (False, True, "spectral demo spec, e.g. dim=1,modes=128,s=0.25"),
        },
    ),
    "curvature": (
        "invariant curvature constants",
        {
            "--type": _TYPE,
            "--parabolic": _PARABOLIC,
            "--kahler": (False, True, "Kahler coefficients (default: the Einstein class)"),
            "--line": _LINE,
        },
    ),
    "spectral": (
        "Galerkin demo for a singular profile",
        {
            "--dim": (False, True, "torus dimension (default 1)"),
            "--modes": (False, True, "eigenmodes to materialize (default 128)"),
            "--profile": (True, True, "e.g. point:s=0.25 or subtorus:s=0.4,codim=1"),
            "--hym": (False, True, "target mean-curvature constant (default 1)"),
            "--csv": (False, False, "residual ladder as CSV instead of JSON"),
        },
    ),
    "paper-suite": ("run the pinned example battery", {"--quiet": (False, False, "no ok <name> lines on stderr")}),
    "dump-roots": ("emit a root-system dump as JSON", {"--type": _TYPE}),
}


def _read_flags(tokens: Sequence[str]) -> tuple[str, dict]:
    """The command of ``tokens`` and its flags, keyed by name without the
    dashes: a value flag's raw string, or True for a switch.

    A value follows its flag after `=` or is the next token, whatever that
    token is; a flag is never abbreviated, and the last of a repeated flag
    wins.  `-h`/`--help` ends the reading with ``{"help": True}``, and as the
    first token it, like `--version`, is the command.  A missing value or a
    value given to a switch is refused where it stands; an unknown flag, or
    a required one left out, once every token is read, so a later `--help`
    still gets the help.
    """
    commands = ", ".join(_COMMANDS)
    if not tokens:
        raise ParseError(f"parabolica: expected a command: {commands}")
    command = tokens[0]
    if command in _HELP:
        return command, {"help": True}
    if command == "--version":
        return command, {}
    if command not in _COMMANDS:
        raise ParseError(f"parabolica: unknown command {command!r}; expected one of {commands}")
    flags = _COMMANDS[command][1]
    values: dict = {}
    refusal = None
    rest = iter(tokens[1:])
    for token in rest:
        flag, eq, value = token.partition("=")
        if flag in _HELP and not eq:
            return command, {"help": True}
        if flag not in flags:
            refusal = refusal or f"unknown flag {flag!r}"
            continue
        if not flags[flag][1]:
            if eq:
                raise ParseError(f"parabolica {command}: {flag} takes no value")
            value = True
        elif not eq:
            value = next(rest, None)
            if value is None:
                raise ParseError(f"parabolica {command}: {flag} expects a value")
        values[flag[2:]] = value
    missing = [flag for flag, (required, _, _) in flags.items() if required and flag[2:] not in values]
    if missing and not refusal:
        refusal = f"missing required flag(s) {', '.join(missing)}"
    if refusal:
        raise ParseError(f"parabolica {command}: {refusal}")
    return command, values


def _help(command: str) -> str:
    """The `--help` text of ``command``, or of the program when it names no command, from _COMMANDS."""
    help_row = ("-h, --help", "print this help and exit")
    if command in _COMMANDS:
        about, flags = _COMMANDS[command]
        names = [f"{flag}={flag[2:].upper()}" if takes else flag for flag, (_, takes, _) in flags.items()]
        usage = " ".join(name if required else f"[{name}]" for name, (required, _, _) in zip(names, flags.values()))
        lines = [f"usage: parabolica {command} {usage}", "", about]
        sections = {"flags": [*zip(names, [text for _, _, text in flags.values()]), help_row]}
    else:
        lines = [f"usage: parabolica {{{','.join(_COMMANDS)}}} [flags]", ""]
        lines.append("Exact splitting analysis of homogeneous vector bundles on flag varieties.")
        sections = {
            "commands": [(name, about) for name, (about, _) in _COMMANDS.items()],
            "flags": [("--version", "print the version and exit"), help_row],
        }
    width = max(len(name) for rows in sections.values() for name, _ in rows) + 2
    for title, rows in sections.items():
        lines += ["", f"{title}:", *(f"  {name:<{width}}{text}" for name, text in rows)]
    return "\n".join(lines) + "\n"


def _profile_request(values: dict) -> SpectralRequest:
    """`spectral --profile kind:key=value,...`: s for a point (codimension dim), s
    and codim for a subtorus, then --dim, --modes and --hym under their own flags."""
    kind, colon, rest = values["profile"].partition(":")
    if not colon:
        raise ParseError(f"--profile: expected kind:key=value[,...], got {values['profile']!r}")
    if kind not in ("point", "subtorus"):
        raise ParseError(f"--profile: unknown singular-set kind {kind!r}")
    fields = _parse_fields(rest, "--profile", ("s",) if kind == "point" else ("s", "codim"))
    if kind == "subtorus" and "codim" not in fields:
        raise ParseError("--profile: subtorus profiles need codim=")
    fields.update((key, (values[key], f"--{key}")) for key in ("dim", "modes", "hym") if key in values)
    return _spectral_request(fields, "--profile")


def _render_json(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte, where
    ``indent`` is a newline and the spaces of the enclosing level.

    json's encoder runs in pure Python whenever ``indent`` is set; here the
    items of a list, or the values of a dict, that are all ``str``, or all
    numbers (a report's weights, nodes, rationals, coefficient lists and
    ladder rows), are rendered by one ``map`` (see _render_items).  Strings
    and keys are quoted by json's C escaper, which raises ``TypeError`` for
    a key that is not a ``str``; nan and +-inf raise json's ``ValueError``;
    any other type raises ``TypeError``.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return f"[{inner}{(',' + inner).join(_render_items(value, inner))}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = map(": ".join, zip(map(_quote, value), _render_items(value.values(), inner)))
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_items(values: Collection, indent: str) -> Iterable[str]:
    """Each of ``values`` rendered at ``indent``, by one ``map`` when all are
    ``str`` or all are exact ``int`` or finite ``float``.  Floats are checked
    only if present, by x - x: nan for nan or +-inf, and no int becomes a float.

    A list of non-empty lists of exact ``int`` (a root or a Cartan row per
    item) is rendered in one step, as one item that holds every row: its
    ``repr`` with json's separators put in.  An int past the int-to-str
    digit limit raises the ``ValueError`` that json's ``int.__repr__`` does."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(_quote, values)
    if kinds <= {int, float} and (float not in kinds or not any(map(sub, values, values))):
        return map(repr, values)
    if kinds == {list} and type(values) is list and all(values) and set(map(type, chain(*values))) == {int}:
        inner = indent + "  "
        rows = repr(values)[2:-2].replace("], [", f"{indent}],{indent}[{inner}").replace(", ", "," + inner)
        return [f"[{inner}{rows}{indent}]"]
    # any other kind, or a nan or inf, which raises json's ValueError here
    return [_render_json(item, indent) for item in values]


def _emit(payload: dict | list) -> None:
    sys.stdout.write(_render_json(payload))
    sys.stdout.write("\n")


def _clip(message: str) -> str:
    """``message``, cut to _MAX_ERROR_CHARS: a huge flag value is echoed only in part."""
    if len(message) > _MAX_ERROR_CHARS:
        return message[: _MAX_ERROR_CHARS - 3] + "..."
    return message


def main(argv: Sequence[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    values: dict = {}
    try:
        command, values = _read_flags(tokens)
        if "help" in values:
            sys.stdout.write(_help(command))
        elif command == "--version":
            sys.stdout.write(f"parabolica {__version__}\n")
        elif command == "analyze":
            fields = _lie_fields(values)
            if "spectral" in values:
                spec = _parse_fields(values["spectral"], "--spectral", _SPECTRAL_KEYS)
                fields["spectral"] = _spectral_request(spec, "--spectral")
            _emit(build_analysis_report(**fields))
        elif command == "curvature":
            fields = _lie_fields(values)
            p = _parabolic(fields["lie_type"], fields["parabolic"])
            _emit(_curvature_block(p, fields["kahler"], fields["line"]))
        elif command == "spectral":
            block = _spectral_block(_profile_request(values))
            if "csv" in values:
                sys.stdout.write("n,residual\n")
                for row in block.get("residuals", ()):
                    sys.stdout.write(f"{row['n']},{row['residual']!r}\n")
            else:
                _emit(block)
        elif command == "paper-suite":
            try:
                reports = run_reference_suite()
            except FixtureMismatchError as exc:
                sys.stderr.write(f"fixture mismatch: {exc}\n")
                return 2
            if "quiet" not in values:
                for entry in reports:
                    sys.stderr.write(f"ok {entry['name']}\n")
            _emit(reports)
        elif command == "dump-roots":
            lie_type = _read("--type", SimpleLieType.from_string, values["type"], refused=InvalidTypeError)
            _emit(build_root_system(lie_type).to_dict())
        sys.stdout.flush()
    except ParseError as exc:
        sys.stderr.write(f"error: {_clip(str(exc))}\n")
        return 1
    except _ReportTooLarge as exc:
        flags = " and ".join(f"--{name}" for name in exc.args if values.get(name))
        sys.stderr.write(f"error: {flags}: values too large or too finely divided for an exact report\n")
        return 1
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # flush at interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 3
    except Exception as exc:  # a library bug: one line that names it, no traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {_clip(' '.join(str(exc).splitlines()))}\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
