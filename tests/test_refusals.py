"""The refusal contract of the Lie-side builders, the readers of outside
rationals and the spectral inputs.

``build_root_system``, ``root_system_from_cartan``, ``build_parabolic``
and the ``ParabolicData`` constructor it calls,
``SimpleLieType.from_string``, ``fundamental_weight``, the ``Weight``
constructor, the readers of outside rationals ``Weight.of``,
``KahlerClass`` and ``line_bundle_weight``, the node of ``omega_trace``,
and on the spectral side ``FlatTorus``, ``SingularProfile``, the mode
count and grid side of ``distance_profile_coefficients``,
``SpectralFunction``, the truncation orders of ``solve_weight``,
``spectral_h2_gap``, ``h2_cauchy_gap`` and ``galerkin_ladder``, and
``compatibility_constant``, each either return, or raise from a ``raise``
statement under ``src/parabolica/``: never from inside ``int()``, ``%``,
``sorted``, ``Fraction()``, ``float()``, ``np.array`` or ``str()`` of a
huge int on the way.  The innermost traceback frame of the exception must
be such a line, and the exception must be of the class that line names.
Ranks, nodes, indices, Cartan entries, dimensions, exponents, weight
coordinates, rationals, side lengths, coefficients and mode counts are
drawn from bools, floats (nan and +-inf among them), strings, ``None``,
small ``Fraction``s and huge ints, as well as the values that build; the
arguments keep their shape (a type or its name, a list of rows, a list of
nodes).  A value that is returned must be the right one: a fundamental
weight for an index in range and a rank within the budget only, a weight
for a tuple of ints and Fractions only, ``Fraction(value)`` for an outside
rational that ``Fraction`` reads and that is no string in exponent
notation, a spectral function for finite coefficients and a finite
nonnegative real tail only, a Galerkin result for int truncation orders
only, and a finite float from ``compatibility_constant``.
"""
from __future__ import annotations

import linecache
import math
import numbers
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolica import (
    InvalidTypeError,
    KahlerClass,
    ParabolicData,
    SimpleLieType,
    Weight,
    build_parabolic,
    build_root_system,
    einstein_class,
    fundamental_weight,
    line_bundle_weight,
)
from parabolica.curvature import omega_trace
from parabolica.rootsys import MAX_CLASSICAL_RANK, root_system_from_cartan
from parabolica.spectral import (
    _MAX_GRID_POINTS,
    FlatTorus,
    SingularProfile,
    SpectralFunction,
    compatibility_constant,
    distance_profile_coefficients,
    galerkin_ladder,
    h2_cauchy_gap,
    solve_weight,
    spectral_h2_gap,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parabolica"
CONTRACT = settings(max_examples=120, deadline=None, derandomize=True, database=None)

_HUGE = st.integers(4000, 5000).flatmap(lambda k: st.sampled_from([10**k, -(10**k), 10**k + 1]))
_ODD = (
    st.booleans()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e300, -0.0, 2.0, 2.5])
    | st.text(max_size=3)
    | st.none()
    | st.fractions(max_denominator=4)
    | _HUGE
)


def _returns_or_refuses(build, *args):
    """build(*args), or None once its refusal has passed the contract."""
    try:
        return build(*args)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        path = Path(tb.tb_frame.f_code.co_filename).resolve()
        line = linecache.getline(str(path), tb.tb_lineno).strip()
        where = f"{path.name}:{tb.tb_lineno}: {line}"
        assert path.parent == PACKAGE and line.startswith("raise "), (type(exc).__name__, where)
        named = line[len("raise ") :].split("(")[0]
        assert type(exc).__name__ == named, (type(exc).__name__, where)
        return None


# Ranks that build stay at 8 or below, since a cold build of rank 32 takes
# about 0.1 s; ranks past every range are drawn too.
_RANKS = st.integers(-2, 8) | st.sampled_from([33, 40, 10**9]) | _ODD


@CONTRACT
@given(st.sampled_from("ABCDEFGH") | st.text(max_size=2), _RANKS)
@example("A", "3")
@example("A", "%.0s")  # a string that % formats to "", which is falsy
@example("B", 10**5000)
@example("E", None)
def test_simple_types_build_or_refuse_from_a_raise(family, rank):
    _returns_or_refuses(lambda: build_root_system(SimpleLieType(family, rank)))


@CONTRACT
@given(st.text(max_size=6) | _RANKS)
@example("E 8")
@example("A" + "9" * 5000)
@example(3)
def test_type_names_build_or_refuse_from_a_raise(name):
    _returns_or_refuses(build_root_system, name)


@CONTRACT
@given(st.text(max_size=4) | _ODD | st.lists(st.integers(), max_size=2))
@example(3)
@example(b"B3")
@example(" g2 ")
def test_type_names_parse_or_refuse_from_a_raise(text):
    _returns_or_refuses(SimpleLieType.from_string, text)


def test_type_names_must_be_strings():
    with pytest.raises(InvalidTypeError, match="must be a str such as 'B3', got int"):
        SimpleLieType.from_string(3)


# Ranks over the budget are drawn from 33 and from 2^64 up, never such as
# 10^9: with the budget dropped, that would allocate 8 GB of coordinates,
# while a rank of 2^64 or more fails at once.
_WEIGHT_RANKS = st.integers(-1, 8) | st.sampled_from([MAX_CLASSICAL_RANK, MAX_CLASSICAL_RANK + 1, 2**64]) | _ODD


@CONTRACT
@given(_WEIGHT_RANKS, st.integers(-3, 10) | _ODD)
@example(3, 9)
@example(3, -1)
@example(3, True)
@example(3, 1.0)
@example(10**5000, 0)
@example(33, 0)
@example(32, 31)
def test_fundamental_weights_build_or_refuse_from_a_raise(rank, index):
    weight = _returns_or_refuses(fundamental_weight, rank, index)
    if type(rank) is type(index) is int and 0 <= index < rank <= MAX_CLASSICAL_RANK:
        assert weight.coords == tuple(int(i == index) for i in range(rank))
    else:
        assert weight is None, (rank, index)


_COORDINATES = st.lists(st.integers(-3, 3) | _ODD, max_size=4)


@CONTRACT
@given(_COORDINATES)
@example([0, 0, 2.5])
@example(["a"])
@example([True])
@example([Fraction(1, 2), -(10**5000)])
def test_weights_build_or_refuse_from_a_raise(coords):
    """A tuple of ints and Fractions builds a weight whose pairings can be
    read; a list, or any other coordinate, a bool among them, is refused."""
    for given_coords in (tuple(coords), coords):
        weight = _returns_or_refuses(Weight, given_coords)
        accepted = type(given_coords) is tuple and all(type(c) in (int, Fraction) for c in coords)
        assert (weight is not None) == accepted, coords
        assert weight is None or (weight.coords is given_coords and len(weight.cleared()[0]) == len(coords))


@CONTRACT
@given(_COORDINATES)
@example(["x"])
@example(["1/2", "9" * 5000])
@example([math.nan, 1])
@example([None])
def test_weight_tokens_read_or_refuse_from_a_raise(tokens):
    weight = _returns_or_refuses(Weight.of, *tokens)
    if weight is not None:
        assert all(type(c) is Fraction for c in weight.coords) and weight.coords == tuple(map(Fraction, tokens))


_P = build_parabolic(build_root_system("B3"), [1])  # Picard nodes 0 and 2
_READERS = {
    "Weight.of": lambda value: Weight.of(value, 0).coords[0],
    "KahlerClass": lambda value: KahlerClass((value, 1)).coeffs[0],
    "line_bundle_weight": lambda value: line_bundle_weight((value, 0), _P).coords[0],
}
_OUTSIDE = st.sampled_from(["x", "1/0", "1e3", "1E-3", math.nan, math.inf, -math.inf, None, "9" * 5000, 10**400])


@pytest.mark.parametrize("reader", sorted(_READERS))
@CONTRACT
@given(_OUTSIDE | st.integers(-3, 3) | st.sampled_from(["1/2", " -0.5 ", "3_0"]) | _ODD)
@example("1e3")
@example("1E-3")
@example("1/0")
@example(Fraction(1, 2))
def test_outside_rationals_read_or_refuse_from_a_raise(reader, value):
    """A weight coordinate, a Kahler coefficient or a line degree reads as
    Fraction(value), a Fraction as itself; a string with an e is refused
    before a Fraction is built, and so is every value Fraction refuses, or
    a Kahler coefficient that is not positive."""
    read = _returns_or_refuses(_READERS[reader], value)
    try:
        expected = None if isinstance(value, str) and "e" in value.lower() else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        expected = None
    if reader == "KahlerClass" and expected is not None and expected <= 0:
        expected = None
    assert read == expected and (read is None or type(read) is Fraction), (reader, value, read)
    assert type(value) is not Fraction or read is None or read is value, (reader, value)


def test_exponent_notation_is_refused_by_every_reader():
    for reader in _READERS.values():
        for token in ("1e3", "1E-3", "2e0"):
            with pytest.raises(ValueError, match=r"as a rational: a str with an e is refused \(exponent notation\)"):
                reader(token)


def test_fundamental_weight_rank_must_be_an_integer():
    for rank in ("3", 3.0, True, None):
        with pytest.raises(TypeError, match="rank must be an integer"):
            fundamental_weight(rank, 0)


_ENTRIES = st.sampled_from([2, 0, -1, -2, -3]) | _ODD
_CARTANS = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=max(n - 1, 0), max_size=n + 1), min_size=n, max_size=n)
)


@CONTRACT
@given(_CARTANS)
@example([[2, -1], [-1, 2]])
@example([[2, "-1"], [-1, 2]])
@example([[2, -(10**5000)], [-1, 2]])
@example([[2, None], [None, 2]])
def test_cartan_matrices_build_or_refuse_from_a_raise(cartan):
    _returns_or_refuses(root_system_from_cartan, cartan)


class _UnreadMatrix:
    """A Cartan matrix of rank 10^9 whose rows must not be read."""

    def __len__(self):
        return 10**9

    def __getitem__(self, i):
        raise AssertionError("a row was read past the rank budget")


def test_ranks_over_the_budget_are_refused_before_the_matrix_is_read():
    """A custom Cartan matrix of rank 33, a valid one of type A33 among
    them, is refused as its simple type is, before any row is read."""
    a33 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(33)] for i in range(33)]
    for cartan in (a33, _UnreadMatrix()):
        with pytest.raises(ValueError, match=f"rank {len(cartan)} is over the rank budget {MAX_CLASSICAL_RANK}"):
            root_system_from_cartan(cartan)
    with pytest.raises(ValueError, match="fundamental weight rank a int too large to print is over the rank budget"):
        fundamental_weight(10**5000, 0)


def test_huge_fractions_are_refused_from_a_raise():
    # not an @example: hypothesis takes the repr of its examples, which a huge Fraction refuses
    huge = Fraction(-(10**5000) - 1, 2)
    _returns_or_refuses(root_system_from_cartan, [[2, huge], [-1, 2]])
    _returns_or_refuses(lambda: SimpleLieType("A", huge))
    _returns_or_refuses(build_parabolic, build_root_system("A3"), [huge])



def test_decimals_are_refused_as_non_reals():
    """A rank, Cartan entry or node must be a ``numbers.Real``; a
    ``Decimal`` is not registered as one, so even a whole one is refused,
    with the builder's own exception."""
    with pytest.raises(InvalidTypeError, match="must be an integer, got Decimal"):
        SimpleLieType("A", Decimal(3))
    with pytest.raises(ValueError, match=r"entry \(1, 2\) must be an integer"):
        root_system_from_cartan([[2, Decimal(-1)], [-1, 2]])
    with pytest.raises(IndexError, match="index 0 out of range"):
        build_parabolic(build_root_system("A3"), [Decimal(0)])
    for build, args in (
        (lambda: SimpleLieType("A", Decimal("Infinity")), ()),
        (root_system_from_cartan, ([[2, Decimal("sNaN")], [-1, 2]],)),
        (build_parabolic, (build_root_system("A3"), [Decimal("NaN")])),
    ):
        _returns_or_refuses(build, *args)


_SYSTEMS = ("A3", "B3", "G2", "D4", "levi of D4", "custom A2")


def _system(name: str):
    if name == "levi of D4":  # carries no label table
        return build_parabolic(build_root_system("D4"), [0, 1]).levi
    if name == "custom A2":
        return root_system_from_cartan([[2, -1], [-1, 2]])
    return build_root_system(name)


@CONTRACT
@given(st.sampled_from(_SYSTEMS), st.lists(st.integers(-2, 5) | _ODD, max_size=5))
@example("A3", [0, 2])
@example("A3", ["1", 0])
@example("B3", [10**5000])
@example("levi of D4", [True, 1.0])
@example("G2", [[0]])
def test_parabolics_build_or_refuse_from_a_raise(system, nodes):
    for build in (build_parabolic, ParabolicData):
        _returns_or_refuses(build, _system(system), nodes)


def test_parabolic_nodes_are_sorted_and_deduplicated():
    rs = build_root_system("B3")
    for nodes in ((2, 0), [0, 2, 2, 0.0]):
        p = ParabolicData(rs, nodes)
        assert p.levi_nodes == (0, 2) and p == build_parabolic(rs, [0, 2]), nodes


_DIMENSIONS = st.integers(-1, 4) | _ODD


@CONTRACT
@given(_DIMENSIONS, _DIMENSIONS, st.floats() | _ODD)
@example("a", 1, 0.25)
@example(2, 1, 10**5000)
@example(2, "1", 0.25)
def test_singular_profiles_build_or_refuse_from_a_raise(ambient_dim, codim, exponent):
    _returns_or_refuses(SingularProfile, ambient_dim, codim, exponent)


@CONTRACT
@given(st.integers(-2, 70) | _ODD)
@example(2.5)
@example(63)
@example(True)
def test_mode_counts_are_refused_from_a_raise(n):
    """On a 64-point grid, so every accepted count is cheap."""
    _returns_or_refuses(distance_profile_coefficients, SingularProfile(1, 1, 0.25), FlatTorus((1.0,)), n, 64)


@CONTRACT
@given(st.integers(-2, 70) | _ODD)
@example(2.5)
@example(True)
@example("a")
@example(-(10**5000))
def test_grid_sides_are_refused_from_a_raise(points_per_axis):
    """An explicit grid side is an int, a bool among them refused, and an
    absent one is the default; 5 points are the fewest that carry 4 modes."""
    f = _returns_or_refuses(
        distance_profile_coefficients, SingularProfile(1, 1, 0.25), FlatTorus((1.0,)), 4, points_per_axis
    )
    accepted = points_per_axis is None or type(points_per_axis) is int and 4 < points_per_axis <= _MAX_GRID_POINTS
    assert (f is not None) == accepted, points_per_axis


@CONTRACT
@given(st.lists(st.floats() | _ODD, max_size=3))
@example(["a"])
@example([10**400])
@example([1j])
@example(["1.5", Fraction(1, 3), 2])
def test_torus_sides_build_or_refuse_from_a_raise(sides):
    """A side is read as float() reads it, strings among them, or refused
    from a raise: a value float() refuses, and then any side not positive,
    finite and within the range a mode table can serve."""
    torus = _returns_or_refuses(FlatTorus, sides)
    assert torus is None or torus.side_lengths == tuple(map(float, sides)), sides


@CONTRACT
@given(st.integers(-2, 4) | _ODD)
@example(10**5000)
@example(False)
@example(2.0)
def test_omega_trace_nodes_are_read_or_refused_from_a_raise(alpha):
    """Only an int Picard node has an omega-trace; any other node is
    refused, a huge one named without printing it."""
    trace = _returns_or_refuses(omega_trace, alpha, einstein_class(_P), _P)
    assert (trace is not None) == (type(alpha) is int and alpha in _P.picard_nodes), alpha


def test_a_huge_node_is_named_without_printing_it():
    with pytest.raises(ValueError, match="^node a int too large to print is not a Picard generator$"):
        omega_trace(10**5000, einstein_class(_P), _P)


_COEFFICIENTS = st.lists(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e200, 5e-324]), max_size=4)


@CONTRACT
@given(_COEFFICIENTS, st.floats() | _ODD)
@example([math.nan], 0.0)
@example([1.0, -math.inf], 0.0)
@example([1.0], math.nan)
@example([1.0], -1.0)
@example([1.0], "a")
@example([1.0], Fraction(1, 3))
@example([0.0, 1e200], 0.0)  # whose tails_sq overflows: refused where it is read
def test_spectral_functions_build_or_refuse_from_a_raise(coeffs, tail_sq):
    f = _returns_or_refuses(SpectralFunction, coeffs, tail_sq)
    real_tail = isinstance(tail_sq, numbers.Real) and 0 <= tail_sq <= sys.float_info.max
    assert (f is not None) == (all(map(math.isfinite, coeffs)) and real_tail), (coeffs, tail_sq)
    assert f is None or (f.coeffs.tolist() == coeffs and f.tail_sq == float(tail_sq)), (coeffs, tail_sq)


@CONTRACT
@given(st.lists(st.floats(allow_nan=False) | _ODD, max_size=4))
@example(["a"])
@example([10**400])
@example([1.0, 1j])
@example([[1.0], [1.0, 2.0]])
@example(["1.5", Fraction(1, 3), True])
def test_odd_coefficients_build_or_refuse_from_a_raise(coeffs):
    """Coefficients that are not floats, strings among them, huge ints and
    None (read as nan), are refused from a raise, or read as float()
    reads them."""
    f = _returns_or_refuses(SpectralFunction, coeffs)
    if f is not None:
        assert f.coeffs.tolist() == [float(c) for c in coeffs], coeffs


_ORDERS = st.integers(-2, 5) | _ODD


@CONTRACT
@given(_ORDERS, _ORDERS)
@example(2.5, 0)
@example("a", 0)
@example(0, "a")
@example(True, 0)
@example(10**5000, 0)
def test_truncation_orders_are_refused_from_a_raise(n, m):
    """Every call that takes a truncation order refuses one that is not an
    int, a bool among them, with a TypeError; an int order returns or is
    refused as before."""
    f, torus = SpectralFunction([1.0, 0.5, 0.25, 0.125]), FlatTorus((1.0,))
    for call, args, orders in (
        (solve_weight, (f, n, torus), (n,)),
        (spectral_h2_gap, (f, m, n, torus), (m, n)),
        (h2_cauchy_gap, (f, n, m, torus), (n, m)),
        (galerkin_ladder, (f, [m, n], torus), (m, n)),
    ):
        if all(type(k) is int for k in orders):
            _returns_or_refuses(call, *args)
        else:
            with pytest.raises(TypeError, match="^truncation order must be an integer, got "):
                call(*args)
            assert _returns_or_refuses(call, *args) is None, (call.__name__, n, m)


_MEANS = st.floats() | st.integers(-(10**6), 10**6) | _ODD


@CONTRACT
@given(_MEANS, _MEANS)
@example(math.nan, 1.0)
@example(1.0, math.inf)
@example(-1e308, 1e308)
@example(0.5, Fraction(1, 3))
def test_compatibility_constants_are_finite_or_refused_from_a_raise(mean, hym):
    shift = _returns_or_refuses(compatibility_constant, mean, hym)
    assert shift is None or math.isfinite(shift), (mean, hym, shift)
