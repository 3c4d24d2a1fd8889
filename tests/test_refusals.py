"""The refusal contract of the Lie-side builders.

``build_root_system``, ``root_system_from_cartan`` and ``build_parabolic``
each either return, or raise from a ``raise`` statement under
``src/parabolica/``: never from inside ``int()``, ``%``, ``sorted`` or
``str()`` of a huge int on the way.  The innermost traceback frame of the
exception must be such a line, and the exception must be of the class that
line names.  Ranks, nodes and Cartan entries are drawn from bools, floats
(nan and +-inf among them), strings, ``None``, small ``Fraction``s and
huge ints, as well as the values that build; the arguments keep their
shape (a type or its name, a list of rows, a list of nodes).
"""
from __future__ import annotations

import linecache
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolica import InvalidTypeError, SimpleLieType, build_parabolic, build_root_system
from parabolica.rootsys import root_system_from_cartan

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


def _returns_or_refuses(build, *args) -> None:
    try:
        build(*args)
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
    _returns_or_refuses(build_parabolic, _system(system), nodes)
