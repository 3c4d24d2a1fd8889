"""The report renderer against ``json.dumps(o, indent=2, allow_nan=False)``.

``cli._render_json`` writes every report on stdout, so its bytes must be
json's for every value a report can hold, and it must refuse, not
reinterpret, anything else: nan and +-inf with json's own ``ValueError``,
a key that is not a ``str`` and a value of any other type with
``TypeError``.  json itself accepts int, float, bool and None keys; the
renderer refuses them, because no report has one.

A list of non-empty rows of exact ints (a report's roots and Cartan rows)
takes its own path, rendered in one step from the list's ``repr``; the
matrices below reach both that path and, with a bool, a float, an empty
row or a tuple row, the general one.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolica.cli import _render_json

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_ODD_TEXT = st.text(alphabet=st.sampled_from('"\\/\x00\x01\x1f\x7f\n\r\t\b\f aZé €\U0001f600\ud800'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1e16, 1e-7])
    | st.text()
    | _ODD_TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text() | _ODD_TEXT, children, max_size=5),
    max_leaves=40,
)


@KERNEL
@given(_VALUES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": [[]], "d": [{}]})
@example([True, False, 1, 0, None])
@example({"ints": [1, -2, 2**70], "strs": ["a", "\"q\"", "\\", "é"], "bools": [True, False]})
@example((1, (2, "x"), [3.5, -0.0]))
@example({"coeffs": [0.1, -0.0, 0.0, 5e-324, -1e308, 1e16, 1e-7, 2.0], "gap": (1.5,), "r": {"a": 3.25, "b": -2.5}})
def test_render_matches_json_dumps(value):
    assert _render_json(value) == json.dumps(value, indent=2, allow_nan=False)


# Past sys.get_int_max_str_digits(), where int.__repr__ raises ValueError.
_PAST_DIGIT_LIMIT = 10 ** sys.get_int_max_str_digits()
_MATRIX_INTS = (
    st.integers(-6, 6)
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
)
# Mostly non-empty rows of exact ints, as a report holds; now and then a row
# with a bool or a float in it, an empty row or a tuple row.
_ROWS = st.lists(_MATRIX_INTS, min_size=1, max_size=8) | st.one_of(
    st.lists(_MATRIX_INTS | st.booleans() | st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    st.lists(_MATRIX_INTS, max_size=4).map(tuple),
)
_MATRICES = st.lists(_ROWS, min_size=1, max_size=8)


def _bytes_or_error_class(render, value) -> tuple[str, str]:
    try:
        return "ok", render(value)
    except (TypeError, ValueError) as exc:
        return "raised", type(exc).__name__


@KERNEL
@given(_MATRICES, st.sampled_from(["bare", "in-dict", "in-list"]))
@example([[1, -2, 0], [-1, 2, -1]], "bare")
@example([[0, 1], [1, 1], [1, 2]], "in-dict")
@example([[2**64, -(2**64)], [2**200, -(2**200)]], "bare")
@example([[1, True], [0, 1]], "bare")
@example([[1, 0], [2.5, 1]], "in-dict")
@example([[1, 0], []], "bare")
@example([[]], "bare")
@example([[1, 2], (3, 4), [5]], "in-list")
@example([[1, 2], [_PAST_DIGIT_LIMIT]], "bare")
@example([[-_PAST_DIGIT_LIMIT]], "in-dict")
def test_int_matrices_render_as_json_dumps_or_raise_its_error(matrix, where):
    """Every int matrix, alone, as a report field or as a list item, renders
    as json.dumps does, or raises the same class of error (an int past the
    digit limit raises ValueError in both)."""
    value = {"bare": matrix, "in-dict": {"phi_I_plus": matrix, "d": "3"}, "in-list": [matrix, [matrix]]}[where]
    dumps = _bytes_or_error_class(lambda v: json.dumps(v, indent=2, allow_nan=False), value)
    assert _bytes_or_error_class(_render_json, value) == dumps


@pytest.mark.parametrize(
    "value",
    [
        {"n": 2, "residual": 0.125, "h2_norm": 3.5},
        {"m": 2, "n": 4, "bound": 1e-300, "gap": -0.0},
        [{"n": 0, "residual": 5e-324, "h2_norm": 0.0}, {"n": 2**70, "residual": 1e308, "h2_norm": -1e16}],
        {"n": 2, "residual": math.nan, "h2_norm": 1.0},
        {"m": 2, "n": 4, "bound": math.inf, "gap": 0.5},
        [True, 1, 2.5],
        [1, None, 2.5],
        [10**400, 0.5],
        [-(10**400), 10**400, 1e308, 7],
        [10**400, math.nan],
        [10**5000, 0.5],
    ],
    ids=["row", "gap-row", "rows", "row-nan", "row-inf", "bool-int-float", "none", "huge-int", "huge-ints",
         "huge-int-nan", "past-digit-limit"],
)
def test_number_rows_render_as_json_dumps_or_raise_its_error(value):
    try:
        expected = json.dumps(value, indent=2, allow_nan=False)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            _render_json(value)
        assert str(refused.value) == str(exc)
    else:
        assert _render_json(value) == expected


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        [1, math.inf],
        {"a": [{"b": -math.inf}]},
        ["x", math.nan],
        [0.5, math.nan, math.inf],
        (1.5, math.inf, math.nan),
        {"a": 0.25, "b": -math.inf},
    ],
    ids=["nan", "inf", "-inf", "list", "nested", "mixed", "floats-nan", "floats-inf", "floats--inf"],
)
def test_non_finite_floats_raise_json_message(value):
    with pytest.raises(ValueError) as expected:
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as refused:
        _render_json(value)
    assert str(refused.value) == str(expected.value)
    assert str(refused.value).startswith("Out of range float values are not JSON compliant: ")


@pytest.mark.parametrize(
    "value",
    [{1: "a"}, {None: 1}, {True: 1}, {1.5: 1}, {(1, 2): 3}, {"a": {2: "b"}}],
    ids=["int", "none", "bool", "float", "tuple", "nested"],
)
def test_non_str_keys_raise_type_error(value):
    with pytest.raises(TypeError):
        _render_json(value)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, b"x", 1j, object(), [Fraction(1)], {"a": frozenset()}],
    ids=["fraction", "set", "bytes", "complex", "object", "in-list", "in-dict"],
)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        _render_json(value)
