from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from parabolica import (
    InvalidTypeError,
    KahlerClass,
    SimpleLieType,
    Weight,
    build_root_system,
    fundamental_weight,
    positive_root_count,
)
from parabolica.rootsys import cartan_matrix, root_system_from_cartan

from conftest import cached_system
from oracles import combine, coroot_coefficients, det, root_norm_sq, root_norms

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_counts(name):
    rs = cached_system(name)
    assert len(rs.positive_roots) == positive_root_count(rs.lie_type)


def test_cartan_matrix_a3(a3):
    assert a3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    roots = {r for r in a3.positive_roots}
    assert roots == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}


def test_cartan_matrix_b3(b3):
    assert b3.cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


def test_cartan_matrix_d4(d4):
    assert d4.cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    assert len(d4.positive_roots) == 12


def test_rank_one():
    a1 = cached_system("A1")
    assert a1.cartan == ((2,),)
    assert a1.positive_roots == ((1,),)


@pytest.mark.parametrize(
    "name, expected",
    [("B2", 4), ("G2", 6), ("F4", 24), ("C3", 9)],
)
def test_non_simply_laced_counts(name, expected):
    assert len(cached_system(name).positive_roots) == expected


@pytest.mark.parametrize("name", ALL_TYPES)
def test_symmetrizers(name):
    rs = cached_system(name)
    n = rs.rank
    e = root_norms(rs.cartan)
    for i in range(n):
        for j in range(n):
            assert rs.cartan[i][j] * e[j] == rs.cartan[j][i] * e[i]
    assert all(x >= 1 for x in e)


def test_symmetrizer_values():
    # minimal per component: long roots of B3 and F4 carry 2, short ones 1
    assert root_norms(cached_system("B3").cartan) == (2, 2, 1)
    assert root_norms(cached_system("C3").cartan) == (1, 1, 2)
    assert root_norms(cached_system("F4").cartan) == (2, 2, 1, 1)
    assert root_norms(cached_system("G2").cartan) == (1, 3)
    assert root_norms(((2, 0, 0), (0, 2, -2), (0, -1, 2))) == (1, 2, 1)  # A1 x B2


def test_pairing_fundamental_vs_simple():
    for name in ("A4", "B3", "C3", "D4", "F4", "G2"):
        rs = cached_system(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                simple_root = tuple(int(k == j) for k in range(rs.rank))
                value = rs.pairing(fundamental_weight(rs.rank, i), simple_root)
                assert value == (1 if i == j else 0)


def test_pairing_examples(a3, b3):
    # non-simple root in the simply laced case: the coroot of a1+a2+a3 is
    # the plain sum of simple coroots, so pairing with w2 picks out m2 = 1
    assert a3.pairing(fundamental_weight(3, 1), (1, 1, 1)) == 1
    assert b3.pairing(fundamental_weight(3, 0), (1, 0, 0)) == 1
    assert a3.pairing(Weight.of(0, 4, 0), (0, 1, 0)) == 4


def test_pairing_short_roots_use_coroots(b3):
    # (1,1,1) is the short root; its coroot doubles against long fw vectors
    assert b3.pairing(fundamental_weight(3, 0), (1, 1, 1)) == 2
    assert b3.pairing(fundamental_weight(3, 2), (1, 1, 1)) == 1


def test_pairing_and_numerators_check_the_rank(b3):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        b3.pairing(Weight.of(1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        b3.pairing(Weight.of(1, 0, 0), (1, 0))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        b3.simple_root_numerators((1, 0))


def test_root_as_weight_rows(a3):
    for i in range(3):
        assert a3.root_as_weight(tuple(int(k == i) for k in range(3))).coords == a3.cartan[i]
    assert a3.root_as_weight((1, 1, 1)).coords == (1, 0, 1)
    a1 = cached_system("A1")
    assert a1.root_as_weight((1,)).coords == (2,)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_sum_is_twice_weyl_vector(name):
    rs = cached_system(name)
    total = combine(*((1, rs.root_as_weight(root)) for root in rs.positive_roots))
    assert total == Weight.of(*[2] * rs.rank)  # rho has every coordinate 1


@pytest.mark.parametrize("name", ["A3", "B4", "C3", "D5", "F4", "G2", "E6"])
def test_pairing_times_norm_identity(name):
    """pairing(l, b) * (b, b) == 2 (l, b), both sides via independent routes."""
    rs = cached_system(name)
    rng = random.Random(20240817)
    gram = [
        [rs.cartan[i][j] * root_norms(rs.cartan)[j] for j in range(rs.rank)] for i in range(rs.rank)
    ]
    for _ in range(25):
        weight = Weight.of(*(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank)))
        root = rng.choice(rs.positive_roots)
        lhs = rs.pairing(weight, root) * root_norm_sq(rs, root)
        in_simple = rs.weight_in_simple_roots(weight)
        rhs = 2 * sum(
            in_simple[i] * root[j] * gram[i][j] for i in range(rs.rank) for j in range(rs.rank)
        )
        assert lhs == rhs


@pytest.mark.parametrize("name", ["B3", "C4", "F4", "G2"])
def test_coroot_coefficients_are_integers(name):
    rs = cached_system(name)
    for root in rs.positive_roots:
        assert all(c.denominator == 1 for c in coroot_coefficients(rs, root))


def test_positive_roots_sorted_by_height(b3):
    heights = [sum(r) for r in b3.positive_roots]
    assert heights == sorted(heights)
    assert b3.positive_roots == tuple(sorted(b3.positive_roots, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize(
    "bad",
    ["B1", "C1", "D2", "E5", "E9", "F5", "G3", "H3", "A0", "xyz"],
)
def test_invalid_types(bad):
    with pytest.raises(InvalidTypeError):
        build_root_system(bad)


def test_unknown_family_is_refused():
    """The parser admits only the letters A-G; the constructor checks the
    family itself."""
    with pytest.raises(InvalidTypeError, match="^unknown family 'H'$"):
        SimpleLieType("H", 3)


@pytest.mark.parametrize(
    "rank", [2.5, Fraction(5, 2), float("nan"), float("inf")], ids=["float", "fraction", "nan", "infinite"]
)
def test_fractional_rank_is_refused(rank):
    """2.5 would pass 1 <= rank <= 32, and range() refuse it later."""
    with pytest.raises(InvalidTypeError, match=f"^rank of type A must be an integer, got {re.escape(repr(rank))}$"):
        SimpleLieType("A", rank)


def test_integral_rank_is_stored_as_an_int(capsys):
    """True and 2.0 are stored as 1 and 2, so a type built from either is
    memoized under its own name, and a later A1 request prints A1."""
    from parabolica import cli, rootsys

    rootsys._memoized_root_system.cache_clear()
    assert type(SimpleLieType("A", 2.0).rank) is int
    assert str(build_root_system(SimpleLieType("A", True)).lie_type) == "A1"
    assert build_root_system(SimpleLieType("A", 2.0)) is build_root_system("A2")
    assert cli.main(["dump-roots", "--type=A1"]) == 0
    assert '"type": "A1"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "cartan, message",
    [
        ([[2, -1], [-1]], "Cartan matrix must be square"),
        ([[2, -1], []], "Cartan matrix must be square"),
        ([[2, -1], [-1, 1]], "Cartan diagonal must be 2"),
        ([[2, 1], [-1, 2]], "off-diagonal Cartan entries must be <= 0"),
        ([[2, -1], [0, 2]], "Cartan zero pattern must be symmetric"),
        # int() would read both as A2's -1
        ([[2, -1.9], [-1, 2]], r"Cartan entry \(1, 2\) must be an integer, got -1.9"),
        ([[2, Fraction(-3, 2)], [-1, 2]], r"Cartan entry \(1, 2\) must be an integer, got -3/2"),
        ([[2, -1], [float("-inf"), 2]], r"Cartan entry \(2, 1\) must be an integer, got -inf"),
    ],
    ids=["square", "square-empty-row", "diagonal", "sign", "zero-pattern", "float", "fraction", "infinite"],
)
def test_malformed_cartan_is_refused(cartan, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        root_system_from_cartan(cartan)


def test_integral_cartan_values_are_read_as_integers():
    rs = root_system_from_cartan([[2.0, -1.0], [Fraction(-1), 2]])
    assert rs.cartan == ((2, -1), (-1, 2)) and all(type(x) is int for row in rs.cartan for x in row)
    assert len(rs.positive_roots) == 3


def test_classical_ranks_have_one_budget():
    from parabolica.rootsys import MAX_CLASSICAL_RANK as top

    assert top >= 9  # the largest rank any test or benchmark builds
    for family in "ABCD":
        assert SimpleLieType(family, top).rank == top  # no build, only the check
        with pytest.raises(InvalidTypeError, match=f"rank {top + 1} out of range for type {family}"):
            build_root_system(f"{family}{top + 1}")


def test_parser_case_insensitive():
    assert SimpleLieType.from_string("b3") == SimpleLieType("B", 3)
    assert SimpleLieType.from_string(" e8 ") == SimpleLieType("E", 8)
    assert str(SimpleLieType.from_string("g2")) == "G2"


def test_d3_equals_a3_count():
    assert len(cached_system("D3").positive_roots) == 6


def test_to_dict_shape(b3):
    dump = b3.to_dict()
    assert set(dump) == {"type", "cartan", "positive_roots"}
    assert dump["type"] == "B3"
    assert dump["cartan"] == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert [1, 2, 2] in dump["positive_roots"]


def test_cartan_matrix_determinants_positive():
    for name in ALL_TYPES:
        assert det(cartan_matrix(SimpleLieType.from_string(name))) > 0


def test_weight_predicates():
    w = Weight.of(1, "-1/2")
    assert w.coords == (1, Fraction(-1, 2))
    assert not w.is_integral and Weight.of(2, -1).is_integral
    assert w.restricted([0]).coords == (1, 0)


def test_records_of_different_classes_are_unequal():
    """Equality reads the fields only between records of one class."""
    assert Weight.of(1)._values() == KahlerClass((1,))._values()
    assert Weight.of(1) != KahlerClass((1,)) and not Weight.of(1) == KahlerClass((1,))


def test_positive_root_count_check_raises_invariant_error(monkeypatch):
    from parabolica import InvariantError, rootsys

    monkeypatch.setattr(rootsys, "positive_root_count", lambda t: 99)
    rootsys._memoized_root_system.cache_clear()  # the check runs when a system is built
    with pytest.raises(InvariantError, match="positive-root count of G2: enumerated 6, expected 99"):
        build_root_system("G2")


# ---------------------------------------------------------------------------
# The root-system memo
# ---------------------------------------------------------------------------


def test_root_system_is_built_once():
    assert build_root_system("E8") is build_root_system("E8")
    assert build_root_system("e8") is build_root_system(SimpleLieType("E", 8))


def test_every_rank_is_built_once():
    """No rank is built afresh: A9, past the old cap, and A32, the top of the
    rank budget, are memoized like E8."""
    assert build_root_system("A9") is build_root_system("A9")
    assert build_root_system("A32") is build_root_system(SimpleLieType("A", 32))


def test_memo_holds_one_entry_per_type():
    """The memo is keyed by the simple type: the 33 types of rank <= 8 and
    their maximal parabolics fill it with 33 entries, and A9 adds one."""
    from parabolica import build_parabolic, rootsys

    rootsys._memoized_root_system.cache_clear()
    for name in ALL_TYPES:
        rs = build_root_system(name)
        for drop in range(rs.rank):
            build_parabolic(rs, [i for i in range(rs.rank) if i != drop])
    assert rootsys._memoized_root_system.cache_info().currsize == len(ALL_TYPES) == 33
    assert build_root_system("A9") is build_root_system("A9")
    assert rootsys._memoized_root_system.cache_info().currsize == 34


def test_cached_tables_are_read_only():
    rs = build_root_system("B3")
    with pytest.raises(TypeError):
        rs.coroots[(1, 0, 0)] = (0, 0, 0)
    assert rs.coroots[(1, 0, 0)] == (1, 0, 0)
