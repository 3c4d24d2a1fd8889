"""The exact side's integer kernel against independent oracles.

* ``sympy.liealgebras`` for Cartan matrices and positive-root counts;
* the coroot identity <beta, beta^vee> = 2 for the stored coroot table;
* a second reflection closure over C_I (``oracles.levi_closure``) for the
  Levi tables ``build_parabolic`` reads off the ambient coroot table, and
  the Levi built eagerly from the restricted coroot table for the one a
  parabolic builds on its first read;
* the determinant's definition, Laplace expansion (``oracles.det``), for
  ``linalg.adjugate`` entry by entry through signed cofactors, for
  ``linalg.det``, and for the stored Cartan determinants; ``linalg.solve``
  by substitution into its system;
* ``Fraction`` reference copies of the per-call formulas the integer tables
  replaced (pairings through (beta, beta), Cramer determinants by Laplace
  expansion, in ``oracles``), compared on random parabolics and weights;
* ``oracles.splitting_fold``, the splitting report by ``Weight`` arithmetic,
  against the integer report, field by field and type for type;
* the ``Fraction`` fold of a root over the fundamental weights, and the
  ``Fraction`` sum of the eigenvalues, against the integer sums that
  replaced them, on every pinned type and Levi, and against
  ``hym_constant`` on random parabolics;
* the dual bundle E*, whose highest weight -w_{0,I} lambda comes from
  reflections by the Cartan rows alone: its report must match E's up to
  the signs duality predicts;
* the tangent module of each cominuscule G/P, whose rank and lambda(E)
  must be the root count dim X and the root sum -delta;
* the intersection numbers of G/P, read off Borel-Weil dimensions
  h^0(aL + bM) = dim V(a lambda + b mu), whose ratio n (L.M^(n-1)) / M^n
  must be ``hym_constant`` on every G/P of rank <= 3 and dimension <= 6;
* the weights of the Levi module by Freudenthal's multiplicity formula
  (``oracles.levi_module_weights``), whose count must be the rank and whose
  sum must be -lambda(E) on the same flag varieties;
* Dynkin diagram isomorphisms, which must relabel the report and the
  curvature eigenvalues and change nothing else;
* how many Fractions a splitting report, a mean-curvature constant and a
  spectrum build, and how many Bareiss eliminations a warm request runs;
* corrupted stored tables, which must raise InvariantError under ``python -O``.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import json
import math
import pickle
import random
import subprocess
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolica import (
    BundleSpec,
    EndomorphismSpectrum,
    FullSetNotParabolicError,
    KahlerClass,
    NotKahlerError,
    ParabolicData,
    Weight,
    build_root_system,
    criterion_ratios,
    einstein_class,
    endo_eigenvalues,
    hym_constant,
    line_bundle_weight,
    linalg,
    splitting_report,
    weyl_dim,
)
from parabolica.parabolic import build_parabolic
from parabolica.rootsys import SimpleLieType, _Record, _root_system, cartan_matrix, root_system_from_cartan

from conftest import cached_parabolic, cached_system, child_env
from oracles import (
    coroot_coefficients,
    cramer_ratios_fold,
    det,
    dual_highest_weight,
    levi_closure,
    levi_module_weights,
    pairing_fold,
    root_as_weight_fold,
    root_norms,
    splitting_fold,
    weyl_dim_fold,
)
from test_rootsys import ALL_TYPES

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Types the random parabolics are drawn from: every family, both
# non-simply-laced directions and the exceptional Levi factors.
SAMPLED_TYPES = ("A1", "A3", "A5", "B2", "B4", "C3", "C5", "D4", "D6", "G2", "F4", "E6", "E7", "E8")


# ---------------------------------------------------------------------------
# Fraction reference copies of the formulas the integer tables replaced.
# ---------------------------------------------------------------------------


def ref_endo_eigenvalues(psi: Weight, omega0: KahlerClass, p) -> dict:
    w0 = line_bundle_weight(omega0.coeffs, p)
    pairing = functools.partial(pairing_fold, p.rs.cartan, root_norms(p.rs.cartan))
    return {root: pairing(psi, root) / pairing(w0, root) for root in p.complement_roots}


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def parabolic_keys(draw):
    """(type, sorted Levi nodes) of a parabolic: built by the test that
    draws it, so collecting a module builds nothing."""
    name = draw(st.sampled_from(SAMPLED_TYPES))
    rank = cached_system(name).rank
    levi = draw(st.sets(st.integers(0, rank - 1), max_size=rank - 1))
    return name, tuple(sorted(levi))


def parabolics():
    return parabolic_keys().map(lambda key: cached_parabolic(*key))


@st.composite
def levi_weights(draw):
    """A parabolic and an integral weight supported and dominant on its Levi."""
    p = draw(parabolics())
    coords = [draw(st.integers(0, 6)) if i in p.levi_nodes else 0 for i in range(p.rs.rank)]
    return p, Weight.of(*coords)


# ---------------------------------------------------------------------------
# Outside oracle: sympy.liealgebras
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [t for t in ALL_TYPES if t != "A1"])
def test_cartan_and_root_count_match_sympy(name):
    """sympy 1.14 refuses A1 and C2; C2 is checked as the transpose of B2."""
    sympy_lie = pytest.importorskip("sympy.liealgebras.cartan_type")
    sympy_cartan = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    as_sympy, transpose = (name, False) if name != "C2" else ("B2", True)
    expected = [list(map(int, row)) for row in sympy_cartan.CartanMatrix(as_sympy).tolist()]
    if transpose:
        expected = [list(col) for col in zip(*expected)]
    assert cartan_matrix(SimpleLieType.from_string(name)) == expected
    count = len(sympy_lie.CartanType(as_sympy).positive_roots())
    assert len(cached_system(name).positive_roots) == count


# ---------------------------------------------------------------------------
# Stored tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_TYPES + ["A32", "B9", "C16", "D16"])
def test_coroot_table_rows(name):
    rs = cached_system(name)
    assert tuple(rs.coroots) == rs.positive_roots
    for root, coroot in rs.coroots.items():
        assert coroot == coroot_coefficients(rs, root)
        # <beta, beta^vee> with beta written over the fundamental weights
        assert sum(c * k for c, k in zip(rs.root_as_weight(root).coords, coroot)) == 2


@pytest.mark.parametrize("name", ALL_TYPES)
def test_stored_inverse_of_cartan_transpose(name):
    rs = cached_system(name)
    n = rs.rank
    assert rs.cartan_det == det(rs.cartan)
    for i in range(n):
        for j in range(n):
            product = sum(rs.cartan[k][i] * rs.cartan_t_adjugate[k][j] for k in range(n))
            assert product == (rs.cartan_det if i == j else 0)


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],
        [[2, -3], [-3, 2]],
        # two hyperbolic blocks: det 25 > 0, so only the root closure refuses it
        [[2, -3, 0, 0], [-3, 2, 0, 0], [0, 0, 2, -3], [0, 0, -3, 2]],
    ],
    ids=["affine", "hyperbolic", "hyperbolic-pair"],
)
def test_non_finite_cartan_is_refused(cartan):
    with pytest.raises(ValueError, match="not of finite type"):
        root_system_from_cartan(cartan)


# sha256 of (Cartan matrix, positive roots, coroot table) over the 33 types of
# rank <= 8 and then their 174 distinct Levi Cartan matrices in sorted order,
# taken from the root-string build the reflection closure replaced.
ROOT_TABLES_SHA256 = "a1ccaf07405070d6fb61c952c9e068554b6fbdc0d043c18234317c44751115cd"


def test_root_tables_are_pinned():
    systems = [cached_system(name) for name in ALL_TYPES]
    levis = set()
    for rs in systems:
        n = rs.rank
        for size in range(n):
            for nodes in combinations(range(n), size):
                levis.add(tuple(tuple(rs.cartan[i][j] for j in nodes) for i in nodes))
    assert len(levis) == 174
    systems += [root_system_from_cartan(cartan) for cartan in sorted(levis)]
    digest = hashlib.sha256()
    for rs in systems:
        digest.update(json.dumps([rs.cartan, rs.positive_roots, list(rs.coroots.items())]).encode())
    assert digest.hexdigest() == ROOT_TABLES_SHA256


def test_levi_restriction_matches_its_own_closure():
    """build_parabolic reads the Levi root system off the ambient coroot
    table; a second closure over C_I must give an equal RootSystem, with the
    same coroots in the same order, det C_I and adj(C_I^T).  Every Levi of
    the 33 types of rank <= 8 (174 distinct C_I), and A14 in A15 and D15 in
    D16, past rank 8."""
    cases = [
        (name, nodes)
        for name in ALL_TYPES
        for size in range(cached_system(name).rank)
        for nodes in combinations(range(cached_system(name).rank), size)
    ]
    cases += [("A15", tuple(range(14))), ("D16", tuple(range(1, 16)))]
    closures = {}
    for name, nodes in cases:
        p = build_parabolic(cached_system(name), nodes)
        if p.levi.cartan not in closures:
            closures[p.levi.cartan] = levi_closure(p)
        levi = closures[p.levi.cartan]
        assert p.levi == levi, (name, nodes)
        assert list(p.levi.coroots.items()) == list(levi.coroots.items()), (name, nodes)
        assert p.levi.cartan_det == levi.cartan_det, (name, nodes)
        assert p.levi.cartan_t_adjugate == levi.cartan_t_adjugate, (name, nodes)
    assert len(closures) == 174 + 2


def levi_built(p: ParabolicData) -> bool:
    """Whether p holds its Levi factor, read without building it."""
    try:
        p._levi
    except AttributeError:
        return False
    return True


def test_lazy_levi_matches_the_eager_restriction():
    """A parabolic leaves its Levi unbuilt until the first read, which builds
    it once; it must equal the Levi built eagerly, as a build used to, from
    the ambient coroot table restricted to I: the same Cartan matrix,
    positive roots and coroots in the same order, det C_I and adj(C_I^T).
    Every Levi of the 33 types of rank <= 8."""
    for name in ALL_TYPES:
        rs = cached_system(name)
        for nodes in _levi_subsets(name):
            p = build_parabolic(rs, nodes)
            assert not levi_built(p), (name, nodes)
            picard = [i for i in range(rs.rank) if i not in nodes]
            restricted = {
                tuple(root[i] for i in nodes): tuple(coroot[i] for i in nodes)
                for root, coroot in rs.coroots.items()
                if not any(root[i] for i in picard)
            }
            eager = _root_system(tuple(tuple(rs.cartan[i][j] for j in nodes) for i in nodes), coroots=restricted)
            levi = p.levi
            assert levi_built(p) and p.levi is levi, (name, nodes)
            assert levi.cartan == eager.cartan and levi.positive_roots == eager.positive_roots, (name, nodes)
            assert list(levi.coroots.items()) == list(eager.coroots.items()), (name, nodes)
            assert (levi.cartan_det, levi.cartan_t_adjugate) == (eager.cartan_det, eager.cartan_t_adjugate), (name, nodes)


def test_parabolic_records_work_before_and_after_the_levi_is_built():
    """==, hash, copy.copy and pickle give the same answers on a parabolic
    whose Levi is not built yet as after its first read; a copy or an
    unpickled parabolic has every table of the original, and a Levi built,
    and so checked, on its own first read.  Reading a name that is no field
    raises AttributeError and builds nothing."""

    def same(q: ParabolicData, p: ParabolicData) -> bool:
        tables = ("levi_roots", "picard_nodes", "complement_columns")
        levi_tables = ("cartan_det", "cartan_t_adjugate", "labels")
        return (
            q == p
            and all(getattr(q, name) == getattr(p, name) for name in tables)
            and all(getattr(q.levi, name) == getattr(p.levi, name) for name in levi_tables)
            and list(q.levi.coroots.items()) == list(p.levi.coroots.items())
        )

    for name, nodes in (("B3", (1, 2)), ("E8", (0, 2, 3, 4)), ("A3", ())):
        built = build_parabolic(cached_system(name), nodes)
        built.levi
        holds = {
            "==": lambda p: p == built and not p != built,
            "hash": lambda p: hash(p) == hash(built),
            "copy": lambda p: same(copy.copy(p), built),
            "pickle": lambda p: same(pickle.loads(pickle.dumps(p)), built),
        }
        for what, check in holds.items():
            p = build_parabolic(cached_system(name), nodes)
            with pytest.raises(AttributeError, match="'ParabolicData' object has no attribute 'not_a_field'"):
                p.not_a_field
            assert not levi_built(p), (name, what)
            assert check(p), (name, what, "before the first read")
            p.levi
            assert check(p), (name, what, "after the first read")


def test_parabolics_compare_without_building_the_levi():
    """==, hash and repr of a parabolic read its root system and Levi nodes
    only, and leave its Levi unbuilt; a copy or an unpickled parabolic is
    rebuilt from those two, so it carries no Levi even once the original's
    is built."""
    for name, nodes in (("B3", (1, 2)), ("E8", (0, 2, 3, 4)), ("A3", ())):
        p, q = (build_parabolic(cached_system(name), nodes) for _ in range(2))
        assert p == q and not p != q and hash(p) == hash(q), (name, nodes)
        assert repr(p) == f"ParabolicData(rs={p.rs!r}, levi_nodes={nodes!r})"
        assert not levi_built(p) and not levi_built(q), (name, nodes)
        p.levi
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and not levi_built(twin), (name, nodes)


# Warm requests: the same Levi with a single Picard node and with three.
LEVI_BUILD_REQUESTS = [
    (["curvature", "--type=B3", "--parabolic=2,3"], 0),
    (["curvature", "--type=B3", "--parabolic=2,3", "--line=2"], 0),
    (["curvature", "--type=E7", "--parabolic=1,3,4,5", "--kahler=1,2,1/2", "--line=1,-1,2"], 0),
    (["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2"], 1),
    (["analyze", "--type=E7", "--parabolic=1,3,4,5", "--weight=1,-1,0,1,2,-3,1", "--kahler=1,2,1/2"], 1),
]


@pytest.mark.parametrize("tokens, eliminations", LEVI_BUILD_REQUESTS)
def test_levi_is_built_only_by_requests_that_read_it(tokens, eliminations, monkeypatch, capsys):
    """A warm request, its root system memoized, runs Bareiss elimination
    (``linalg.adjugate``) only for its Levi factor: a curvature request,
    whose constants are sums over Phi_I^+ alone, never; an analyze request,
    which reads the Levi's adjugate and coroots, once."""
    from parabolica import cli

    assert cli.main(tokens) == 0
    calls = []
    genuine = linalg.adjugate
    monkeypatch.setattr(linalg, "adjugate", lambda rows: calls.append(rows) or genuine(rows))
    assert cli.main(tokens) == 0
    capsys.readouterr()
    assert len(calls) == eliminations, calls


def test_tables_stay_out_of_eq_repr_and_dump():
    rs = build_root_system("B3")
    assert rs == cached_system("B3") and hash(rs) == hash(cached_system("B3"))
    assert "coroots" not in repr(rs) and "adjugate" not in repr(rs)
    assert set(rs.to_dict()) == {"type", "cartan", "positive_roots"}
    p = build_parabolic(rs, (1, 2))
    assert p == cached_parabolic("B3", (1, 2)) and hash(p) == hash(cached_parabolic("B3", (1, 2)))
    for name in ("coroots", "cartan_det", "cartan_t_adjugate", "picard_nodes", "complement_columns"):
        assert f"{name}=" not in repr(p), name
    # a BundleSpec compares, hashes and prints its parabolic and weight, not the split it derives
    spec = BundleSpec(p, Weight.of(0, 0, 2))
    other = copy.copy(spec)
    object.__setattr__(other, "split", None)
    assert other == spec and hash(other) == hash(spec) and other.split is None
    assert spec != BundleSpec(p, Weight.of(1, 0, 2))
    assert repr(spec) == f"BundleSpec(parabolic={p!r}, highest_weight={spec.highest_weight!r})"
    # a KahlerClass by its coefficients, each made a Fraction
    omega0 = KahlerClass((1, Fraction(1, 2)))
    assert omega0 == KahlerClass((Fraction(1), Fraction(1, 2))) and omega0 != KahlerClass((1, 1))
    assert hash(omega0) == hash(KahlerClass(("1", "1/2"))) == hash(((Fraction(1), Fraction(1, 2)),))
    assert repr(omega0) == "KahlerClass(coeffs=(Fraction(1, 1), Fraction(1, 2)))"


def record_instances() -> list:
    """One instance of every record class of the package."""
    from parabolica import spectral
    from parabolica.cli import SpectralRequest

    p = cached_parabolic("B3", (1, 2))
    spec = BundleSpec(p, Weight.of(0, 0, 2))
    report = splitting_report(spec)
    omega0 = einstein_class(p)
    profile = spectral.SingularProfile(1, 1, 0.25)
    torus = spectral.FlatTorus((1.0,))
    f = spectral.SpectralFunction([1.0, 0.5, 0.25])
    return [
        p.rs.lie_type,
        spec.highest_weight,
        p.rs,
        p,
        spec.split,
        spec,
        report.chern,
        report,
        omega0,
        endo_eigenvalues(report.chern.lambda_E, omega0, p),
        SpectralRequest(profile, 8, hym=1.0),
        profile,
        spectral.integrability_check(profile),
        torus,
        torus.modes(1)[1],
        spectral._table_for(torus.side_lengths, 1),
        f,
        spectral.solve_weight(f, 2, torus),
    ]


def test_records_are_frozen():
    """Assigning or deleting a field of any record, or adding an attribute,
    raises AttributeError and leaves the record as it was."""
    records = record_instances()
    assert {type(record) for record in records} == set(_Record.__subclasses__())
    for record in records:
        fields = type(record).__slots__
        assert fields, type(record)
        for name in fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before, (type(record), name)
        with pytest.raises(AttributeError):
            record.not_a_field = None


def test_records_round_trip_through_their_constructor():
    """copy.copy, copy.deepcopy and pickle rebuild every record, through its
    constructor, equal to the original; a record holding arrays compares by
    repr, as its == is by identity or elementwise."""
    for record in record_instances():
        by_repr = any(hasattr(value, "shape") for value in record._values())
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin is not record, type(record)
            assert repr(twin) == repr(record) if by_repr else twin == record, type(record)


def test_records_compare_and_hash_or_refuse():
    """== against a deep copy returns a bool for every record, and hash()
    returns or raises TypeError: the records that hold a dict are
    unhashable, and those that hold arrays compare and hash by identity."""
    unhashable = set()
    for record in record_instances():
        twin = copy.deepcopy(record)
        assert type(record == twin) is bool and type(record != twin) is bool, type(record)
        try:
            hash(record)
        except TypeError:
            unhashable.add(type(record).__qualname__)
        if any(hasattr(value, "shape") for value in record._values()):
            assert record != twin and record == record and hash(record) == object.__hash__(record), type(record)
    assert unhashable == {"SplittingReport", "EndomorphismSpectrum"}


def test_copies_rerun_the_constructor():
    """A field that breaks its record's check, written past the constructor
    through object.__setattr__, is refused by the copy, the deep copy and
    the pickle round trip, each of which runs that check."""
    omega0 = KahlerClass((1, 2))
    object.__setattr__(omega0, "coeffs", (Fraction(1), Fraction(0)))
    p = build_parabolic(cached_system("B3"), (1, 2))
    object.__setattr__(p, "levi_nodes", (0, 1, 2))
    for record, refusal in ((omega0, NotKahlerError), (p, FullSetNotParabolicError)):
        for twin in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(refusal):
                twin(record)


# The records whose class writes no __init__: _Record writes theirs from __slots__.
PLAIN_RECORDS = {
    "RootSystem",
    "WeightSplit",
    "ChernData",
    "SplittingReport",
    "EndomorphismSpectrum",
    "SpectralRequest",
    "IntegrabilityResult",
    "TorusMode",
    "_ModeTable",
    "GalerkinSolution",
}


def test_plain_records_rebuild_from_their_slots():
    """A plain record is rebuilt from its slot values, positionally and by
    keyword, slot for slot; a missing field, an extra positional value, an
    unknown keyword and a field given twice each raise TypeError."""
    records = [r for r in record_instances() if type(r).__init__.__code__.co_filename == "<string>"]
    assert {type(record).__qualname__ for record in records} == PLAIN_RECORDS
    for record in records:
        cls = type(record)
        values = [getattr(record, name) for name in cls.__slots__]
        for rebuilt in (cls(*values), cls(**dict(zip(cls.__slots__, values)))):
            for name in cls.__slots__:
                assert getattr(rebuilt, name) is getattr(record, name), (cls, name)
            assert repr(rebuilt) == repr(record)
        init = rf"{cls.__qualname__}\.__init__\(\)"
        with pytest.raises(TypeError, match=f"{init} missing 1 required positional argument: '{cls.__slots__[-1]}'"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=f"{init} takes {len(values) + 1} positional arguments but"):
            cls(*values, None)
        with pytest.raises(TypeError, match=f"{init} got an unexpected keyword argument 'not_a_field'"):
            cls(*values, not_a_field=None)
        with pytest.raises(TypeError, match=f"{init} got multiple values for argument '{cls.__slots__[0]}'"):
            cls(*values, **{cls.__slots__[0]: values[0]})


def test_complement_columns_are_the_coroot_transpose():
    """Column i holds the i-th coefficient of each complement coroot, in
    complement_roots order: every Levi subset of the 33 types of rank <= 8."""
    for name in ALL_TYPES:
        rs = cached_system(name)
        for nodes in _levi_subsets(name):
            p = build_parabolic(rs, nodes)
            expected = tuple(zip(*[rs.coroots[root] for root in p.complement_roots]))
            assert p.complement_columns == expected, (name, nodes)
            assert len(p.complement_columns) == rs.rank


def test_pairing_negative_and_non_roots(b3):
    w = Weight.of(1, "1/2", -3)
    for root in b3.positive_roots:
        assert b3.pairing(w, tuple(-m for m in root)) == -b3.pairing(w, root)
    with pytest.raises(ValueError, match="not a root"):
        b3.pairing(w, (1, 0, 1))


@KERNEL
@given(st.lists(small_fractions, min_size=0, max_size=6))
def test_weight_cleared(coords):
    nums, denom = Weight(tuple(coords)).cleared()
    assert all(isinstance(x, int) for x in nums) and denom >= 1
    assert [Fraction(x, denom) for x in nums] == coords
    assert all(denom % Fraction(c).denominator == 0 for c in coords)


def square_matrices(n: int, entries=st.integers(-4, 4)):
    row = st.lists(entries, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


# cheaper to draw than st.fractions, which five-by-five matrices feel
matrix_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


def fraction_matrices(n: int):
    return square_matrices(n, matrix_entries)


def minor(rows, i: int, j: int) -> list[list]:
    """rows without row i and column j."""
    return [[*row[:j], *row[j + 1 :]] for k, row in enumerate(rows) if k != i]


@KERNEL
@given(st.integers(0, 6).flatmap(square_matrices))
def test_adjugate_against_cofactors(rows):
    # adj(A)_ij is the signed cofactor (-1)^(i+j) det(A without row j, column i)
    d, adj = linalg.adjugate(rows)
    assert d == det(rows)
    if d == 0:
        assert adj == ()
        return
    n = len(rows)
    assert adj == tuple(tuple((-1) ** (i + j) * det(minor(rows, j, i)) for j in range(n)) for i in range(n))


@KERNEL
@given(st.integers(0, 5).flatmap(fraction_matrices))
def test_det_against_cofactor_expansion(rows):
    d = linalg.det(rows)
    assert type(d) is Fraction and d == det(rows)


def fraction_systems(n: int):
    return st.tuples(fraction_matrices(n), st.lists(matrix_entries, min_size=n, max_size=n))


@KERNEL
@given(st.integers(0, 5).flatmap(fraction_systems))
def test_solve_satisfies_its_system(system):
    rows, rhs = system
    if det(rows) == 0:
        return
    x = linalg.solve(rows, rhs)
    assert all(type(v) is Fraction for v in x)
    assert [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows] == rhs


@KERNEL
@given(st.integers(1, 5).flatmap(fraction_matrices), matrix_entries, st.data())
def test_det_and_solve_refusals(rows, scale, data):
    n = len(rows)
    i = data.draw(st.integers(0, n - 1))
    rhs = [Fraction(1)] * n
    ragged = [row[:-1] if k == i else row for k, row in enumerate(rows)]
    with pytest.raises(ValueError, match="^square matrix required$"):
        linalg.det(ragged)
    with pytest.raises(ValueError, match="^square matrix required$"):
        linalg.solve(ragged, rhs)
    for wrong in (rhs[:-1], [*rhs, Fraction(0)]):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            linalg.solve(rows, wrong)
    # row i a multiple of another row, or zero when there is no other
    other = rows[(i + 1) % n] if n > 1 else [Fraction(0)]
    singular = [[scale * x for x in other] if k == i else row for k, row in enumerate(rows)]
    assert linalg.det(singular) == 0
    with pytest.raises(ValueError, match="^singular matrix$"):
        linalg.solve(singular, rhs)


# ---------------------------------------------------------------------------
# Integer kernel against the Fraction reference
# ---------------------------------------------------------------------------


@KERNEL
@given(levi_weights())
def test_weyl_dim_matches_fraction_reference(case):
    p, lambda_s = case
    assert weyl_dim(p, lambda_s) == weyl_dim_fold(p, lambda_s)


@KERNEL
@given(st.data())
def test_criterion_ratios_match_fraction_reference(data):
    p = data.draw(parabolics())
    coords = [data.draw(small_fractions) if i in p.levi_nodes else 0 for i in range(p.rs.rank)]
    lambda_s = Weight(tuple(Fraction(c) for c in coords))
    solution, denom = criterion_ratios(p, lambda_s)
    assert tuple(Fraction(y, denom) for y in solution) == cramer_ratios_fold(p, lambda_s)


@st.composite
def endo_cases(draw):
    """(parabolic key, psi, omega0): psi with coordinates on every node."""
    name, levi = draw(parabolic_keys())
    rank = cached_system(name).rank
    psi = Weight(tuple(draw(small_fractions) for _ in range(rank)))
    positive = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)
    omega0 = KahlerClass(tuple(draw(positive) for _ in range(rank - len(levi))))
    return (name, levi), psi, omega0


@KERNEL
@given(endo_cases())
# psi supported only on the Levi nodes
@example((("D6", (1, 2, 4)), Weight.of(0, "5/2", -3, 0, 1, 0), KahlerClass((2, "1/3", 5))))
# psi = 0
@example((("E7", (0, 3)), Weight.of(*[0] * 7), KahlerClass(("3/4", 1, 2, "5/2", 1))))
# Picard rank 3, with a short-root Levi
@example((("F4", (1,)), Weight.of("1/2", -3, 4, "-2/3"), KahlerClass(("2/3", 5, "1/4"))))
def test_endo_eigenvalues_match_fraction_reference(case):
    key, psi, omega0 = case
    p = cached_parabolic(*key)
    spectrum = endo_eigenvalues(psi, omega0, p)
    assert spectrum.eigenvalues == ref_endo_eigenvalues(psi, omega0, p)
    assert list(spectrum.eigenvalues) == list(p.complement_roots)


# Every type of rank <= 5, and G2 and F4, for the splitting-report oracle.
SPLITTING_TYPES = tuple(
    [f"A{n}" for n in range(1, 6)]
    + [f"{family}{n}" for family in "BC" for n in range(2, 6)]
    + ["D3", "D4", "D5", "G2", "F4"]
)
HUGE = 10**50


def assert_same(actual, expected, path="report"):
    """== and type for type, through records (every field in ``__slots__``,
    also those equality skips), tuples and dicts (keys in the same order)."""
    assert type(actual) is type(expected), (path, actual, expected)
    if isinstance(actual, _Record):
        for name in type(actual).__slots__:
            assert_same(getattr(actual, name), getattr(expected, name), f"{path}.{name}")
    elif isinstance(actual, tuple):
        assert len(actual) == len(expected), (path, actual, expected)
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{path}[{i}]")
    elif isinstance(actual, dict):
        assert list(actual) == list(expected), (path, actual, expected)
        for key in actual:
            assert_same(actual[key], expected[key], f"{path}[{key}]")
    else:
        assert actual == expected, (path, actual, expected)


@st.composite
def splitting_cases(draw, types=SPLITTING_TYPES):
    """(type, Levi nodes, weight): Levi coordinates 0..3, Picard -5..5."""
    name = draw(st.sampled_from(types))
    rank = cached_system(name).rank
    levi = tuple(sorted(draw(st.sets(st.integers(0, rank - 1), max_size=rank - 1))))
    coords = tuple(draw(st.integers(0, 3)) if i in levi else draw(st.integers(-5, 5)) for i in range(rank))
    return name, levi, coords


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(splitting_cases())
@example(("B3", (1, 2), (-HUGE, HUGE + 1, HUGE - 1)))
@example(("D5", (0, 2, 3), (HUGE, -3 * HUGE - 7, 2 * HUGE, HUGE + 3, 5 - HUGE)))
@example(("F4", (1, 2), (HUGE + 1, 3 * HUGE, HUGE, -HUGE)))
@example(("G2", (), (-HUGE, HUGE)))
@example(("C5", (), (1, -2, 3, -4, 5)))
def test_splitting_report_matches_weight_fold(case):
    """Every field of the integer splitting report against the Weight
    arithmetic of ``oracles.splitting_fold``: == and type for type."""
    name, levi, coords = case
    spec = BundleSpec(cached_parabolic(name, levi), Weight.of(*coords))
    assert_same(splitting_report(spec), splitting_fold(spec))


# The types of the duality oracle: every family, both non-simply-laced
# directions and the exceptional Levi factors, at rank <= 6.
DUAL_TYPES = ("A3", "B3", "C3", "D4", "G2", "F4", "E6", "B4", "C4", "A5")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(splitting_cases(DUAL_TYPES))
@example(("E6", (1, 2, 3, 4, 5), (3, 1, 0, 2, 0, 1)))
@example(("G2", (0,), (3, -2)))
def test_dual_bundle_reports_agree(case):
    """E* against E: the same rank and verdict, lambda(E*) = -lambda(E),
    criterion - lambda_c negated on each Picard node (the criterion itself
    is not) and lambda(L0*) = -lambda(L0); the dual of E* is E again."""
    name, levi, coords = case
    p = cached_parabolic(name, levi)
    dual = dual_highest_weight(p.rs.cartan, levi, coords)
    assert dual_highest_weight(p.rs.cartan, levi, dual) == coords
    report = splitting_report(BundleSpec(p, Weight.of(*coords)))
    dual_report = splitting_report(BundleSpec(p, Weight.of(*dual)))
    assert dual_report.chern.rank == report.chern.rank
    assert dual_report.chern.lambda_E.coords == tuple(-c for c in report.chern.lambda_E.coords)
    assert dual_report.splits == report.splits

    def shifted(r):
        return {beta: v - r.split.lambda_c[beta] for beta, v in r.criterion_values.items()}

    assert shifted(dual_report) == {beta: -v for beta, v in shifted(report).items()}
    if report.splits:
        assert dual_report.lambda_L0.coords == tuple(-c for c in report.lambda_L0.coords)
    else:
        assert dual_report.lambda_L0 is None


# Cominuscule (type, Picard node), 1-based: Grassmannians of A1-A5 and A7,
# the quadrics B_n/P_1 and D_n/P_1, the Lagrangian Grassmannians C_n/P_n,
# the spinor varieties D_n/P_{n-1} and D_n/P_n, the Cayley plane E6/P_1,
# E6/P_6 and the Freudenthal variety E7/P_7.
COMINUSCULE = (
    ("A1", 1), ("A2", 1), ("A3", 2), ("A4", 2), ("A5", 3), ("A7", 4),
    ("B2", 1), ("B3", 1), ("B4", 1), ("C2", 2), ("C3", 3), ("C4", 4),
    ("D4", 1), ("D4", 3), ("D4", 4), ("D5", 1), ("D5", 4), ("D5", 5), ("D6", 6),
    ("E6", 1), ("E6", 6), ("E7", 7),
)


@pytest.mark.parametrize("name, node", COMINUSCULE)
def test_cominuscule_tangent_module_gives_the_canonical_class(name, node):
    """On a cominuscule G/P the tangent bundle is the irreducible bundle of
    the highest root theta, so c1(X) = delta is read off one Levi module:
    E_theta has rank |Phi^+ minus Phi_I^+| (a Weyl product against a root
    count) and lambda(E_theta) = -delta (Cramer ratios against a root sum);
    its dual, of highest weight -w_{0,I} theta, has the same rank and
    lambda = +delta.  theta's weight comes from the Fraction fold over C."""
    rs = cached_system(name)
    levi = tuple(i for i in range(rs.rank) if i != node - 1)
    p = cached_parabolic(name, levi)
    theta = tuple(map(int, root_as_weight_fold(rs, rs.positive_roots[-1]).coords))
    dual = dual_highest_weight(rs.cartan, levi, theta)
    delta = p.delta.coords
    for coords, sign in ((theta, -1), (dual, 1)):
        chern = splitting_report(BundleSpec(p, Weight.of(*coords))).chern
        assert chern.rank == len(p.complement_roots), (name, node, coords)
        assert chern.lambda_E.coords == tuple(sign * c for c in delta), (name, node, coords)
    if (name, node) == ("A3", 2):  # Gr(2,4): the paper-suite tangent fixture
        assert dual == (1, -2, 1)
        assert splitting_report(BundleSpec(p, Weight.of(*dual))).lambda_L0 == Weight.of(0, 1, 0)


# Dynkin diagram isomorphisms (source type, target type, sigma), sigma[i]
# the target node of source node i: the A_n flip, the D_n swap of the last
# two nodes, D4 triality, the E6 flip, B2 = C2 with the nodes swapped, and
# A3 = D3 with A3's middle node as D3's branch node.
DIAGRAM_MAPS = (
    ("A3", "A3", (2, 1, 0)),
    ("A4", "A4", (3, 2, 1, 0)),
    ("D4", "D4", (0, 1, 3, 2)),
    ("D5", "D5", (0, 1, 2, 4, 3)),
    ("D4", "D4", (2, 1, 3, 0)),
    ("E6", "E6", (5, 1, 4, 3, 2, 0)),
    ("B2", "C2", (1, 0)),
    ("A3", "D3", (1, 0, 2)),
)


def relabeled(coords: tuple, sigma: tuple[int, ...]) -> tuple:
    """The coordinates with the entry of node i moved to node sigma[i]."""
    out = [None] * len(sigma)
    for i, c in zip(sigma, coords):
        out[i] = c
    return tuple(out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DIAGRAM_MAPS), st.data())
def test_diagram_symmetry_relabels_the_report(symmetry, data):
    """The report for (sigma Levi, sigma weight) is the report for (Levi,
    weight) relabeled by sigma: rank, lambda(E), the Cramer coefficients,
    the criterion, the verdict, lambda(L0), and the curvature eigenvalues of
    lambda(E) for a Kahler class moved the same way, roots relabeled."""
    source, target, sigma = symmetry
    cartan, image_cartan = cached_system(source).cartan, cached_system(target).cartan
    assert all(image_cartan[sigma[i]][sigma[j]] == row[j] for i, row in enumerate(cartan) for j in range(len(row)))
    _, levi, coords = data.draw(splitting_cases((source,)))
    p = cached_parabolic(source, levi)
    image_p = cached_parabolic(target, tuple(sorted(sigma[i] for i in levi)))
    report = splitting_report(BundleSpec(p, Weight.of(*coords)))
    image = splitting_report(BundleSpec(image_p, Weight.of(*relabeled(coords, sigma))))

    def moved(weight):
        return None if weight is None else Weight(relabeled(weight.coords, sigma))

    assert image.chern.rank == report.chern.rank
    assert image.chern.lambda_E == moved(report.chern.lambda_E)
    cramer = dict(zip(image_p.levi_nodes, image.chern.cramer_a))
    assert cramer == {sigma[alpha]: a for alpha, a in zip(levi, report.chern.cramer_a)}
    assert image.criterion_values == {sigma[beta]: v for beta, v in report.criterion_values.items()}
    assert image.splits == report.splits
    assert image.lambda_L0 == moved(report.lambda_L0)
    kahler = {beta: data.draw(st.integers(1, 4)) for beta in p.picard_nodes}
    omega0 = KahlerClass(tuple(kahler.values()))
    image_omega0 = KahlerClass(tuple(c for _, c in sorted((sigma[beta], c) for beta, c in kahler.items())))
    spectrum = endo_eigenvalues(report.chern.lambda_E, omega0, p).eigenvalues
    image_spectrum = endo_eigenvalues(image.chern.lambda_E, image_omega0, image_p).eigenvalues
    assert image_spectrum == {relabeled(root, sigma): q for root, q in spectrum.items()}


@KERNEL
@given(st.data())
def test_hym_constant_matches_eigenvalue_sum(data):
    """hym_constant, one integer dot product with the grouped coroot totals,
    against the Fraction sum of the eigenvalues it is the trace of."""
    p = data.draw(parabolics())
    line = line_bundle_weight([data.draw(small_fractions) for _ in p.picard_nodes], p)
    positive = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)
    omega0 = KahlerClass(tuple(data.draw(positive) for _ in p.picard_nodes))
    value = hym_constant(line, omega0, p)
    assert type(value) is Fraction
    assert value == sum(endo_eigenvalues(line, omega0, p).eigenvalues.values(), Fraction(0))


# Every flag variety G/P of rank <= 3 and dimension n = |Phi^+ minus Phi_I^+|
# <= 6, as (type, 0-based Levi nodes): 24 of them, among them P^1 to P^3,
# Gr(2,4), the full flags of A2, B2 = C2 and G2, and the quadric Q5 = B3/P1.
# Listed on first draw, so collecting the module builds nothing.
@functools.cache
def small_flag_varieties() -> tuple[tuple[str, tuple[int, ...]], ...]:
    return tuple(
        (name, levi)
        for name in ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3")
        for size in range(cached_system(name).rank)
        for levi in combinations(range(cached_system(name).rank), size)
        if len(cached_parabolic(name, levi).complement_roots) <= 6
    )


def borel_weil_dim(rs, coords: Sequence[int]) -> Fraction:
    """h^0(G/P, L) = dim V(lambda) by Borel-Weil: Weyl's formula over every
    positive root of G, each pairing 2 (lambda, beta) / (beta, beta) from the
    root norms, with no coroot table."""
    e = root_norms(rs.cartan)
    rho = Weight.of(*(1 for _ in coords))
    shifted = Weight.of(*(c + 1 for c in coords))
    dim = Fraction(1)
    for root in rs.positive_roots:
        dim *= pairing_fold(rs.cartan, e, shifted, root) / pairing_fold(rs.cartan, e, rho, root)
    assert dim.denominator == 1, (rs.lie_type, coords, dim)
    return dim


def intersection_ratio(p, lam: Sequence[int], mu: Sequence[int]) -> Fraction:
    """n (L.M^(n-1)) / M^n from P(a, b) = h^0(aL + bM), a polynomial of
    degree n whose top part is (aL + bM)^n / n!.  Its coefficients of b^n
    and a b^(n-1) are exact Newton forward differences at integer nodes:
    n! [b^n] P = D_b^n P(0, .)(0) and (n-1)! [a b^(n-1)] P =
    D_b^(n-1) (P(1, .) - P(0, .))(0), since every other monomial of degree
    <= n vanishes under them."""
    n = len(p.complement_roots)

    def difference(a: int, order: int) -> Fraction:
        values = [borel_weil_dim(p.rs, [a * x + b * y for x, y in zip(lam, mu)]) for b in range(order + 1)]
        return sum((-1) ** (order - b) * math.comb(order, b) * v for b, v in enumerate(values))

    return n * (difference(1, n - 1) - difference(0, n - 1)) / difference(0, n)


@st.composite
def intersection_cases(draw):
    """(type, Levi, lambda, mu, None): lambda and mu over the fundamental
    weights, 1..3 on each Picard node and 0 on the Levi."""
    name, levi = draw(st.sampled_from(small_flag_varieties()))
    rank = cached_system(name).rank
    lam = [0 if i in levi else draw(st.integers(1, 3)) for i in range(rank)]
    mu = [0 if i in levi else draw(st.integers(1, 3)) for i in range(rank)]
    return name, levi, lam, mu, None


@KERNEL
@given(intersection_cases())
# G2/B with L = omega_1 and M = omega_1 + omega_2 = rho, both nodes in the Picard group
@example(("G2", (), [1, 0], [1, 1], Fraction(149, 60)))
# the quadric Q5 = B3/P1 with M = 2L: 5 (2^4 L^5) / (2^5 L^5), with L^5 = deg Q5 = 2 cancelling
@example(("B3", (1, 2), [1, 0, 0], [2, 0, 0], Fraction(5, 2)))
# Gr(2,4) with L = M, the Pluecker class: n L^n / L^n = n = 4
@example(("A3", (0, 2), [0, 1, 0], [0, 1, 0], Fraction(4)))
# the anticanonical class delta = (2, 2) of G2/B against the Einstein class: n = 6
@example(("G2", (), [2, 2], [2, 2], Fraction(6)))
def test_hym_constant_is_a_ratio_of_intersection_numbers(case):
    """The mean-curvature constant of L under the Kahler class M is
    n (L.M^(n-1)) / M^n, read off Borel-Weil dimensions alone; L = M gives n."""
    name, levi, lam, mu, pinned = case
    p = cached_parabolic(name, levi)
    ratio = intersection_ratio(p, lam, mu)
    if pinned is not None:
        assert ratio == pinned, (name, levi, lam, mu, ratio)
    if lam == mu:
        assert ratio == len(p.complement_roots), (name, levi, lam, ratio)
    kahler = KahlerClass(tuple(mu[i] for i in p.picard_nodes))
    assert hym_constant(Weight.of(*lam), kahler, p) == ratio, (name, levi, lam, mu)


@st.composite
def levi_module_cases(draw):
    """(type, Levi, lambda, None, None): lambda 0..3 on the Levi nodes and
    -3..3 on the Picard nodes."""
    name, levi = draw(st.sampled_from(small_flag_varieties()))
    rank = cached_system(name).rank
    coords = tuple(draw(st.integers(0, 3) if i in levi else st.integers(-3, 3)) for i in range(rank))
    return name, levi, coords, None, None


@KERNEL
@given(levi_module_cases())
# Gr(2,4): the tangent module, whose weights are minus the four roots of Phi_I^+
@example(("A3", (0, 2), (1, -2, 1), 4, (0, 4, 0)))
# Q5 = B3/P1: the spinor bundle, a B2 Levi module, where roots and coroots differ
@example(("B3", (1, 2), (0, 0, 1), 4, (-2, 0, 0)))
def test_levi_module_weights_give_rank_and_first_chern_weight(case):
    """The rank is the number of weights of the Levi module, counted with
    their Freudenthal multiplicities, and lambda(E) is minus their sum:
    two readings of the module that share no formula with weyl_dim or the
    Cramer ratios."""
    name, levi, coords, pinned_rank, pinned_lambda = case
    p = cached_parabolic(name, levi)
    weights = levi_module_weights(p, coords)
    rank = sum(weights.values())
    lambda_e = tuple(-sum(m * weight[j] for weight, m in weights.items()) for j in range(p.rs.rank))
    if pinned_rank is not None:
        assert (rank, lambda_e) == (pinned_rank, pinned_lambda), (name, levi, coords)
    chern = splitting_report(BundleSpec(p, Weight.of(*coords))).chern
    assert chern.rank == rank, (name, levi, coords)
    assert chern.lambda_E == Weight.of(*lambda_e), (name, levi, coords)


@contextlib.contextmanager
def fractions_built(monkeypatch):
    """Count Fraction.__new__ calls inside the block into the yielded list."""
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(None)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        yield calls


# (type, Levi nodes, weight); each bundle splits exactly when its flag says so
BUDGET_CASES = [
    ("E8", (), (1, -2, 3, -4, 5, -6, 7, -8), True),
    ("B3", (1, 2), (0, 0, 1), False),
    ("B3", (1, 2), (-3, 0, 2), True),
    ("D8", (2, 5), (1, -2, 3, -4, 5, 6, -7, 8), False),
    ("A8", (0, 1, 2, 3), (1, 2, 3, 1, -5, 4, -3, 2), False),
    ("E7", (0, 1, 2, 3, 4, 5), (1, 0, 2, 1, 0, 3, -4), False),
    ("F4", (1, 2), (-1, 2, 0, 3), True),
]


# Fractions endo_eigenvalues builds beyond one per distinct eigenvalue
# <psi, beta^vee> / <omega0, beta^vee> over Phi_I^+.
ENDO_FRACTION_OVERHEAD = 0


@pytest.mark.parametrize("name, levi, coords, splits", BUDGET_CASES)
def test_fraction_budget(name, levi, coords, splits, monkeypatch):
    """One splitting_report builds at most the rationals its report carries,
    6 rank + |I| + |Picard|; one hym_constant one Fraction, however many
    roots Phi_I^+ has; endo_eigenvalues one per distinct eigenvalue, which
    on these maximal parabolics, with psi supported off the Levi, is one."""
    p = cached_parabolic(name, levi)
    spec = BundleSpec(p, Weight.of(*coords))
    omega0 = einstein_class(p)
    with fractions_built(monkeypatch) as calls:
        report = splitting_report(spec)
    assert report.splits is splits
    rank = p.rs.rank
    assert len(calls) <= 6 * rank + len(p.levi_nodes) + len(p.picard_nodes), len(calls)
    line = line_bundle_weight(range(1, len(p.picard_nodes) + 1), p)
    with fractions_built(monkeypatch) as calls:
        hym_constant(line, omega0, p)
    assert len(calls) <= 1, len(calls)
    w0 = line_bundle_weight(omega0.coeffs, p)
    for psi in (report.chern.lambda_E, line):
        distinct = {p.rs.pairing(psi, root) / p.rs.pairing(w0, root) for root in p.complement_roots}
        with fractions_built(monkeypatch) as calls:
            endo_eigenvalues(psi, omega0, p)
        assert len(calls) <= len(distinct) + ENDO_FRACTION_OVERHEAD, (len(calls), len(distinct))
        if len(p.picard_nodes) == 1:
            assert len(calls) <= 1, len(calls)


def _levi_subsets(name: str) -> list[tuple[int, ...]]:
    rank = cached_system(name).rank
    return [nodes for size in range(rank) for nodes in combinations(range(rank), size)]


def test_root_as_weight_matches_fraction_fold():
    """root_as_weight's integer dot products over the Cartan columns against
    the Fraction fold over its rows: every positive root of the 33 types of
    rank <= 8, and the complement-root sum of each of their Levi subsets,
    whose image is delta."""
    for name in ALL_TYPES:
        rs = cached_system(name)
        for root in rs.positive_roots:
            weight = rs.root_as_weight(root)
            assert weight == root_as_weight_fold(rs, root), (name, root)
            assert all(type(c) is Fraction for c in weight.coords)
        for nodes in _levi_subsets(name):
            p = build_parabolic(rs, nodes)
            total = tuple(map(sum, zip(*p.complement_roots)))
            assert rs.root_as_weight(total) == root_as_weight_fold(rs, total) == p.delta, (name, nodes)


def test_trace_matches_fraction_sum():
    """trace() sums integer numerators over the lcm of the eigenvalue
    denominators; the reference is the Fraction sum.  One parabolic per
    pinned Levi Cartan matrix (174), the Einstein class and a seeded Kahler
    class as omega0, the anticanonical weight and a seeded weight as psi."""
    rng = random.Random(0)
    first_with_levi = {}
    for name in ALL_TYPES:
        cartan = cached_system(name).cartan
        for nodes in _levi_subsets(name):
            first_with_levi.setdefault(tuple(tuple(cartan[i][j] for j in nodes) for i in nodes), (name, nodes))
    assert len(first_with_levi) == 174
    for name, nodes in first_with_levi.values():
        p = cached_parabolic(name, nodes)
        einstein = einstein_class(p)
        seeded = KahlerClass(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in p.picard_nodes))
        psi = Weight(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p.rs.rank)))
        for omega0 in (einstein, seeded):
            for weight in (line_bundle_weight(einstein.coeffs, p), psi):
                spectrum = endo_eigenvalues(weight, omega0, p)
                assert spectrum.trace() == sum(spectrum.eigenvalues.values(), Fraction(0)), (name, nodes)
        # the Einstein class against itself has every eigenvalue 1
        assert endo_eigenvalues(line_bundle_weight(einstein.coeffs, p), einstein, p).trace() == len(p.complement_roots)
    assert EndomorphismSpectrum({}).trace() == 0


# ---------------------------------------------------------------------------
# Corrupted tables
# ---------------------------------------------------------------------------


def test_corrupted_tables_raise_under_optimized_mode():
    """Each corruption must be caught by an explicit raise, not an assert:
    the residue identity (for a wrong Levi or ambient adjugate),
    Weyl-dimension integrality, the coroot sign and support check of the
    closure, and the C^T X = I check of a root-system build and of a Levi
    build, which runs on the first read of ``levi``.  Memoized root systems
    are shared and read-only, so each corruption builds a copy of the
    parabolic or root system with one corrupted table, or wraps the closure
    or the elimination, and each build starts from a cleared memo."""
    script = (
        "import copy, sys, types\n"
        "import parabolica as pb\n"
        "from parabolica import rootsys\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(9)\n"
        "def expect(message, run):\n"
        "    try:\n"
        "        run()\n"
        "    except pb.InvariantError as exc:\n"
        "        if message not in str(exc):\n"
        "            raise SystemExit(f'wrong invariant: {exc}')\n"
        "    else:\n"
        "        raise SystemExit(f'no InvariantError for {message}')\n"
        "def replace(record, **fields):\n"
        "    record = copy.copy(record)\n"
        "    for name, value in fields.items():\n"
        "        object.__setattr__(record, name, value)\n"
        "    return record\n"
        "def bump(adj):\n"
        "    return (tuple(x + 1 for x in adj[0]),) + adj[1:]\n"
        "def fresh():\n"
        "    rootsys._memoized_root_system.cache_clear()\n"
        "    return pb.build_parabolic(pb.build_root_system('B3'), [1, 2])\n"
        "spec = lambda p: pb.BundleSpec(p, pb.Weight.of(0, 0, 1))\n"
        # the stored adjugate of C_I^T gives the Cramer ratios, which the residue identity re-checks
        "p = fresh()\n"
        "p = replace(p, _levi=replace(p.levi, cartan_t_adjugate=bump(p.levi.cartan_t_adjugate)))\n"
        "expect('residue identity failed', lambda: pb.splitting_report(spec(p)))\n"
        # the full system's stored inverse gives the residue identity
        "p = fresh()\n"
        "p = replace(p, rs=replace(p.rs, cartan_t_adjugate=bump(p.rs.cartan_t_adjugate)))\n"
        "expect('residue identity failed', lambda: pb.splitting_report(spec(p)))\n"
        # a wrong Levi coroot breaks Weyl-dimension integrality
        "p = fresh()\n"
        "table = dict(p.levi.coroots)\n"
        "first = next(iter(table))\n"
        "table[first] = tuple(k + 1 for k in table[first])\n"
        "p = replace(p, _levi=replace(p.levi, coroots=types.MappingProxyType(table)))\n"
        "expect('Weyl dimension', lambda: pb.weyl_dim(p, pb.Weight.of(0, 0, 1)))\n"
        # a negated coroot out of the closure is caught when the system is built
        "closure = rootsys._positive_roots\n"
        "def negated(cartan):\n"
        "    table = closure(cartan)\n"
        "    root = next(r for r in table if r[0])\n"
        "    table[root] = tuple(-k for k in table[root])\n"
        "    return table\n"
        "rootsys._positive_roots = negated\n"
        "rootsys._memoized_root_system.cache_clear()\n"
        "expect('coroot must be nonnegative', lambda: pb.build_root_system('B3'))\n"
        "rootsys._positive_roots = closure\n"
        # a wrong adjugate out of the elimination is caught when the system is built
        "ambient = fresh().rs\n"
        "genuine = pb.linalg.adjugate\n"
        "pb.linalg.adjugate = lambda rows: (lambda d, a: (d, bump(a)))(*genuine(rows))\n"
        "rootsys._memoized_root_system.cache_clear()\n"
        "expect('C^T X = I', lambda: pb.build_root_system('B3'))\n"
        # and, for a Levi factor, when it is built, on its first read
        "p = pb.build_parabolic(ambient, [1, 2])\n"
        "expect('C^T X = I', lambda: p.levi)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
