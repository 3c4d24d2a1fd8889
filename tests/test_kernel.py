"""The exact side's integer kernel against independent oracles.

* ``sympy.liealgebras`` for Cartan matrices and positive-root counts;
* the coroot identity <beta, beta^vee> = 2 for the stored coroot table;
* a second reflection closure over C_I (``oracles.levi_closure``) for the
  Levi tables ``build_parabolic`` reads off the ambient coroot table;
* ``Fraction`` reference copies of the per-call formulas the integer tables
  replaced (pairings through (beta, beta), Cramer determinants by
  elimination), compared on random parabolics and weights;
* corrupted stored tables, which must raise InvariantError under ``python -O``.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolica import (
    KahlerClass,
    Weight,
    build_root_system,
    criterion_ratios,
    endo_eigenvalues,
    linalg,
    weyl_dim,
)
from parabolica.parabolic import build_parabolic
from parabolica.rootsys import SimpleLieType, cartan_matrix, root_system_from_cartan

from conftest import cached_parabolic, cached_system
from oracles import coroot_coefficients, levi_closure, root_norms
from test_rootsys import ALL_TYPES

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Types the random parabolics are drawn from: every family, both
# non-simply-laced directions and the exceptional Levi factors.
SAMPLED_TYPES = ("A1", "A3", "A5", "B2", "B4", "C3", "C5", "D4", "D6", "G2", "F4", "E6", "E7", "E8")


# ---------------------------------------------------------------------------
# Fraction reference copies of the formulas the integer tables replaced.
# ---------------------------------------------------------------------------


def ref_pairing(cartan, e, weight: Weight, root) -> Fraction:
    """<lambda, beta^vee> = 2 (lambda, beta) / (beta, beta) in rationals,
    with e the root norms of the Cartan matrix."""
    norm = sum(
        mi * mj * cartan[i][j] * e[j] for i, mi in enumerate(root) for j, mj in enumerate(root)
    )
    num = 2 * sum((m * c * ej for m, c, ej in zip(root, weight.coords, e)), Fraction(0))
    return num / norm


def ref_weyl_dim(p, lambda_s: Weight) -> Fraction:
    """Weyl's formula over the Levi roots p stores, each pairing through
    (beta, beta) with the Levi's own root norms."""
    e = root_norms(p.levi_cartan)
    rho = Weight.of(*(1 for _ in p.levi_nodes))
    shifted = p.levi_coords(lambda_s) + rho
    dim = Fraction(1)
    for root in p.levi_coroots:
        dim *= ref_pairing(p.levi_cartan, e, shifted, root) / ref_pairing(p.levi_cartan, e, rho, root)
    return dim


def ref_criterion_ratios(p, lambda_s: Weight) -> tuple[Fraction, ...]:
    """det of C_I with its alpha-row replaced by lambda_s, over det C_I."""
    coords = [lambda_s[i] for i in p.levi_nodes]
    base = [list(row) for row in p.levi_cartan]
    denom = linalg.det(base) if base else Fraction(1)
    ratios = []
    for pos in range(len(coords)):
        replaced = [row[:] for row in base]
        replaced[pos] = coords
        ratios.append(linalg.det(replaced) / denom)
    return tuple(ratios)


def ref_endo_eigenvalues(psi: Weight, omega0: KahlerClass, p) -> dict:
    w0 = omega0.as_weight(p)
    pairing = functools.partial(ref_pairing, p.rs.cartan, root_norms(p.rs.cartan))
    return {root: pairing(psi, root) / pairing(w0, root) for root in p.complement_roots}


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def parabolics(draw):
    name = draw(st.sampled_from(SAMPLED_TYPES))
    rank = cached_system(name).rank
    levi = draw(st.sets(st.integers(0, rank - 1), max_size=rank - 1))
    return cached_parabolic(name, tuple(sorted(levi)))


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
    assert rs.cartan_det == linalg.det(rs.cartan)
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
    """build_parabolic reads the Levi tables off the ambient coroot table; a
    second closure over C_I must give the same roots and coroots in the same
    order, det C_I and adj(C_I^T).  Every Levi of the 33 types of rank <= 8
    (174 distinct C_I), and A14 in A15 and D15 in D16 past the memo rank."""
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
        if p.levi_cartan not in closures:
            closures[p.levi_cartan] = levi_closure(p)
        levi = closures[p.levi_cartan]
        assert list(p.levi_coroots.items()) == list(levi.coroots.items()), (name, nodes)
        assert (p.levi_det, p.levi_t_adjugate) == (levi.cartan_det, levi.cartan_t_adjugate), (name, nodes)
    assert len(closures) == 174 + 2


def test_tables_stay_out_of_eq_repr_and_dump():
    rs = build_root_system("B3")
    assert rs == cached_system("B3") and hash(rs) == hash(cached_system("B3"))
    assert "coroots" not in repr(rs) and "adjugate" not in repr(rs)
    assert set(rs.to_dict()) == {"type", "cartan", "positive_roots"}


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


def square_matrices(n: int):
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@KERNEL
@given(st.integers(0, 6).flatmap(square_matrices))
def test_adjugate_against_elimination(rows):
    det, adj = linalg.adjugate(rows)
    assert det == linalg.det(rows)
    if det == 0:
        assert adj == ()
        return
    n = len(rows)
    for i in range(n):
        for j in range(n):
            assert sum(rows[i][k] * adj[k][j] for k in range(n)) == (det if i == j else 0)


# ---------------------------------------------------------------------------
# Integer kernel against the Fraction reference
# ---------------------------------------------------------------------------


@KERNEL
@given(levi_weights())
def test_weyl_dim_matches_fraction_reference(case):
    p, lambda_s = case
    assert weyl_dim(p, lambda_s) == ref_weyl_dim(p, lambda_s)


@KERNEL
@given(st.data())
def test_criterion_ratios_match_fraction_reference(data):
    p = data.draw(parabolics())
    coords = [data.draw(small_fractions) if i in p.levi_nodes else 0 for i in range(p.rs.rank)]
    lambda_s = Weight(tuple(Fraction(c) for c in coords))
    assert criterion_ratios(p, lambda_s) == ref_criterion_ratios(p, lambda_s)


@KERNEL
@given(st.data())
def test_endo_eigenvalues_match_fraction_reference(data):
    p = data.draw(parabolics())
    psi = Weight(tuple(data.draw(small_fractions) for _ in range(p.rs.rank)))
    positive = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)
    omega0 = KahlerClass(tuple(data.draw(positive) for _ in p.picard_nodes))
    spectrum = endo_eigenvalues(psi, omega0, p)
    assert spectrum.eigenvalues == ref_endo_eigenvalues(psi, omega0, p)
    assert list(spectrum.eigenvalues) == list(p.complement_roots)


# ---------------------------------------------------------------------------
# Corrupted tables
# ---------------------------------------------------------------------------


def test_corrupted_tables_raise_under_optimized_mode():
    """Each corruption must be caught by an explicit raise, not an assert:
    the Cramer residual check, the residue identity, Weyl-dimension
    integrality, Kahler positivity and the C^T X = I check of a build.
    Memoized root systems are shared and read-only, so each corruption
    builds a copy of the parabolic with one corrupted table, and each build
    starts from a cleared memo."""
    script = (
        "import sys, types\n"
        "from dataclasses import replace\n"
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
        "def bump(adj):\n"
        "    return (tuple(x + 1 for x in adj[0]),) + adj[1:]\n"
        "def fresh():\n"
        "    rootsys._memoized_root_system.cache_clear()\n"
        "    return pb.build_parabolic(pb.build_root_system('B3'), [1, 2])\n"
        "spec = lambda p: pb.BundleSpec(p, pb.Weight.of(0, 0, 1))\n"
        # the stored adjugate of C_I^T gives the Cramer ratios
        "p = fresh()\n"
        "p = replace(p, levi_t_adjugate=bump(p.levi_t_adjugate))\n"
        "expect('Cramer determinants must agree', lambda: pb.splitting_report(spec(p)))\n"
        # the full system's stored inverse gives the residue identity
        "p = fresh()\n"
        "p = replace(p, rs=replace(p.rs, cartan_t_adjugate=bump(p.rs.cartan_t_adjugate)))\n"
        "expect('residue identity failed', lambda: pb.splitting_report(spec(p)))\n"
        # a wrong Levi coroot breaks Weyl-dimension integrality
        "p = fresh()\n"
        "table = dict(p.levi_coroots)\n"
        "first = next(iter(table))\n"
        "table[first] = tuple(k + 1 for k in table[first])\n"
        "p = replace(p, levi_coroots=types.MappingProxyType(table))\n"
        "expect('Weyl dimension', lambda: pb.weyl_dim(p, pb.Weight.of(0, 0, 1)))\n"
        # a negated complement coroot breaks Kahler positivity
        "table = dict(p.rs.coroots)\n"
        "root = p.complement_roots[0]\n"
        "table[root] = tuple(-k for k in table[root])\n"
        "p = replace(p, rs=replace(p.rs, coroots=types.MappingProxyType(table)))\n"
        "expect('Kahler positivity', lambda: pb.endo_eigenvalues(pb.Weight.zero(3), pb.einstein_class(p), p))\n"
        # a wrong adjugate out of the elimination is caught when the system is built
        "genuine = pb.linalg.adjugate\n"
        "pb.linalg.adjugate = lambda rows: (lambda d, a: (d, bump(a)))(*genuine(rows))\n"
        "rootsys._memoized_root_system.cache_clear()\n"
        "expect('C^T X = I', lambda: pb.build_root_system('B3'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
