from __future__ import annotations

import pytest

from parabolica import (
    FullSetNotParabolicError,
    NotDominantError,
    Weight,
    build_parabolic,
    decompose_weight,
    is_dominant_for_levi,
)

from conftest import cached_parabolic, cached_system
from oracles import combine, delta_from_root_sum, det

SMALL_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + ["E6", "F4", "G2"]
)


def proper_subsets(rank):
    for mask in range(2**rank - 1):
        yield tuple(i for i in range(rank) if mask >> i & 1)


def test_gr2c4_complement(gr2c4):
    assert set(gr2c4.complement_roots) == {(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)}
    assert gr2c4.delta.coords == (0, 4, 0)
    # delta as a root-coefficient vector is 2a1 + 4a2 + 2a3
    assert gr2c4.rs.weight_in_simple_roots(gr2c4.delta) == (2, 4, 2)
    assert gr2c4.picard_nodes == (1,)


def test_q5_levi_cartan(q5):
    assert q5.levi.cartan == ((2, -2), (-1, 2))
    assert len(q5.complement_roots) == 5
    assert q5.delta.coords == (5, 0, 0)


def test_borel_p1(p1):
    assert p1.levi.cartan == ()
    assert det(p1.levi.cartan) == 1
    assert p1.complement_roots == ((1,),)
    assert p1.delta.coords == (2,)


def test_spin8_levi_determinant(spin8):
    assert spin8.levi.cartan == ((2, -1), (-1, 2))
    assert det(spin8.levi.cartan) == 3


def test_full_set_rejected(a3):
    with pytest.raises(FullSetNotParabolicError):
        build_parabolic(a3, [0, 1, 2])


def test_index_out_of_range(a3):
    with pytest.raises(IndexError):
        build_parabolic(a3, [0, 3])
    with pytest.raises(IndexError):
        build_parabolic(a3, [-1])


@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "F4", "G2"])
def test_complement_plus_levi_count(name):
    rs = cached_system(name)
    for nodes in proper_subsets(rs.rank):
        p = cached_parabolic(name, nodes)
        assert len(p.complement_roots) + len(p.levi.coroots) == len(
            rs.positive_roots
        )


@pytest.mark.parametrize("name", ["A4", "B3", "D4", "G2"])
def test_delta_signs(name):
    rs = cached_system(name)
    for nodes in proper_subsets(rs.rank):
        p = cached_parabolic(name, nodes)
        for i in p.levi_nodes:
            assert p.delta[i] == 0
        for j in p.picard_nodes:
            assert p.delta[j] > 0


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "D4", "G2", "F4"])
def test_borel_delta_is_twice_rho(name):
    rs = cached_system(name)
    p = cached_parabolic(name, ())
    assert p.delta == Weight.of(*[2] * rs.rank)  # rho has every coordinate 1


def test_delta_cached_equals_recomputed(q5, gr2c4, spin8):
    for p in (q5, gr2c4, spin8):
        assert p.delta == delta_from_root_sum(p.rs, p.complement_roots)


def test_decompose_universal(gr2c4):
    split = decompose_weight(Weight.of(1, 0, 0), gr2c4)
    assert split.lambda_s.coords == (1, 0, 0)
    assert split.lambda_c.is_zero


def test_decompose_spinor_square(q5):
    split = decompose_weight(Weight.of(0, 0, 2), q5)
    assert split.lambda_s.coords == (0, 0, 2)
    assert split.lambda_c.is_zero


def test_decompose_mixed(gr2c4):
    split = decompose_weight(Weight.of(1, 1, 1), gr2c4)
    assert split.lambda_s.coords == (1, 0, 1)
    assert split.lambda_c.coords == (0, 1, 0)


def test_decompose_reassembles_and_is_idempotent(gr2c4):
    weight = Weight.of(2, -3, 1)
    split = decompose_weight(weight, gr2c4)
    assert combine((1, split.lambda_s), (1, split.lambda_c)) == weight
    again_s = decompose_weight(split.lambda_s, gr2c4)
    assert again_s.lambda_s == split.lambda_s and again_s.lambda_c.is_zero
    again_c = decompose_weight(split.lambda_c, gr2c4)
    assert again_c.lambda_c == split.lambda_c and again_c.lambda_s.is_zero


def test_decompose_rejects_non_dominant(gr2c4):
    with pytest.raises(NotDominantError):
        decompose_weight(Weight.of(-1, 0, 0), gr2c4)


def test_decompose_rejects_non_integral(gr2c4):
    with pytest.raises(ValueError):
        decompose_weight(Weight.of("1/2", 0, 0), gr2c4)


def test_dominance_predicate(gr2c4):
    assert is_dominant_for_levi(Weight.of(1, 0, 0), gr2c4)
    # the sign off the Levi nodes is unconstrained
    assert is_dominant_for_levi(Weight.of(0, -1, 0), gr2c4)
    assert not is_dominant_for_levi(Weight.of(-1, 0, 0), gr2c4)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_levi_subsystem_is_finite_type(name):
    rs = cached_system(name)
    for nodes in proper_subsets(rs.rank):
        p = cached_parabolic(name, nodes)
        if p.levi.cartan:
            assert det(p.levi.cartan) > 0


def test_delta_check_raises_invariant_error(monkeypatch):
    from parabolica import InvariantError, RootSystem

    # build_parabolic rewrites the summed complement roots as a weight
    monkeypatch.setattr(RootSystem, "root_as_weight", lambda self, root: Weight.of(1, 1, 1))
    message = r"delta must vanish on the Levi nodes \(1, 2\) of B3: delta \(1, 1, 1\)"
    with pytest.raises(InvariantError, match=message):
        build_parabolic(cached_system("B3"), [1, 2])
