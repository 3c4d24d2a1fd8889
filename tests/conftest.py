from __future__ import annotations

from functools import lru_cache

import pytest

from parabolica import build_parabolic, build_root_system


def cached_system(name: str):
    """The library memoizes root systems itself."""
    return build_root_system(name)


def dense(coeffs: dict[int, float]) -> list[float]:
    """Coefficients c_0..c_max as a list, with 0.0 at every missing index."""
    out = [0.0] * (max(coeffs, default=-1) + 1)
    for j, c in coeffs.items():
        out[j] = c
    return out


@lru_cache(maxsize=None)
def cached_parabolic(name: str, nodes: tuple[int, ...]):
    return build_parabolic(cached_system(name), nodes)


@pytest.fixture
def a3():
    return cached_system("A3")


@pytest.fixture
def b3():
    return cached_system("B3")


@pytest.fixture
def d4():
    return cached_system("D4")


@pytest.fixture
def gr2c4():
    """Grassmannian Gr_2(C^4): type A3 with Levi nodes {1, 3} (1-based)."""
    return cached_parabolic("A3", (0, 2))


@pytest.fixture
def q5():
    """Five-dimensional quadric: type B3 with Levi nodes {2, 3}."""
    return cached_parabolic("B3", (1, 2))


@pytest.fixture
def spin8():
    """Spin(8) flag variety: type D4 with Levi nodes {1, 2}."""
    return cached_parabolic("D4", (0, 1))


@pytest.fixture
def p1():
    """Projective line: type A1, Borel parabolic."""
    return cached_parabolic("A1", ())
