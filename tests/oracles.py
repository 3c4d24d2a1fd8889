"""Independent routes to values the library stores, for tests to compare
against.  None of them reads the library's coroot tables.

* ``root_norm_sq`` and ``coroot_coefficients``: (beta, beta) and beta^vee
  from the root norms, in rationals, apart from the reflection closure;
* ``delta_from_root_sum``: delta as a sum of roots rewritten one by one;
* ``levi_closure``: the Levi root system built by its own closure over
  C_I, against which the restriction in ``build_parabolic`` is checked.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from parabolica.parabolic import ParabolicData
from parabolica.rootsys import Root, RootSystem, Weight, root_system_from_cartan


def root_norm_sq(rs: RootSystem, root: Root) -> Fraction:
    """(beta, beta) = sum_ij m_i m_j C_ij e_j in the integer normalization
    fixed by root_norms."""
    return Fraction(
        sum(
            mi * mj * cij * e
            for mi, row in zip(root, rs.cartan)
            for mj, cij, e in zip(root, row, rs.root_norms)
        )
    )


def coroot_coefficients(rs: RootSystem, root: Root) -> tuple[Fraction, ...]:
    """Expansion of beta^vee over the simple coroots alpha_j^vee,
    2 m_j e_j / (beta, beta) in rationals."""
    norm = root_norm_sq(rs, root)
    return tuple(Fraction(2 * m * e, norm) for m, e in zip(root, rs.root_norms))


def delta_from_root_sum(rs: RootSystem, roots: Iterable[Root]) -> Weight:
    """delta as the sum of the given roots each rewritten as a weight."""
    total = Weight.zero(rs.rank)
    for root in roots:
        total = total + rs.root_as_weight(root)
    return total


def levi_closure(p: ParabolicData) -> RootSystem:
    """The Levi subsystem as a root system of its own, by a second reflection
    closure over the Levi Cartan matrix C_I."""
    return root_system_from_cartan(p.levi_cartan)
