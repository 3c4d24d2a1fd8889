"""Parabolic data attached to a subset of simple roots.

A standard parabolic is named by the set of simple roots spanning its Levi
factor.  The structure precomputed here is everything the splitting
criterion needs: the Levi Cartan submatrix (with its own root system,
which carries det C_I and the adjugate of C_I^T), the complementary
positive roots, and their sum delta, which is the anticanonical weight of
the flag variety.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .rootsys import InvariantError, Root, RootSystem, Weight, root_system_from_cartan


class FullSetNotParabolicError(ValueError):
    """The full simple-root set gives a point, not a flag variety."""


class NotDominantError(ValueError):
    """A weight coordinate on the Levi nodes is negative."""


@dataclass(frozen=True)
class ParabolicData:
    rs: RootSystem
    levi_nodes: tuple[int, ...]
    levi_cartan: tuple[tuple[int, ...], ...]
    levi_system: RootSystem
    complement_roots: tuple[Root, ...]
    delta: Weight

    @property
    def levi_det(self) -> int:
        """det C_I, stored on the Levi's root system when it was built."""
        return self.levi_system.cartan_det

    @property
    def picard_nodes(self) -> tuple[int, ...]:
        """Nodes outside the Levi; they index the Picard group generators."""
        inside = set(self.levi_nodes)
        return tuple(i for i in range(self.rs.rank) if i not in inside)

    def levi_coords(self, weight: Weight) -> Weight:
        """Coordinates of a weight over the Levi's own fundamental weights."""
        return Weight(tuple(weight[i] for i in self.levi_nodes))


@dataclass(frozen=True)
class WeightSplit:
    lambda_s: Weight
    lambda_c: Weight


def build_parabolic(rs: RootSystem, levi_nodes: Iterable[int]) -> ParabolicData:
    """Assemble ParabolicData for the subset I of simple-root indices (0-based)."""
    nodes = tuple(sorted(set(levi_nodes)))
    for i in nodes:
        if not 0 <= i < rs.rank:
            raise IndexError(f"simple-root index {i} out of range for rank {rs.rank}")
    if len(nodes) == rs.rank:
        raise FullSetNotParabolicError("I must be a proper subset of the simple roots")

    inside = set(nodes)
    levi_cartan = tuple(tuple(rs.cartan[i][j] for j in nodes) for i in nodes)
    levi_system = root_system_from_cartan(levi_cartan)
    complement = tuple(
        root for root in rs.positive_roots if any(m and i not in inside for i, m in enumerate(root))
    )
    # delta = (sum of the complement roots) written over the fundamental weights
    delta = rs.root_as_weight(tuple(map(sum, zip(*complement))))
    if any(delta[i] != 0 for i in nodes):
        raise InvariantError(f"delta must vanish on the Levi nodes {nodes} of {rs.lie_type}: delta {delta}")
    return ParabolicData(
        rs=rs,
        levi_nodes=nodes,
        levi_cartan=levi_cartan,
        levi_system=levi_system,
        complement_roots=complement,
        delta=delta,
    )


def delta_from_root_sum(rs: RootSystem, roots: Iterable[Root]) -> Weight:
    """delta as the sum of the given roots each rewritten as a weight; the
    test oracle for the value build_parabolic stores."""
    total = Weight.zero(rs.rank)
    for root in roots:
        total = total + rs.root_as_weight(root)
    return total


def is_dominant_for_levi(weight: Weight, p: ParabolicData) -> bool:
    return all(weight[i] >= 0 for i in p.levi_nodes)


def decompose_weight(weight: Weight, p: ParabolicData) -> WeightSplit:
    """Split an integral weight into its Levi-dominant part and its character part."""
    if not weight.is_integral:
        raise ValueError("integral weight required")
    if not is_dominant_for_levi(weight, p):
        raise NotDominantError("weight is not dominant for the Levi factor")
    lambda_s = weight.restricted(p.levi_nodes)
    lambda_c = weight - lambda_s
    if lambda_c != weight.restricted(p.picard_nodes):
        raise InvariantError(f"lambda_c must be the weight {weight} off the Levi nodes {p.levi_nodes}")
    return WeightSplit(lambda_s=lambda_s, lambda_c=lambda_c)
