"""Parabolic data attached to a subset of simple roots.

A standard parabolic is named by the set I of simple roots spanning its
Levi factor.  The structure precomputed here is everything the splitting
criterion needs: the Levi factor as a ``RootSystem`` of its own (the Levi
Cartan submatrix C_I with det C_I, the adjugate of C_I^T and the Levi
coroot table), the complementary positive roots, and their sum delta,
which is the anticanonical weight of the flag variety.  The coroots of the
complementary roots are also stored column by column, one column per node,
for the curvature pairings.

Each table is checked once, here: the adjugate by ``_inverse_transpose``,
delta by its vanishing on I, and the coroot columns, so that every Kahler
pairing <omega0, beta^vee> is positive, by having no negative entry and a
positive sum over the Picard nodes for every root.

The Levi subsystem is read off the ambient root system by restriction, with
no second root closure: its positive roots are the ambient positive roots
supported on I, and their coroots are the ambient coroots, which are
supported on I too.
"""
from __future__ import annotations

from collections.abc import Iterable

from .rootsys import InvariantError, RootSystem, Weight, _Record, _root_system


class FullSetNotParabolicError(ValueError):
    """The full simple-root set gives a point, not a flag variety."""


class NotDominantError(ValueError):
    """A weight coordinate on the Levi nodes is negative."""


class ParabolicData(_Record):
    """Parabolic for the Levi nodes I.

    ``levi`` is the Levi factor as a RootSystem with no ``lie_type``: its
    Cartan matrix is C_I, its positive roots are the ambient positive roots
    supported on I, in Levi coordinates and in the ambient (height,
    coefficients) order, and its tables, left out of equality, hashing and
    repr, are their coroots in Levi coordinates and the exact inverse of
    C_I^T.  Two more tables stay out of all three: ``picard_nodes`` are the
    nodes outside the Levi, which index the Picard group generators;
    ``complement_columns`` holds, for each node i, the i-th coefficients of
    the coroots of ``complement_roots`` in that order, so a pairing
    <w, beta^vee> over Phi_I^+ is a sweep over the columns of the nodes
    where w is nonzero.
    """

    __slots__ = ("rs", "levi_nodes", "levi", "complement_roots", "delta", "picard_nodes", "complement_columns")
    _compared = ("rs", "levi_nodes", "levi", "complement_roots", "delta")

    def levi_coords(self, weight: Weight) -> Weight:
        """Coordinates of a weight over the Levi's own fundamental weights."""
        if weight.rank != self.rs.rank:
            raise ValueError("dimension mismatch")
        return Weight(tuple(weight[i] for i in self.levi_nodes))


class WeightSplit(_Record):
    __slots__ = _compared = ("lambda_s", "lambda_c")


def build_parabolic(rs: RootSystem, levi_nodes: Iterable[int]) -> ParabolicData:
    """Assemble ParabolicData for the subset I of simple-root indices (0-based)."""
    nodes = tuple(sorted(set(levi_nodes)))
    for i in nodes:
        if i % 1 or not 0 <= i < rs.rank:  # a fraction, or nan or inf, is no index either
            raise IndexError(f"simple-root index {i} out of range for rank {rs.rank}")
    nodes = tuple(map(int, nodes))
    if len(nodes) == rs.rank:
        raise FullSetNotParabolicError("I must be a proper subset of the simple roots")

    picard = tuple(i for i in range(rs.rank) if i not in nodes)
    complement = []
    complement_coroots = []
    levi_coroots = {}
    for root, coroot in rs.coroots.items():
        # a positive root lies outside the Levi iff it has a Picard coefficient
        if any(map(root.__getitem__, picard)):
            complement.append(root)
            complement_coroots.append(coroot)
        else:
            levi_coroots[tuple(map(root.__getitem__, nodes))] = tuple(map(coroot.__getitem__, nodes))
    # delta = (sum of the complement roots) written over the fundamental weights
    delta = rs.root_as_weight(tuple(map(sum, zip(*complement))))
    if any(delta[i] != 0 for i in nodes):
        raise InvariantError(f"delta must vanish on the Levi nodes {nodes} of {rs.lie_type}: delta {delta}")
    columns = tuple(zip(*complement_coroots))
    if min(map(min, columns)) < 0 or min(map(sum, zip(*(columns[i] for i in picard)))) <= 0:
        root, coroot = next(
            (r, c) for r, c in zip(complement, complement_coroots) if min(c) < 0 or not any(c[i] for i in picard)
        )
        raise InvariantError(
            f"Kahler positivity needs every complement coroot nonnegative with a Picard entry: "
            f"{rs.lie_type}, Levi nodes {nodes}, root {root}, coroot {coroot}"
        )
    return ParabolicData(
        rs=rs,
        levi_nodes=nodes,
        levi=_root_system(tuple(tuple(rs.cartan[i][j] for j in nodes) for i in nodes), coroots=levi_coroots),
        complement_roots=tuple(complement),
        delta=delta,
        picard_nodes=picard,
        complement_columns=columns,
    )


def is_dominant_for_levi(weight: Weight, p: ParabolicData) -> bool:
    return all(c.numerator >= 0 for c in p.levi_coords(weight).coords)


def decompose_weight(weight: Weight, p: ParabolicData) -> WeightSplit:
    """Split an integral weight into its Levi-dominant part lambda_s, the
    weight on the Levi nodes, and its character part lambda_c, the weight
    off them.  Both reuse the weight's own coordinates; they add up to the
    weight as the Picard nodes are the complement of the Levi nodes."""
    if not weight.is_integral:
        raise ValueError("integral weight required")
    if not is_dominant_for_levi(weight, p):
        raise NotDominantError("weight is not dominant for the Levi factor")
    return WeightSplit(weight.restricted(p.levi_nodes), weight.restricted(p.picard_nodes))
