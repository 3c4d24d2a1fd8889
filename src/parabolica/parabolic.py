"""Parabolic data attached to a subset of simple roots.

A standard parabolic is named by the set I of simple roots spanning its
Levi factor.  The structure precomputed here is everything the splitting
criterion needs: the Levi factor as a ``RootSystem`` of its own (the Levi
Cartan submatrix C_I with det C_I, the adjugate of C_I^T and the Levi
coroot table), the complementary positive roots, and their sum delta,
which is the anticanonical weight of the flag variety.  The coroots of the
complementary roots are also stored column by column, one column per node,
for the curvature pairings.

Each table is checked once: delta by its vanishing on I, when the
parabolic is built; the Levi adjugate by ``_inverse_transpose`` when the
Levi factor is built, on its first read: the curvature constants are sums
over the complementary roots alone and never read it.  The closure checked
each ambient coroot nonnegative with its root's support, and a
complementary root has a Picard coefficient, so every Kahler pairing
<omega0, beta^vee> is positive with no check here.

The Levi subsystem is read off the ambient root system by restriction, with
no second root closure: its positive roots are the ambient positive roots
supported on I, which the one pass that finds the complementary roots
keeps, and their coroots are the ambient coroots, which are supported on I
too.  Its inverse is Bareiss elimination of C_I^T, as for any root system.
"""
from __future__ import annotations

import numbers
from collections.abc import Iterable

from .rootsys import InvariantError, RootSystem, Weight, _Record, _root_system, _set, _shown


class FullSetNotParabolicError(ValueError):
    """The full simple-root set gives a point, not a flag variety."""


class NotDominantError(ValueError):
    """A weight coordinate on the Levi nodes is negative."""


class ParabolicData(_Record):
    """Parabolic for the Levi nodes I, given as simple-root indices, 0-based,
    in any order and with repeats, that must leave out at least one node.

    Equality, hashing and repr read ``rs`` and ``levi_nodes``, which fix
    every table below.  ``levi`` is the Levi factor as a RootSystem with no
    ``lie_type``: its Cartan matrix is C_I, its positive roots are the
    ambient positive roots supported on I, in Levi coordinates and in the
    ambient (height, coefficients) order, and its tables are their coroots
    in Levi coordinates and the exact inverse of C_I^T.  It is built, with
    the check of that inverse, the first time it is read, and kept in the
    ``_levi`` slot: until then ``levi_roots`` holds those positive roots in
    ambient coordinates.  ``picard_nodes`` are the nodes outside the Levi,
    which index the Picard group generators; ``complement_columns`` holds,
    for each node i, the i-th coefficients of the coroots of
    ``complement_roots`` in that order, so a pairing <w, beta^vee> over
    Phi_I^+ is a sweep over the columns of the nodes where w is nonzero.
    """

    __slots__ = (
        "rs", "levi_nodes", "_levi", "complement_roots", "delta", "picard_nodes", "complement_columns", "levi_roots"
    )
    _compared = ("rs", "levi_nodes")

    def __init__(self, rs: RootSystem, levi_nodes: Iterable[int]) -> None:
        nodes = tuple(levi_nodes)
        for i in nodes:
            # a non-number, a fraction, or nan or inf, is no index either
            if not isinstance(i, numbers.Real) or i % 1 or not 0 <= i < rs.rank:
                raise IndexError(f"simple-root index {_shown(i)} out of range for rank {rs.rank}")
        nodes = tuple(sorted(set(map(int, nodes))))
        if len(nodes) == rs.rank:
            raise FullSetNotParabolicError("I must be a proper subset of the simple roots")
        picard = tuple(i for i in range(rs.rank) if i not in nodes)
        complement = []
        complement_coroots = []
        levi_roots = []
        for root, coroot in rs.coroots.items():
            # a positive root lies outside the Levi iff it has a Picard coefficient
            if any(map(root.__getitem__, picard)):
                complement.append(root)
                complement_coroots.append(coroot)
            else:
                levi_roots.append(root)
        # delta = (sum of the complement roots) written over the fundamental weights
        delta = rs.root_as_weight(tuple(map(sum, zip(*complement))))
        if any(delta[i] != 0 for i in nodes):
            raise InvariantError(f"delta must vanish on the Levi nodes {nodes} of {rs.lie_type}: delta {delta}")
        _set(self, "rs", rs)
        _set(self, "levi_nodes", nodes)
        _set(self, "complement_roots", tuple(complement))
        _set(self, "delta", delta)
        _set(self, "picard_nodes", picard)
        _set(self, "complement_columns", tuple(zip(*complement_coroots)))
        _set(self, "levi_roots", tuple(levi_roots))

    @property
    def levi(self) -> RootSystem:
        """The Levi factor in its slot, or else built, checked and stored there."""
        try:
            return self._levi
        except AttributeError:  # not built yet
            pass
        nodes, rs = self.levi_nodes, self.rs
        # coefficient rows, one per node, of the Levi roots and of their coroots
        root_rows = tuple(zip(*self.levi_roots))
        coroot_rows = tuple(zip(*map(rs.coroots.__getitem__, self.levi_roots)))
        restricted = dict(zip(zip(*(root_rows[i] for i in nodes)), zip(*(coroot_rows[i] for i in nodes))))
        levi = _root_system(tuple(tuple(rs.cartan[i][j] for j in nodes) for i in nodes), coroots=restricted)
        _set(self, "_levi", levi)
        return levi

    def levi_coords(self, weight: Weight) -> Weight:
        """Coordinates of a weight over the Levi's own fundamental weights."""
        if weight.rank != self.rs.rank:
            raise ValueError("dimension mismatch")
        return Weight(tuple(weight[i] for i in self.levi_nodes))


class WeightSplit(_Record):
    __slots__ = _compared = ("lambda_s", "lambda_c")


def build_parabolic(rs: RootSystem, levi_nodes: Iterable[int]) -> ParabolicData:
    """Assemble ParabolicData for the subset I of simple-root indices (0-based)."""
    return ParabolicData(rs, levi_nodes)


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
