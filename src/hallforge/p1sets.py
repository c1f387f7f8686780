"""Finite/cofinite subsets of the projective line, with exact Euler
characteristics.

Points are symbolic names; only identities and cardinalities matter.
chi(P^1) = 2, so a cofinite set excluding k points has chi = 2 - k.
"""

from .quiver import ReadOnly


class P1Set(ReadOnly):
    __slots__ = ("cofinite", "points")

    def __init__(self, cofinite, points):
        object.__setattr__(self, "cofinite", cofinite)
        object.__setattr__(self, "points", points)  # a frozenset

    def __hash__(self):  # by hand, as in IndecFamily, whose hash calls it
        return hash((self.cofinite, self.points))

    @staticmethod
    def finite(points):
        return P1Set(False, frozenset(points))

    @staticmethod
    def cofinite_of(excluded):
        return P1Set(True, frozenset(excluded))

    @property
    def is_empty(self):
        return not self.cofinite and not self.points

    def chi(self):
        """Naive Euler characteristic of a finite or cofinite subset of P^1."""
        if self.cofinite:
            return 2 - len(self.points)
        return len(self.points)

    def contains(self, x):
        return (x not in self.points) if self.cofinite else (x in self.points)

    def complement(self):
        return P1Set(not self.cofinite, self.points)

    def intersect(self, other):
        if self.cofinite and other.cofinite:
            return P1Set(True, self.points | other.points)
        if self.cofinite:
            return P1Set(False, frozenset(x for x in other.points
                                          if x not in self.points))
        if other.cofinite:
            return P1Set(False, frozenset(x for x in self.points
                                          if x not in other.points))
        return P1Set(False, self.points & other.points)

    def union(self, other):
        return self.complement().intersect(other.complement()).complement()

    def is_disjoint(self, other):
        return self.intersect(other).is_empty

    def descriptor(self):
        return (1 if self.cofinite else 0, tuple(sorted(self.points)))
