"""hallforge: exact degenerate Ringel-Hall algebra computations.

Structure constants of the convolution algebra of constructible functions
on isomorphism classes of quiver representations, at q = 1: each is the
Euler characteristic of a stratum of subrepresentations, counted by its
torus fixed points.  Hall polynomials, exact in Z[q] on every backend
(Macdonald on the loop quiver and P^1, Green on type A), check them at q = 1.
Ships three backends: type-A quivers with any orientation, nilpotent
loop-quiver representations, and the torsion part of coherent sheaves on
the projective line.
"""

__version__ = "0.1.0"
