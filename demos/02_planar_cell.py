"""
The runner polyhedron and its planar cell
=========================================

A vector is an instance exactly when the runner polyhedron P(n)
contains an integer point.  P(n) is unbounded (it is invariant along
the direction n), so the geometry works in a bounded planar window Q
cut out by six half-planes: any integer point of Q zero-pads to an
integer point of P(n) whenever n_3 <= k * n_k.
"""

from lonely_runner import (
    SpeedVector,
    contains,
    earliest_suitable_time,
    lattice_witness_from_time,
    q_geometry,
)

n = SpeedVector([17, 16, 7, 6, 5, 4, 2])
print(f"vector {n}")

# Membership in P(n) is a pairwise test on n_j x_i - n_i x_j.
print("origin in P(n):", contains(n, (0,) * n.k))

# The six half-planes of Q and its vertex cycle, all exact rationals.
geom = q_geometry(n)
for h in geom.halfplanes:
    print(f"  half-plane: {h.a1}*x1 + {h.a2}*x2 <= {h.b}")
print("vertices (counterclockwise):", " ".join(f"({a}, {b})" for a, b in geom.vertices))

# Landmark levels partition Q for the width lemmas.
lm = geom.landmarks
print(f"landmarks: alpha={lm.alpha} beta={lm.beta} gamma={lm.gamma} delta={lm.delta} zeta={lm.zeta} kappa={lm.kappa}")

# Widths along the axes, from the vertex extremes; both exceed 1 here,
# which is what forces an integer point into the cell.
for axis in (0, 1):
    values = [v[axis] for v in geom.vertices]
    print(f"width along x{axis + 1}:", max(values) - min(values))
print("closed-form lemma widths:", geom.lemma_widths)

# An integer point of P(n): the floor-rounding of the earliest suitable
# time.  Here it is zero past its first two coordinates, which lie in Q.
point = lattice_witness_from_time(n, earliest_suitable_time(n))
print("lattice witness:", point, "in P(n):", contains(n, point))
x1, x2 = point[:2]
print(f"({x1}, {x2}) in Q:", all(h.a1 * x1 + h.a2 * x2 <= h.b for h in geom.halfplanes))
