"""
Suitable times for a speed vector, end to end
=============================================

A time t is suitable for speeds n_1 > ... > n_k when every fractional
position frac(n_i * t) lies in [1/(k+1), k/(k+1)]; a vector admitting
such a time is an instance.  This walkthrough computes everything
exactly for (4, 3, 2).
"""

from fractions import Fraction

from lonely_runner import (
    SpeedVector,
    earliest_suitable_time,
    is_suitable,
    lattice_witness_from_time,
    suitable_set,
)

n = SpeedVector([2, 3, 4])  # any order goes in, storage is descending
print(f"vector {n} with k = {n.k} runners")

# Each runner alone is clear of the start on `speed` arcs per period,
# [(m + 1/(k+1))/speed, (m + k/(k+1))/speed] for m = 0..speed-1.
for speed in n:
    den = (n.k + 1) * speed
    arcs = [(Fraction(m * (n.k + 1) + 1, den), Fraction(m * (n.k + 1) + n.k, den)) for m in range(speed)]
    print(f"  speed {speed}: clear on " + " ".join(f"[{lo}, {hi}]" for lo, hi in arcs))

# The suitable set is the exact intersection of those arc systems.
times = suitable_set(n)
print("suitable set:", " ".join(f"[{lo}, {hi}]" for lo, hi in times))
print("total suitable length per period:", sum(hi - lo for lo, hi in times))

# The earliest suitable time doubles as the canonical witness.
t = earliest_suitable_time(n)
print("earliest suitable time:", t)
print("definitional check agrees:", is_suitable(n, t))

# Reflection t -> 1 - t preserves suitability, so a witness always
# exists in the first half period: the earliest time is one.
print("reflected witness", 1 - t, "suitable:", is_suitable(n, 1 - t))
assert t <= Fraction(1, 2)
print("half-period witness:", t)

# Rounding the runner positions down at a suitable time gives an
# integer point of the runner polyhedron (see demo 02).
print("lattice witness at t:", lattice_witness_from_time(n, t))

# Suitability can be queried at any exact rational time.
for probe in (Fraction(1, 10), Fraction(1, 8), Fraction(1, 2), Fraction(13, 16)):
    print(f"  t = {probe}: {'suitable' if is_suitable(n, probe) else 'not suitable'}")
