"""
Dyadic time-grid search
=======================

Candidate times m / (2^e (k+1) n_1), with e the smallest exponent such
that 2^(e-1) >= n_1, form a grid fine enough that every instance seen
at desk scale has a suitable grid time.  This demo finds minimal grid
numerators and measures the claim over every coprime vector up to a
bound.
"""

from fractions import Fraction

from lonely_runner import (
    SpeedVector,
    dyadic_denominator,
    dyadic_exponent,
    find_dyadic_time,
    sweep,
)

for speeds in ([4, 3, 2], [5, 1], [17, 16, 7, 6, 5, 4, 2]):
    n = SpeedVector(speeds)
    e = dyadic_exponent(n)
    den = dyadic_denominator(n)
    m = find_dyadic_time(n)
    print(f"{str(n):24s} e={e} D={den:6d} minimal m={m:5d} time={Fraction(m, den)}")
    # The minimal numerator lies in the lower half of the grid: the
    # suitable set is symmetric about 1/2, and so is the grid.
    assert m <= (den + 1) // 2

# Measure: every coprime vector with n_1 <= 10 is an instance with a
# dyadic witness.  One sweep counts both verdicts.
max_speed = 10
summary = sweep(max_speed, require_coprime=True, with_oracle=True, with_dyadic=True)
searched = summary.coprime_vectors
instances = summary.oracle_instance_count
witnessed = summary.dyadic_verified_count
print(f"\ncoprime vectors up to n_1 <= {max_speed}: {searched}")
print(f"instances: {instances}, with a dyadic witness: {witnessed}")
assert searched == instances == witnessed
print("the grid never misses at this scale")
