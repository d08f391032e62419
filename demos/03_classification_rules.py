"""
Integer sufficient conditions versus the exact oracle
=====================================================

Three cheap integer-arithmetic rules each certify instancehood without
running the oracle: a width condition on the planar cell (thm1), a
modular condition that plants an integer in the 1D window (thm2), and
the slow-fast spread condition n_1 <= k n_k with an explicit witness
time.  The oracle then confirms every positive call.
"""

from lonely_runner import SpeedVector, classify

# Vectors engineered to fire exactly one of the first two rules.
THM1_EXAMPLES = [
    [17, 16, 7, 6, 5, 4, 2],
    [18, 16, 7, 6, 5, 4, 3, 2],
    [20, 18, 8, 7, 6, 5, 4, 3, 2],
]
THM2_EXAMPLES = [
    [20, 14, 8, 6, 5, 4, 2],
    [24, 14, 10, 9, 8, 6, 5, 2],
    [23, 18, 15, 10, 8, 7, 6, 4, 2],
]

for speeds in THM1_EXAMPLES + THM2_EXAMPLES:
    n = SpeedVector(speeds)
    report = classify(n, with_oracle=True)
    fired = [
        name
        for name, hit in [("thm1", report.thm1), ("thm2", report.thm2), ("slow_fast", report.slow_fast)]
        if hit
    ]
    print(f"{str(n):32s} rules={','.join(fired) or 'none':10s} oracle={report.oracle_verdict}")
    print(f"{'':32s} witness time {report.witness_time} -> lattice point {report.witness_point}")

# The slow-fast rule is special: its witness k/((k+1) n_1) is suitable
# if and only if the condition holds, so no oracle call is needed.
n = SpeedVector([4, 3, 2])
report = classify(n)
print(f"\n{n}: slow_fast={report.slow_fast}, free witness t={report.witness_time}, point={report.witness_point}")
