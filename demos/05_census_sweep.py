"""
Census sweep over all speed subsets
===================================

Every nonempty subset of {1..N} is a speed vector; the sweep counts
coprimality and rule coverage across all 2^N - 1 of them.  The rules
read only the extremes of a vector, so the rules-only summary is
counted in closed form from those extremes, with a Moebius inversion
over the common divisor for the coprime counts, and visits no vector.
The oracle, the dyadic search and the record file need the
per-vector loop, which runs once over the masks in ascending order.
"""

import tempfile
import time
from pathlib import Path

from lonely_runner.enumeration import coprime_count_moebius, sweep

N = 12
start = time.perf_counter()
summary = sweep(N, require_coprime=True)
elapsed_ms = int((time.perf_counter() - start) * 1000)
print(f"subsets of 1..{N}: {summary.total_vectors}")
print(f"coprime: {summary.coprime_vectors} (closed form {coprime_count_moebius(N)})")
print(f"rule coverage: thm1={summary.thm1_count} thm2={summary.thm2_count} slow_fast={summary.slow_fast_count}")
print(f"any rule: {summary.any_rule_count} of {summary.coprime_vectors} coprime"
      f" ({100 * summary.any_rule_count / summary.coprime_vectors:.2f}%)")
print(f"elapsed: {elapsed_ms} ms")

# The desk-scale coprime count needs no enumeration either.
print(f"\ncoprime count at N=32: {coprime_count_moebius(32)} of {2**32 - 1}")

# Given a file, the mask loop also writes one record per vector to it,
# as CSV or JSON, for offline analysis.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "census_n8.csv"
    sweep(8, with_oracle=True, with_dyadic=True, out=path)
    lines = path.read_text().splitlines()
    print(f"\nwrote {len(lines) - 1} records to {path.name}; first rows:")
    for line in lines[:4]:
        print("  " + line)
