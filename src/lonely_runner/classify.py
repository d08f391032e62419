"""Sufficient-condition classifiers for lonely runner instances.

Three integer-arithmetic rules, evaluated together by ``evaluate_rules``
and reported by ``classify``.  Each is sound (a positive answer always
means the vector is an instance, confirmed against the exact oracle in
the test suite):

* thm1: for k >= 4, the condition n_2 (k/n_3 - 1/n_k) >= k+1
  (evaluated cross-multiplied, no division) makes the planar cell Q of
  the runner polyhedron wide enough in both axis directions to contain
  an integer point.
* thm2: for k >= 2, n_2 <= k n_k together with
  n_k <= n_1 mod ((k+1) n_k) <= k n_k puts an integer inside the 1D
  window interval, which zero-pads into the full polyhedron.
* slow_fast: n_1 <= k n_k, in which case t = k/((k+1) n_1) is
  suitable.  Unlike the other two this rule is exact for its witness:
  that particular time is suitable if and only if the condition holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import oracle
from .model import SpeedVector

__all__ = [
    "ClassificationReport",
    "evaluate_rules",
    "classify",
]


def _rules(n1: int, n2: int, n3: int, nk: int, k: int) -> tuple[bool, bool, bool]:
    """Rule triple from the extremes n_1 > n_2 > n_3 > ... > n_k of k speeds.

    The rules read nothing else, which is what lets the census count
    them without visiting the speeds in between.  n_2 is read only when
    k >= 2, n_3 only when k >= 4.
    """
    thm1 = k >= 4 and n2 * (k * nk - n3) >= (k + 1) * n3 * nk
    thm2 = k >= 2 and n2 <= k * nk and nk <= n1 % ((k + 1) * nk) <= k * nk
    slow_fast = n1 <= k * nk
    return thm1, thm2, slow_fast


def evaluate_rules(speeds: Iterable[int]) -> tuple[bool, bool, bool]:
    """Rule triple (thm1, thm2, slow_fast) for the speeds, in any order.

    Rules whose shape requirements are not met (k too small) are simply
    False.  Invalid speeds raise ValueError, as SpeedVector does.
    """
    n = SpeedVector(speeds)
    k = n.k
    return _rules(n[0], n[min(1, k - 1)], n[min(2, k - 1)], n[-1], k)


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of running all rules (and optionally the oracle) on one vector."""

    vector: SpeedVector
    thm1: bool
    thm2: bool
    slow_fast: bool
    any_rule: bool
    witness_time: Fraction | None
    witness_point: tuple[int, ...] | None
    oracle_verdict: bool | None


def classify(n: Iterable[int], with_oracle: bool = False) -> ClassificationReport:
    """Run the three rules on the speeds n; optionally decide exactly with the oracle.

    The witness time is the slow_fast time when that rule fires (it is
    free), otherwise the earliest suitable time when the oracle is on.
    Any reported witness time is suitable and its floor-rounding is an
    integer point of the runner polyhedron.  Invalid speeds raise
    ValueError, as SpeedVector does.
    """
    n = SpeedVector(n)
    thm1, thm2, slow_fast = evaluate_rules(n)
    any_rule = thm1 or thm2 or slow_fast
    earliest = oracle.earliest_suitable_time(n) if with_oracle else None
    witness_time = Fraction(n.k, (n.k + 1) * n[0]) if slow_fast else earliest
    witness_point = None
    if witness_time is not None:
        witness_point = oracle.lattice_witness_from_time(n, witness_time)
    oracle_verdict = earliest is not None if with_oracle else None
    return ClassificationReport(
        vector=n,
        thm1=thm1,
        thm2=thm2,
        slow_fast=slow_fast,
        any_rule=any_rule,
        witness_time=witness_time,
        witness_point=witness_point,
        oracle_verdict=oracle_verdict,
    )
