"""Sufficient-condition classifiers for lonely runner instances.

Three integer-arithmetic rules, which ``classify`` evaluates and reports
together.  Each is sound (a positive answer always means the vector is
an instance, confirmed against the exact oracle in the test suite):

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

``_rules`` decides all three and their OR, any_rule, from a vector's
fastest speeds, unpadded, and n_k, for ``classify`` and the census alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import oracle
from .model import SpeedVector

__all__ = ["ClassificationReport", "classify"]


def _rules(top: Sequence[int], nk: int, k: int) -> tuple[bool, bool, bool, bool]:
    """(thm1, thm2, slow_fast, any_rule) of k speeds n_1 > n_2 > ... > n_k.

    ``top`` holds the fastest speeds, descending, and nk is n_k.  The
    rules read nothing else: n_1 = top[0] always, n_2 = top[1] only when
    k >= 2 and n_3 = top[2] only when k >= 4, so ``top`` may stop at the
    k-th speed and a short vector needs no padding.  any_rule is the OR
    of the three.  The census counts the rules in closed form, each
    solved for its threshold in one speed; the tests check those
    thresholds against this function, which stays the rules' one
    definition.
    """
    thm1 = k >= 4 and top[1] * (k * nk - top[2]) >= (k + 1) * top[2] * nk
    thm2 = k >= 2 and top[1] <= k * nk and nk <= top[0] % ((k + 1) * nk) <= k * nk
    slow_fast = top[0] <= k * nk
    return thm1, thm2, slow_fast, thm1 or thm2 or slow_fast


class ClassificationReport(NamedTuple):
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
    k = n.k
    thm1, thm2, slow_fast, any_rule = _rules(n, n[-1], k)
    earliest = oracle.earliest_suitable_time(n) if with_oracle else None
    witness_time = Fraction(k, (k + 1) * n[0]) if slow_fast else earliest
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
