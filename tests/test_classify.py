import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import certify_first_intervals, descending_subsets, p1_window, q_integer_point, zero_pad
from lonely_runner.classify import _rules, classify
from lonely_runner.cli import main
from lonely_runner.model import SpeedVector
from lonely_runner.oracle import earliest_suitable_time, is_suitable
from lonely_runner.polyhedron import contains

F = Fraction


def test_rule_thm1_frozen():
    assert classify((17, 16, 7, 6, 5, 4, 2)).thm1
    assert not classify((10, 4, 3, 1)).thm1
    # Needs k >= 4.
    assert not classify((9, 8, 7)).thm1


def test_rule_thm2_frozen():
    assert classify((20, 14, 8, 6, 5, 4, 2)).thm2
    # n_2 = 16 > k n_k = 14 breaks the first condition.
    assert not classify((17, 16, 7, 6, 5, 4, 2)).thm2
    # k = 1 is false by convention.
    assert not classify((5,)).thm2


def test_rule_slow_fast_frozen():
    assert classify((4, 3, 2)).slow_fast
    assert classify(SpeedVector([4, 3, 2])).witness_time == F(3, 16)
    assert not classify((17, 16, 7, 6, 5, 4, 2)).slow_fast


@pytest.mark.parametrize("speeds", sorted(descending_subsets(9)))
def test_slow_fast_witness_is_exact(speeds):
    # The slow_fast witness time is suitable if and only if the rule
    # condition holds, so the rule is a biconditional for that time.
    n = SpeedVector(speeds)
    t = F(n.k, (n.k + 1) * n[0])
    assert is_suitable(n, t) == (n[0] <= n.k * n[n.k - 1])


def test_classify_without_oracle():
    report = classify(SpeedVector([17, 16, 7, 6, 5, 4, 2]))
    assert report.thm1 and not report.thm2 and not report.slow_fast
    assert report.any_rule
    assert report.witness_time is None
    assert report.witness_point is None
    assert report.oracle_verdict is None


def test_classify_with_oracle():
    report = classify(SpeedVector([17, 16, 7, 6, 5, 4, 2]), with_oracle=True)
    assert report.witness_time == F(9, 128)
    assert report.witness_point == (1, 1, 0, 0, 0, 0, 0)
    assert report.oracle_verdict is True


def test_classify_reads_speeds_through_speed_vector():
    # A raw tuple works in any order; invalid speeds raise ValueError, where
    # (3, 0) used to divide by zero and (2, 2) to fail on a missing attribute.
    assert classify((2, 3, 4), with_oracle=True) == classify(SpeedVector([4, 3, 2]), with_oracle=True)
    for speeds in [(), (0,), (2, 2), (3, 0), (3, True)]:
        with pytest.raises(ValueError):
            classify(speeds)


def test_classify_rule_triple_reads_speeds_through_speed_vector():
    # Ascending speeds used to be read as if descending, so (2, ..., 17)
    # came back (False, False, True), and a repeated speed went through.
    def triple(speeds):
        report = classify(speeds)
        return report.thm1, report.thm2, report.slow_fast

    assert triple((2, 4, 5, 6, 7, 16, 17)) == triple((17, 16, 7, 6, 5, 4, 2)) == (True, False, False)
    for speeds in [(), (0,), (3, 3, 1), (3, 0), (3, True)]:
        with pytest.raises(ValueError):
            triple(speeds)


class _RecordedTop(tuple):
    """A speed tuple that records each index read from it."""

    def __new__(cls, speeds, reads):
        self = super().__new__(cls, speeds)
        self.reads = reads
        return self

    def __getitem__(self, index):
        self.reads.add(index)
        return super().__getitem__(index)


def test_rules_read_no_more_than_the_short_vector_holds():
    # _rules reads n_2 only for k >= 2 and n_3 only for k >= 4, so the
    # fastest min(k, 3) speeds give the same verdicts as the whole vector,
    # and both are what classify reports; any_rule is the OR of the three.
    for n in descending_subsets(10):
        k = len(n)
        report = classify(n)
        fields = (report.thm1, report.thm2, report.slow_fast, report.any_rule)
        reads = set()
        assert _rules(_RecordedTop(n[: min(k, 3)], reads), n[-1], k) == _rules(n, n[-1], k) == fields, n
        assert fields[3] == (fields[0] or fields[1] or fields[2]), n
        assert reads <= set(range(1 + (k >= 2) + (k >= 4))), (n, reads)


def test_classify_slow_fast_witness_is_free():
    report = classify(SpeedVector([4, 3, 2]))
    assert report.slow_fast
    assert report.witness_time == F(3, 16)
    assert report.witness_point == (0, 0, 0)
    assert report.oracle_verdict is None


def test_classification_report_json(capsys):
    assert main(["classify", "4", "3", "2", "--with-oracle", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "vector": [4, 3, 2],
        "thm1": False,
        "thm2": True,
        "slow_fast": True,
        "any_rule": True,
        "witness_time": "3/16",
        "witness_point": [0, 0, 0],
        "oracle_verdict": True,
    }


def test_rules_sound_on_small_sweep():
    # any_rule must imply instance; the acceptance suite runs the
    # larger n_1 <= 14 version of this check.
    for speeds in descending_subsets(10):
        if classify(speeds).any_rule:
            assert earliest_suitable_time(SpeedVector(speeds)) is not None


def test_reported_witnesses_are_suitable():
    for speeds in [(4, 3, 2), (20, 14, 8, 6, 5, 4, 2), (2, 1), (5, 4, 3, 2, 1)]:
        report = classify(SpeedVector(speeds), with_oracle=True)
        if report.witness_time is not None:
            assert is_suitable(report.vector, report.witness_time)


# Rule soundness at large speeds, checked two ways: every rule-positive
# vector has an earliest suitable time, certified by the definition, and
# its rule's own witness (an integer point of Q or of the 1D window,
# zero-padded into P(n), or the slow_fast time) is checked against the
# polyhedron or the definition.
BIG = 10**9


def _sample_between(draw, lo, hi, size):
    """size distinct integers strictly between lo and hi."""
    return draw(st.randoms(use_true_random=False)).sample(range(lo + 1, hi), size)


@st.composite
def thm1_vectors(draw):
    # n_3 just above n_k, then n_2 large enough for the width condition.
    k = draw(st.sampled_from([4, 5, 7, 9]))
    nk = draw(st.integers(10, BIG // 4))
    n3 = nk + k - 3 + draw(st.integers(0, 20))  # < k n_k, as nk >= 10
    need = -(-(k + 1) * n3 * nk // (k * nk - n3))
    n2 = draw(st.integers(max(n3 + 1, need), BIG - 1))
    n1 = draw(st.integers(n2 + 1, BIG))
    return tuple(sorted([n1, n2, n3, nk, *_sample_between(draw, nk, n3, k - 4)], reverse=True))


@st.composite
def thm2_vectors(draw):
    # n_2 <= k n_k, and n_1 = q (k+1) n_k + r with n_k <= r <= k n_k.
    k = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    nk = draw(st.integers(k, BIG // (2 * (k + 1))))
    r = draw(st.integers(nk, k * nk))
    n1 = draw(st.integers(1, (BIG - r) // ((k + 1) * nk))) * (k + 1) * nk + r
    if k == 2:
        return (n1, nk)
    n2 = draw(st.integers(nk + k - 2, k * nk))
    return tuple(sorted([n1, n2, nk, *_sample_between(draw, nk, n2, k - 3)], reverse=True))


@st.composite
def slow_fast_vectors(draw):
    # Small draws are favoured, so half of them start near 10^9.
    k = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    nk = draw(st.integers(1, BIG // k) | st.integers(BIG // (2 * k), BIG // k))
    n1 = draw(st.integers(nk + k - 1, k * nk))
    return tuple(sorted([n1, nk, *_sample_between(draw, nk, n1, k - 2)], reverse=True))


def _confirm_rule_verdicts(speeds):
    n = SpeedVector(speeds)
    report = classify(speeds)
    thm1, thm2, slow_fast = report.thm1, report.thm2, report.slow_fast
    if not (thm1 or thm2 or slow_fast):
        return thm1, thm2, slow_fast
    t = earliest_suitable_time(n)
    assert t is not None
    certify_first_intervals(n, [(t, t)])
    if thm1:
        p = q_integer_point(n)
        assert p is not None
        assert contains(n, zero_pad(n, p))
    if thm2:
        lo, _ = p1_window(n)
        assert contains(n, zero_pad(n, (math.ceil(lo),)))
    if slow_fast:
        assert is_suitable(n, classify(n).witness_time)
    return thm1, thm2, slow_fast


@settings(max_examples=150, deadline=None, derandomize=True)
@given(thm1_vectors())
def test_thm1_sound_at_large_speeds(speeds):
    assert _confirm_rule_verdicts(speeds)[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(thm2_vectors())
def test_thm2_sound_at_large_speeds(speeds):
    assert _confirm_rule_verdicts(speeds)[1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(slow_fast_vectors())
def test_slow_fast_sound_at_large_speeds(speeds):
    assert _confirm_rule_verdicts(speeds)[2]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, BIG), min_size=2, max_size=9, unique=True))
def test_rules_sound_on_random_large_vectors(speeds):
    # Untargeted draws, so a rule that fires where it should not meets
    # vectors its own witness cannot serve.
    _confirm_rule_verdicts(tuple(sorted(speeds, reverse=True)))
