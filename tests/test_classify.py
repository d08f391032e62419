import json
from fractions import Fraction

import pytest

from helpers import descending_subsets
from lonely_runner.classify import (
    classify,
    evaluate_rules,
    rule_slow_fast,
    rule_thm1,
    rule_thm2,
)
from lonely_runner.cli import main
from lonely_runner.model import SpeedVector, new_speed_vector
from lonely_runner.oracle import is_instance, is_suitable

F = Fraction


def test_rule_thm1_frozen():
    assert rule_thm1(new_speed_vector([17, 16, 7, 6, 5, 4, 2]))
    assert not rule_thm1(new_speed_vector([10, 4, 3, 1]))
    # Needs k >= 4.
    assert not rule_thm1(new_speed_vector([9, 8, 7]))


def test_rule_thm2_frozen():
    assert rule_thm2(new_speed_vector([20, 14, 8, 6, 5, 4, 2]))
    # n_2 = 16 > k n_k = 14 breaks the first condition.
    assert not rule_thm2(new_speed_vector([17, 16, 7, 6, 5, 4, 2]))
    # k = 1 is false by convention.
    assert not rule_thm2(new_speed_vector([5]))


def test_rule_slow_fast_frozen():
    ok, t = rule_slow_fast(new_speed_vector([4, 3, 2]))
    assert ok and t == F(3, 16)
    ok, t = rule_slow_fast(new_speed_vector([17, 16, 7, 6, 5, 4, 2]))
    assert not ok and t is None


def test_evaluate_rules_matches_wrappers():
    for speeds in [(17, 16, 7, 6, 5, 4, 2), (20, 14, 8, 6, 5, 4, 2), (4, 3, 2), (5,)]:
        n = SpeedVector(speeds)
        triple = evaluate_rules(speeds)
        assert triple == (rule_thm1(n), rule_thm2(n), rule_slow_fast(n)[0])


@pytest.mark.parametrize("speeds", sorted(descending_subsets(9)))
def test_slow_fast_witness_is_exact(speeds):
    # The slow_fast witness time is suitable if and only if the rule
    # condition holds, so the rule is a biconditional for that time.
    n = SpeedVector(speeds)
    t = F(n.k, (n.k + 1) * n[0])
    assert is_suitable(n, t) == (n[0] <= n.k * n[n.k - 1])


def test_classify_without_oracle():
    report = classify(new_speed_vector([17, 16, 7, 6, 5, 4, 2]))
    assert report.thm1 and not report.thm2 and not report.slow_fast
    assert report.any_rule
    assert report.witness_time is None
    assert report.witness_point is None
    assert report.oracle_verdict is None


def test_classify_with_oracle():
    report = classify(new_speed_vector([17, 16, 7, 6, 5, 4, 2]), with_oracle=True)
    assert report.witness_time == F(9, 128)
    assert report.witness_point == (1, 1, 0, 0, 0, 0, 0)
    assert report.oracle_verdict is True


def test_classify_slow_fast_witness_is_free():
    report = classify(new_speed_vector([4, 3, 2]))
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
        thm1, thm2, slow_fast = evaluate_rules(speeds)
        if thm1 or thm2 or slow_fast:
            assert is_instance(SpeedVector(speeds))


def test_reported_witnesses_are_suitable():
    for speeds in [(4, 3, 2), (20, 14, 8, 6, 5, 4, 2), (2, 1), (5, 4, 3, 2, 1)]:
        report = classify(SpeedVector(speeds), with_oracle=True)
        if report.witness_time is not None:
            assert is_suitable(report.vector, report.witness_time)
