"""Acceptance gate: ten end-to-end criteria with explicit time budgets.

Each test prints one ``criterion N: PASS`` line on success; a failing
assertion turns the corresponding pytest line red.  Budgets are wall
clock and generous on typical hardware; exact comparisons everywhere.
"""

import json
import math
import time
from fractions import Fraction

from helpers import descending_subsets, q_integer_point, record_tally, width, zero_pad
from lonely_runner.classify import classify, evaluate_rules
from lonely_runner.cli import main
from lonely_runner.dyadic import dyadic_denominator, find_dyadic_time
from lonely_runner.enumeration import coprime_count_moebius, sweep
from lonely_runner.model import SpeedVector
from lonely_runner.oracle import (
    earliest_suitable_time,
    is_instance,
    is_suitable,
    lattice_witness_from_time,
    suitable_set,
)
from lonely_runner.polyhedron import HalfPlane, contains, q_geometry

F = Fraction

THM1_REMARK_VECTORS = [
    (17, 16, 7, 6, 5, 4, 2),
    (18, 16, 7, 6, 5, 4, 3, 2),
    (20, 18, 8, 7, 6, 5, 4, 3, 2),
]
THM2_REMARK_VECTORS = [
    (20, 14, 8, 6, 5, 4, 2),
    (24, 14, 10, 9, 8, 6, 5, 2),
    (23, 18, 15, 10, 8, 7, 6, 4, 2),
]


def _report(num: int, start: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {num}: PASS ({detail}; {elapsed:.2f}s < {budget}s)")


def test_criterion_01_census_closed_form(capsys):
    start = time.perf_counter()
    assert main(["count-coprime", "32", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["coprime_vectors"] == 4294900694
    assert obj["total_vectors"] == 2**32 - 1 == 4294967295
    _report(1, start, 1.0, "count-coprime 32 = 4294900694 of 4294967295")


def test_criterion_02_sweep_matches_moebius():
    start = time.perf_counter()
    for max_speed in range(1, 21):
        summary = sweep(max_speed, require_coprime=True)
        assert summary.coprime_vectors == coprime_count_moebius(max_speed), max_speed
    _report(2, start, 60.0, "sweep coprime counts = Moebius closed form, N = 1..20")


def test_criterion_03_remark_vectors():
    start = time.perf_counter()
    for speeds in THM1_REMARK_VECTORS:
        report = classify(SpeedVector(speeds), with_oracle=True)
        assert report.thm1, speeds
        assert report.oracle_verdict is True, speeds
    for speeds in THM2_REMARK_VECTORS:
        report = classify(SpeedVector(speeds), with_oracle=True)
        assert report.thm2, speeds
        assert report.oracle_verdict is True, speeds
    _report(3, start, 1.0, "6 remark vectors rule-positive and oracle-confirmed")


def test_criterion_04_rule_soundness_to_14():
    start = time.perf_counter()
    checked = violations = 0
    for speeds in descending_subsets(14):
        if math.gcd(*speeds) != 1:
            continue
        thm1, thm2, slow_fast = evaluate_rules(speeds)
        if not (thm1 or thm2 or slow_fast):
            continue
        checked += 1
        if not is_instance(SpeedVector(speeds)):
            violations += 1
    assert violations == 0
    assert checked > 0
    _report(4, start, 120.0, f"any_rule => instance on {checked} coprime vectors, 0 violations")


def test_criterion_05_slow_fast_biconditional_to_12():
    start = time.perf_counter()
    total = 0
    for speeds in descending_subsets(12):
        n = SpeedVector(speeds)
        k = n.k
        t = F(k, (k + 1) * n[0])
        assert is_suitable(n, t) == (n[0] <= k * n[k - 1]), speeds
        total += 1
    assert total == 4095
    _report(5, start, 120.0, f"biconditional exact on all {total} vectors")


def test_criterion_06_reflection_to_12():
    start = time.perf_counter()
    instances = 0
    for speeds in descending_subsets(12):
        n = SpeedVector(speeds)
        times = suitable_set(n)
        if not times:
            continue
        instances += 1
        witness = earliest_suitable_time(n)
        assert witness is not None and witness <= F(1, 2), speeds
        assert [(1 - hi, 1 - lo) for lo, hi in reversed(times)] == times, speeds
    assert instances == 4095
    _report(6, start, 120.0, f"half-period witness and exact symmetry on {instances} instances")


def test_criterion_07_dyadic_witness_to_12():
    start = time.perf_counter()
    checked = 0
    for speeds in descending_subsets(12):
        if math.gcd(*speeds) != 1:
            continue
        n = SpeedVector(speeds)
        if not is_instance(n):
            continue
        m = find_dyadic_time(n)
        assert m is not None, speeds
        assert is_suitable(n, F(m, dyadic_denominator(n))), speeds
        checked += 1
    assert checked == coprime_count_moebius(12) == 4016
    _report(7, start, 300.0, f"dyadic witness found for all {checked} coprime instances")


def test_criterion_08_geometry_cross_checks():
    start = time.perf_counter()
    checked = gated = 0
    for speeds in descending_subsets(12, min_size=3):
        n = SpeedVector(speeds)
        k = n.k
        n1, n2, n3, nk = n[0], n[1], n[2], n[k - 1]
        if n2 * (k * nk - n3) < (k + 1) * n3 * nk:
            continue
        checked += 1
        geom = q_geometry(n)
        w = geom.lemma_widths
        assert w.wq_e1 is not None and w.wq_e1 >= 1, speeds
        assert w.wq_e2 is not None and w.wq_e2 >= 1, speeds
        assert w.wq2_e2 is not None and w.wq2_e2 >= F(k - 1, k + 1), speeds
        hps = geom.halfplanes
        assert w.wq_e1 == width(hps, (1, 0)) == max(v[0] for v in geom.vertices) - min(
            v[0] for v in geom.vertices
        ), speeds
        assert w.wq_e2 == width(hps, (0, 1)) == max(v[1] for v in geom.vertices) - min(
            v[1] for v in geom.vertices
        ), speeds
        lm = geom.landmarks
        above_alpha = hps + (HalfPlane(F(0), F(-1), -lm.alpha),)
        assert w.wq2_e2 == width(above_alpha, (0, 1)), speeds
        if w.wq5_e2 is not None:
            slab = hps + (HalfPlane(F(0), F(-1), -lm.beta), HalfPlane(F(0), F(1), lm.gamma))
            assert w.wq5_e2 == width(slab, (0, 1)), speeds
        if k >= 4 and 2 * n1 > (k - 1) * n2:
            gated += 1
            assert w.wq5_e2 is not None and w.wq5_e2 > 1, speeds
    assert checked > 0 and gated > 0
    _report(8, start, 120.0, f"width lemmas exact on {checked} vectors ({gated} in the wq5 gate)")


def test_criterion_09_witness_roundtrip_to_12():
    start = time.perf_counter()
    lattice_checked = planar_checked = 0
    for speeds in descending_subsets(12):
        n = SpeedVector(speeds)
        t = earliest_suitable_time(n)
        assert t is not None, speeds
        point = lattice_witness_from_time(n, t)
        assert contains(n, point), speeds
        lattice_checked += 1
        if n.k == 3 and n[2] <= n.k * n[n.k - 1]:
            p = q_integer_point(n)
            assert p is not None, speeds
            assert contains(n, zero_pad(n, p)), speeds
            planar_checked += 1
    assert lattice_checked == 4095
    assert planar_checked == 220
    _report(
        9,
        start,
        120.0,
        f"{lattice_checked} lattice witnesses in P, {planar_checked} planar lifts in P",
    )


def test_criterion_10_closed_form_matches_mask_loop():
    start = time.perf_counter()
    closed = json.dumps(vars(sweep(16)))
    assert closed == json.dumps(vars(record_tally(16)))
    _report(10, start, 60.0, "N = 16 closed-form sweep JSON byte-identical to the record columns' sums")
