import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    certify_first_intervals,
    descending_subsets,
    grid_denominator,
    scaled_suitable_set,
    suitability_probe_points,
)
from lonely_runner import cli, oracle, polyhedron
from lonely_runner.dyadic import find_dyadic_time
from lonely_runner.model import SpeedVector
from lonely_runner.oracle import (
    earliest_suitable_time,
    is_suitable,
    lattice_witness_from_time,
    suitable_set,
)

F = Fraction


def test_suitable_set_frozen_values():
    assert suitable_set(SpeedVector([2, 1])) == [(F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))]
    assert suitable_set(SpeedVector([1])) == [(F(1, 2), F(1, 2))]
    assert suitable_set(SpeedVector([4, 3, 2])) == [(F(1, 8), F(3, 16)), (F(13, 16), F(7, 8))]
    assert suitable_set(SpeedVector([3, 2, 1])) == [(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))]


def test_earliest_frozen_values():
    assert earliest_suitable_time(SpeedVector([4, 3, 2])) == F(1, 8)
    assert earliest_suitable_time(SpeedVector([3, 2, 1])) == F(1, 4)
    assert earliest_suitable_time(SpeedVector([5, 4, 3, 2, 1])) == F(1, 6)


VERDICTS = [earliest_suitable_time, find_dyadic_time]


@pytest.mark.parametrize("speeds", [(), (0,), (-1,), (2, 2), (3, True), (3, None)])
@pytest.mark.parametrize("verdict", VERDICTS)
def test_verdicts_refuse_invalid_speeds(verdict, speeds):
    # A zero, negative or repeated speed would otherwise come back as a
    # quiet verdict, True would pass for the speed 1, and None would
    # raise TypeError from the sort.
    with pytest.raises(ValueError):
        verdict(speeds)


@pytest.mark.parametrize("verdict", VERDICTS)
def test_verdicts_read_speeds_in_any_order(verdict):
    # The dyadic grid is sized by the fastest speed, wherever it stands.
    assert verdict((2, 3, 4)) == verdict((4, 3, 2)) == verdict(SpeedVector([4, 3, 2]))


# Read through SpeedVector: a raw tuple in any order works, and invalid
# speeds raise ValueError rather than AttributeError or ZeroDivisionError.
INVALID_SPEEDS = [(), (0,), (-1,), (2, 2), (3, True), (3, 0)]


def test_suitable_set_reads_speeds_through_speed_vector():
    assert suitable_set((2, 3, 4)) == suitable_set(SpeedVector([4, 3, 2]))
    for speeds in INVALID_SPEEDS:
        with pytest.raises(ValueError):
            suitable_set(speeds)


def test_is_suitable_reads_speeds_through_speed_vector():
    assert is_suitable((2, 1), F(1, 3))
    assert not is_suitable((1, 2), F(1, 2))
    for speeds in INVALID_SPEEDS:
        with pytest.raises(ValueError):
            is_suitable(speeds, F(1, 3))


def test_lattice_witness_reads_speeds_through_speed_vector():
    # The point follows the descending order of the speeds, as given or not.
    assert lattice_witness_from_time((1, 3, 10), F(1, 4)) == (2, 0, 0)
    for speeds in INVALID_SPEEDS:
        with pytest.raises(ValueError):
            lattice_witness_from_time(speeds, F(1, 3))


def test_is_suitable_definitional():
    n = SpeedVector([4, 3, 2])
    assert is_suitable(n, F(1, 8))
    assert is_suitable(n, F(3, 16))
    assert not is_suitable(n, F(1, 10))
    assert not is_suitable(n, 0)
    with pytest.raises(ValueError, match="non-negative"):
        is_suitable(n, F(-1, 8))


@pytest.mark.parametrize("t", [0.1, 0.5, True, "1/10"])
def test_inexact_times_are_refused(t):
    # 1/10 is suitable for (5), but the float 0.1 is not 1/10.  Floats,
    # bools and strings are refused, not converted.
    n = SpeedVector([5])
    assert is_suitable(n, F(1, 10))
    with pytest.raises(ValueError, match="int or a Fraction"):
        is_suitable(n, t)
    with pytest.raises(ValueError, match="int or a Fraction"):
        lattice_witness_from_time(n, t)


def test_scaled_set_structure():
    n = SpeedVector([4, 3, 2])
    den, arcs = scaled_suitable_set(n)
    assert den == grid_denominator(n) == 48
    assert arcs == [(6, 9), (39, 42)]
    # Strictly separated and ordered.
    assert all(a[1] < b[0] for a, b in zip(arcs, arcs[1:]))


def test_sweep_structure():
    # Each endpoint stays over the (k+1) s of the runner whose arc it is,
    # and the sweep ends with the last interval that starts by 1/2.
    assert list(oracle._sweep((4, 3, 2))) == [(1, 8, 3, 16)]
    assert list(oracle._sweep((1,))) == [(1, 2, 1, 2)]
    assert list(oracle._sweep((2, 1))) == [(1, 3, 2, 6)]


def arc_list_intervals(n):
    den, arcs = scaled_suitable_set(n)
    return [(F(lo, den), F(hi, den)) for lo, hi in arcs]


def assert_sorted_disjoint(intervals):
    # suitable_set returns plain pairs and does not check their order itself.
    prev_hi = F(0)
    for lo, hi in intervals:
        assert prev_hi < lo <= hi < 1
        prev_hi = hi


def test_sweep_matches_arc_lists_on_small_subsets():
    for speeds in descending_subsets(11):
        n = SpeedVector(speeds)
        times = suitable_set(n)
        assert times == arc_list_intervals(n), speeds
        assert_sorted_disjoint(times)


@pytest.mark.parametrize("k,tier", [(3, 10**3), (7, 10**3), (3, 10**4), (7, 10**4)])
def test_sweep_matches_arc_lists_at_larger_speeds(k, tier):
    rng = random.Random(tier + k)
    for _ in range(2):
        n = SpeedVector(rng.sample(range(tier - tier // 10, tier + 1), k))
        times = suitable_set(n)
        assert times == arc_list_intervals(n)
        assert_sorted_disjoint(times)


def assert_intervals_by_definition(n, raw):
    """Check the sweep's first intervals by the definition alone (see certify_first_intervals)."""
    dens = {(n.k + 1) * s for s in n}
    assert all(lo_den in dens and hi_den in dens for _, lo_den, _, hi_den in raw)
    intervals = [(F(lo_num, lo_den), F(hi_num, hi_den)) for lo_num, lo_den, hi_num, hi_den in raw]
    assert (intervals[0][0] if intervals else None) == earliest_suitable_time(n)
    certify_first_intervals(n, intervals)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10**9), min_size=1, max_size=7, unique=True))
def test_sweep_intervals_at_huge_speeds(speeds):
    # The arc lists cannot run at these speeds; the definitional test can.
    n = SpeedVector(speeds)
    assert_intervals_by_definition(n, list(itertools.islice(oracle._sweep(n), 50)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10**40), min_size=1, max_size=7, unique=True))
def test_sweep_key_is_exact_at_speeds_near_10_40(speeds):
    # The keys are near 2^270 here, far past what a float tells apart.
    n = SpeedVector(speeds)
    assert_intervals_by_definition(n, list(itertools.islice(oracle._sweep(n), 50)))


def test_sweep_key_separates_the_closest_arc_ends():
    # k = 2, D = 3 n, both near 2^40.  The slower runner's bad arc 12000 ends
    # at e = 36001 / (3 n_a); the faster one's arc 12001 starts at
    # s = 36002 / (3 n_b).  As 36001 n_b - 36002 n_a = 1, s < e by
    # 1 / (3 n_a n_b), the least gap two arc ends can have, so e is not
    # suitable.  A key that tied them would emit [e, s] backwards.
    n_b, n_a = 366503924197, 366493744098
    e, s = F(36001, 3 * n_a), F(36002, 3 * n_b)
    assert e - s == F(1, 3 * n_a * n_b)
    assert 36001 / (3 * n_a) == 36002 / (3 * n_b)  # float keys tie
    p = (3 * n_b * n_b).bit_length()
    assert (36001 << p - 2) // (3 * n_a) == (36002 << p - 2) // (3 * n_b)  # so do keys two bits short
    n = SpeedVector([n_b, n_a])
    raw = list(itertools.islice(oracle._sweep(n), 12001))
    assert_intervals_by_definition(n, raw)
    # The first 12000 intervals end before s, and the next starts after e.
    assert F(raw[-2][2], raw[-2][3]) < s < e < F(raw[-1][0], raw[-1][1])
    assert not is_suitable(n, e)


class HeapWatch:
    """Stands in for the sweep's heapify and heapreplace: counts pops, keeps the widest key."""

    def __init__(self, monkeypatch):
        monkeypatch.setattr(oracle, "heapify", self.heapify)
        monkeypatch.setattr(oracle, "heapreplace", self.heapreplace)
        self.reset(0)

    def reset(self, max_pops):
        self.pops, self.key_bits, self.max_pops = 0, 0, max_pops

    def heapify(self, heap):
        self.key_bits = max([self.key_bits] + [key.bit_length() for key, *_ in heap])
        heapq.heapify(heap)

    def heapreplace(self, heap, entry):
        self.pops += 1
        if self.pops > self.max_pops:  # fail here rather than run on
            pytest.fail(f"more than {self.max_pops} heap pops")
        self.key_bits = max(self.key_bits, entry[0].bit_length())
        return heapq.heapreplace(heap, entry)

    def assert_narrow_keys(self, n):
        # floor(t 2^P) with t < 2 and P <= 2 bit_length((k+1) n_1): the keys
        # follow the fastest speed, not the digits of all of them.
        assert self.key_bits <= 2 * ((n.k + 1) * n[0]).bit_length() + 1


def test_sweep_pops_each_arc_at_most_once(monkeypatch):
    # Each pop passes an arc of one runner that ends by 1/2, where the sweep
    # stops; a runner of speed s has fewer than s/2 such arcs after arc 0.
    watch = HeapWatch(monkeypatch)
    for speeds in descending_subsets(10):
        n = SpeedVector(speeds)
        watch.reset(sum(n) // 2 + n.k)
        list(oracle._sweep(n))
        watch.assert_narrow_keys(n)


@pytest.mark.parametrize("speeds", [(10**12, 1), (10**18, 10**9, 1)])
def test_sweep_seeks_past_the_arcs_of_fast_runners(monkeypatch, speeds):
    # Without the seek, the fastest runner would pop every arc it has before 1/3.
    watch = HeapWatch(monkeypatch)
    n = SpeedVector(speeds)
    watch.reset(4 * n.k)
    t = earliest_suitable_time(n)
    assert is_suitable(n, t)
    watch.assert_narrow_keys(n)


def test_classify_with_oracle_at_1399_digits_pops_a_few_arcs(monkeypatch, capsys):
    rng = random.Random(1399)
    n = SpeedVector(rng.randrange(10**1398, 10**1399) for _ in range(100))
    watch = HeapWatch(monkeypatch)
    watch.reset(4 * n.k)
    assert cli.main(["classify", *map(str, n), "--with-oracle"]) == 0
    assert "oracle_verdict: true\n" in capsys.readouterr().out
    # (k+1) lcm(n) would have about 100 times the digits of n_1.
    watch.assert_narrow_keys(n)


def test_suitable_set_refuses_more_arcs_than_the_limit(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_SUITABLE_ARCS", 9)
    assert len(suitable_set(SpeedVector([4, 3, 2]))) == 2
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: pytest.fail("the limit is checked first"))
    with pytest.raises(ValueError, match="limit 9"):
        suitable_set(SpeedVector([5, 3, 2]))


@pytest.mark.parametrize(
    "speeds",
    sorted(descending_subsets(6)) + [(7, 5, 3), (9, 7, 2), (8, 5, 3, 2), (7, 6, 5, 4, 3)],
)
def test_interval_set_matches_definition(speeds):
    """Interval machinery == definitional frac test, decided exactly.

    The probe points cover every grid point and every inter-grid gap,
    which pins down both sets completely (see helpers).
    """
    n = SpeedVector(speeds)
    times = suitable_set(n)
    for t in suitability_probe_points(n):
        assert any(lo <= t <= hi for lo, hi in times) == is_suitable(n, t)


@pytest.mark.parametrize("speeds", [(4, 3, 2), (5, 4, 3, 2, 1), (9, 7, 2), (12, 7, 5, 3)])
def test_suitable_set_reflection_symmetry(speeds):
    times = suitable_set(SpeedVector(speeds))
    assert [(1 - hi, 1 - lo) for lo, hi in reversed(times)] == times


def test_half_period_witness_on_instances():
    for speeds in [(4, 3, 2), (17, 16, 7, 6, 5, 4, 2), (2, 1)]:
        n = SpeedVector(speeds)
        t = earliest_suitable_time(n)
        assert t is not None and t <= F(1, 2)
        assert is_suitable(n, t)


def test_lattice_witness_frozen():
    assert lattice_witness_from_time(SpeedVector([2, 1]), F(1, 3)) == (0, 0)
    assert lattice_witness_from_time(SpeedVector([4, 3, 2]), F(1, 8)) == (0, 0, 0)


def test_lattice_witness_rejects_unsuitable():
    with pytest.raises(ValueError, match="not a suitable time"):
        lattice_witness_from_time(SpeedVector([4, 3, 2]), F(1, 10))


@pytest.mark.parametrize("speeds", sorted(descending_subsets(7)))
def test_lattice_witness_lies_in_polyhedron(speeds):
    n = SpeedVector(speeds)
    t = earliest_suitable_time(n)
    assert t is not None
    assert polyhedron.contains(n, lattice_witness_from_time(n, t))


def test_every_small_vector_is_instance():
    assert all(earliest_suitable_time(SpeedVector(s)) is not None for s in descending_subsets(8))
