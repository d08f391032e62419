import itertools
import math
import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from helpers import (
    brute_integer_points_in_region,
    descending_subsets,
    halfplane_lhs,
    halfplane_vertices,
    p1_window,
    project,
    q_integer_point,
    support_bounds,
    translate_invariance_check,
    width,
    zero_pad,
)
from lonely_runner.model import SpeedVector
from lonely_runner.polyhedron import (
    HalfPlane,
    QLandmarks,
    contains,
    q_geometry,
)

F = Fraction

REMARK_VECTOR = SpeedVector([17, 16, 7, 6, 5, 4, 2])


def _seeded_vectors(count, ks, top, seed):
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(1, top + 1), rng.choice(ks)), reverse=True)) for _ in range(count)]


SEEDED_LARGE = _seeded_vectors(12, (3, 7), 10**9, seed=6)


def test_contains_frozen_examples():
    assert contains(SpeedVector([4, 3, 2]), (0, 0, 0))
    assert not contains(SpeedVector([5, 1]), (0, 0))
    assert contains(SpeedVector([2, 1]), (0, 0))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        contains(SpeedVector([4, 3, 2]), (0, 0))


@pytest.mark.parametrize("bad", [0.0, 0.5, True])
def test_contains_refuses_inexact_coordinates(bad):
    # A float would be read as its binary value; refuse it as SpeedVector does.
    with pytest.raises(ValueError, match="ints or Fractions"):
        contains(SpeedVector([4, 3, 2]), (0, bad, F(1, 2)))


@pytest.mark.parametrize("speeds", [(4, 3, 2), (9, 7, 2), (5, 4, 3, 2, 1)])
def test_contains_invariant_along_speed_direction(speeds):
    n = SpeedVector(speeds)
    points = [(0,) * n.k, tuple(range(n.k)), (1,) * n.k]
    for x in points:
        verdict = contains(n, x)
        for c in (-2, 1, 5):
            shifted = tuple(F(xi) + c * si for xi, si in zip(x, n))
            assert contains(n, shifted) == verdict


def test_p1_interval_frozen():
    assert p1_window(SpeedVector([20, 14, 8, 6, 5, 4, 2])) == (F(3, 8), F(9, 8))
    assert p1_window(SpeedVector([2, 1])) == (F(0), F(1))


def test_p1_interval_length_bound():
    # Length >= (k-1)/(k+1) whenever n_2 <= k * n_k.
    for speeds in descending_subsets(9, min_size=2):
        n = SpeedVector(speeds)
        k = n.k
        if n[1] > k * n[k - 1]:
            continue
        lo, hi = p1_window(n)
        assert hi - lo >= F(k - 1, k + 1)


def test_q_halfplanes_needs_k3():
    with pytest.raises(ValueError, match="k >= 3"):
        q_geometry(SpeedVector([2, 1])).halfplanes


def test_q_halfplanes_frozen():
    hps = q_geometry(REMARK_VECTOR).halfplanes
    assert [(h.a1, h.a2, h.b) for h in hps] == [
        (F(-1), F(0), F(-3, 16)),
        (F(1), F(0), F(2)),
        (F(0), F(-1), F(-1, 8)),
        (F(0), F(1), F(15, 8)),
        (F(-16), F(17), F(95, 8)),
        (F(16), F(-17), F(103, 8)),
    ]


def test_q_geometry_vertices_frozen():
    geom = q_geometry(REMARK_VECTOR)
    assert geom.vertices == (
        (F(3, 16), F(1, 8)),
        (F(15, 16), F(1, 8)),
        (F(2), F(9, 8)),
        (F(2), F(15, 8)),
        (F(5, 4), F(15, 8)),
        (F(3, 16), F(7, 8)),
    )
    # A box of zero width leaves a segment, and an empty box an empty cell.
    assert q_geometry(SpeedVector([9, 8, 6, 1])).vertices == ((F(1), F(4, 5)), (F(1), F(13, 15)))
    assert q_geometry(SpeedVector([13, 12, 11, 1])).vertices == ()


def test_q_landmarks_frozen():
    lm = q_geometry(REMARK_VECTOR).landmarks
    assert lm.alpha == F(9, 8)
    assert lm.beta == F(49, 136)
    assert lm.gamma == F(223, 136)
    assert lm.delta == F(7, 8)
    assert lm.zeta == F(9, 8)
    assert lm.kappa == F(19, 16)


@pytest.mark.parametrize("speeds", [(17, 16, 7, 6, 5, 4, 2), (10, 4, 3, 1), (9, 8, 7), (12, 11, 5, 3)])
def test_landmark_relations_to_bounds(speeds):
    # alpha and kappa sit one unit above the lower bounds; delta and
    # zeta sit (k-1)/(k+1) inside the x2 bounds, as read off the
    # half-planes of Q.
    n = SpeedVector(speeds)
    k = n.k
    geom = q_geometry(n)
    hps = geom.halfplanes
    lo1, hi2, lo2 = -hps[0].b, hps[3].b, -hps[2].b
    lm = geom.landmarks
    assert lm.alpha == lo2 + 1
    assert lm.kappa == lo1 + 1
    assert lm.delta == lo2 + F(k - 1, k + 1)
    assert lm.zeta == hi2 - F(k - 1, k + 1)


def _closed_forms(n):
    """Landmarks and lemma widths of Q as the paper writes them, from n alone."""
    k = n.k
    n1, n2, n3, nk = n[0], n[1], n[2], n[-1]
    landmarks = QLandmarks(
        alpha=F(n2, (k + 1) * nk) + F(1, k + 1),
        beta=F(n2, (k + 1) * nk) + F(2 * n2, (k + 1) * n1) - F(k, k + 1),
        gamma=F(k * n2, (k + 1) * n3) - F(2 * n2, (k + 1) * n1) - F(1, k + 1),
        delta=F(n2 - nk, (k + 1) * nk),
        zeta=F(k * (n2 - n3), (k + 1) * n3),
        kappa=F(n1, (k + 1) * nk) + F(1, k + 1),
    )
    spread = F(k, n3) - F(1, nk)
    widths = (
        F(n1, k + 1) * spread + F(k - 1, k + 1),
        F(n2, k + 1) * spread + F(k - 1, k + 1),
        F(n2, k + 1) * spread - F(2, k + 1),
        landmarks.gamma - landmarks.beta,
    )
    return landmarks, widths


def test_landmarks_and_widths_match_closed_forms():
    # The library reads the landmarks and widths off the box bounds of Q;
    # here they come from the paper's closed forms.  Q is empty when a box
    # width is negative, and a subregion when its own width is negative.
    extra = [(17, 16, 7, 6, 5, 4, 2), (12, 11, 5, 3), (13, 12, 11, 1), (100, 99, 98, 1)]
    vectors = list(descending_subsets(10, min_size=3)) + SEEDED_LARGE + extra
    nones = [0] * 4
    for speeds in vectors:
        n = SpeedVector(speeds)
        geom = q_geometry(n)
        landmarks, widths = _closed_forms(n)
        assert geom.landmarks == landmarks, speeds
        if min(widths[:2]) < 0:
            expected = (None,) * 4
        else:
            expected = tuple(w if w >= 0 else None for w in widths)
        assert astuple(geom.lemma_widths) == expected, speeds
        for i, w in enumerate(expected):
            nones[i] += w is None
    # Empty cells, and nonempty cells with each subregion empty, all occur.
    assert nones[0] and nones[2] > nones[0] and nones[3] > nones[0]


@pytest.mark.parametrize("speeds", sorted(descending_subsets(8, min_size=3)))
def test_q_vertices_are_valid(speeds):
    n = SpeedVector(speeds)
    geom = q_geometry(n)
    verts = geom.vertices
    assert len(set(verts)) == len(verts)
    for x1, x2 in verts:
        assert all(halfplane_lhs(h, x1, x2) <= h.b for h in geom.halfplanes)
        assert sum(halfplane_lhs(h, x1, x2) == h.b for h in geom.halfplanes) >= 2
    # Counterclockwise convex position: no clockwise turn anywhere.
    m = len(verts)
    if m >= 3:
        for i in range(m):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % m]
            cx, cy = verts[(i + 2) % m]
            assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) >= 0


def test_q_vertices_are_complete():
    # Validity and convexity do not show that no vertex is missing: every
    # feasible crossing of two boundary lines must be a vertex, and the
    # cycle starts at its lexicographic minimum.
    for speeds in descending_subsets(10, min_size=3):
        geom = q_geometry(SpeedVector(speeds))
        assert set(geom.vertices) == halfplane_vertices(geom.halfplanes), speeds
        assert not geom.vertices or geom.vertices[0] == min(geom.vertices), speeds


def test_width_of_a_point_is_zero():
    point = (
        HalfPlane(F(1), F(0), F(2)),
        HalfPlane(F(-1), F(0), F(-2)),
        HalfPlane(F(0), F(1), F(3)),
        HalfPlane(F(0), F(-1), F(-3)),
    )
    assert width(point, (1, 0)) == 0
    assert width(point, (3, 5)) == 0


def test_width_empty_and_unbounded_errors():
    empty = (HalfPlane(F(1), F(0), F(0)), HalfPlane(F(-1), F(0), F(-1)))
    with pytest.raises(ValueError, match="empty"):
        width(empty, (1, 0))
    half_strip = (HalfPlane(F(1), F(0), F(1)), HalfPlane(F(0), F(1), F(1)), HalfPlane(F(0), F(-1), F(0)))
    with pytest.raises(ValueError, match="unbounded"):
        width(half_strip, (1, 0))
    assert support_bounds(half_strip, (1, 0)) == (None, F(1))
    assert width(half_strip, (0, 1)) == 1


@pytest.mark.parametrize(
    "speeds", [(17, 16, 7, 6, 5, 4, 2), (9, 8, 7), (12, 9, 7, 5), (11, 10, 9, 8, 2), (9, 8, 6, 1)] + SEEDED_LARGE
)
def test_width_agrees_with_vertex_extremes(speeds):
    # Fourier-Motzkin over the six half-planes against the clipped vertices.
    geom = q_geometry(SpeedVector(speeds))
    if not geom.vertices:
        assert not project(geom.halfplanes, (1, 0))[0]
        return
    for d in [(1, 0), (0, 1), (2, 3), (-1, 5)]:
        values = [d[0] * x1 + d[1] * x2 for x1, x2 in geom.vertices]
        assert width(geom.halfplanes, d) == max(values) - min(values)


def test_lemma_widths_frozen():
    w = q_geometry(REMARK_VECTOR).lemma_widths
    assert (w.wq_e1, w.wq_e2, w.wq2_e2, w.wq5_e2) == (F(29, 16), F(7, 4), F(3, 4), F(87, 68))
    w = q_geometry(SpeedVector([10, 4, 3, 1])).lemma_widths
    assert (w.wq_e1, w.wq_e2, w.wq2_e2, w.wq5_e2) == (F(19, 15), F(13, 15), None, F(41, 75))
    w = q_geometry(SpeedVector([100, 99, 98, 1])).lemma_widths
    assert (w.wq_e1, w.wq_e2, w.wq2_e2, w.wq5_e2) == (None, None, None, None)


def test_lemma_widths_emptiness_matches_projection():
    # Which widths are None is decided from the clipped vertices; the
    # extended half-plane systems decide it a second way.
    for speeds in descending_subsets(10, min_size=3):
        n = SpeedVector(speeds)
        geom = q_geometry(n)
        hps = geom.halfplanes
        lm = geom.landmarks
        above_alpha = hps + (HalfPlane(F(0), F(-1), -lm.alpha),)
        slab = hps + (HalfPlane(F(0), F(-1), -lm.beta), HalfPlane(F(0), F(1), lm.gamma))
        w = geom.lemma_widths
        assert (w.wq_e1 is not None) == project(hps, (1, 0))[0], speeds
        assert (w.wq2_e2 is not None) == project(above_alpha, (1, 0))[0], speeds
        assert (w.wq5_e2 is not None) == project(slab, (1, 0))[0], speeds


def test_lemma_widths_needs_k3():
    with pytest.raises(ValueError, match="k >= 3"):
        q_geometry(SpeedVector([2, 1])).lemma_widths


def test_lemma_suite_small_sweep():
    # Hypothesis-gated width bounds on a bounded family; acceptance
    # covers the larger range.
    checked = 0
    for speeds in descending_subsets(9, min_size=3):
        n = SpeedVector(speeds)
        k = n.k
        n1, n2, n3, nk = n[0], n[1], n[2], n[k - 1]
        if n2 * (k * nk - n3) < (k + 1) * n3 * nk:
            continue
        checked += 1
        w = q_geometry(n).lemma_widths
        assert w.wq_e1 is not None and w.wq_e1 >= 1
        assert w.wq_e2 is not None and w.wq_e2 >= 1
        assert w.wq2_e2 is not None and w.wq2_e2 >= F(k - 1, k + 1)
        if k >= 4 and 2 * n1 > (k - 1) * n2:
            assert w.wq5_e2 is not None and w.wq5_e2 > 1
    assert checked > 0


def test_integer_point_frozen():
    assert q_integer_point(REMARK_VECTOR) == (1, 1)
    assert q_integer_point(SpeedVector([4, 3, 2])) == (0, 0)
    assert q_integer_point(SpeedVector([100, 99, 98, 1])) is None


@pytest.mark.parametrize("speeds", sorted(descending_subsets(8, min_size=3)))
def test_integer_point_matches_brute_scan(speeds):
    n = SpeedVector(speeds)
    geom = q_geometry(n)
    found = q_integer_point(n)
    if not geom.vertices:
        assert found is None
        return
    x1_lo = math.ceil(min(v[0] for v in geom.vertices))
    x1_hi = math.floor(max(v[0] for v in geom.vertices))
    x2_lo = math.ceil(min(v[1] for v in geom.vertices))
    x2_hi = math.floor(max(v[1] for v in geom.vertices))
    hits = brute_integer_points_in_region(
        geom.halfplanes, range(x1_lo, x1_hi + 1), range(x2_lo, x2_hi + 1)
    )
    if not hits:
        assert found is None
    else:
        best = min(hits, key=lambda p: (p[1], p[0]))
        assert found == best


def test_lift_frozen_examples():
    # 1 is in the 1D window [3/8, 9/8] of m, and 5 is not.
    m = SpeedVector([20, 14, 8, 6, 5, 4, 2])
    assert zero_pad(m, (1,)) == (1, 0, 0, 0, 0, 0, 0)
    assert contains(m, zero_pad(m, (1,)))
    assert not contains(m, zero_pad(m, (5,)))
    n = SpeedVector([4, 3, 2])
    assert contains(n, zero_pad(n, (0, 0)))
    lifted = zero_pad(REMARK_VECTOR, q_integer_point(REMARK_VECTOR))
    assert lifted == (1, 1, 0, 0, 0, 0, 0)
    assert contains(REMARK_VECTOR, lifted)
    # The 2D window of REMARK_VECTOR: x1 in [3/16, 2], x2 in [1/8, 15/8]
    # and -95/8 <= 16 x1 - 17 x2 <= 103/8.  (0, 0) misses the box; (2, 1)
    # is in the box, but 16*2 - 17*1 = 15 is above the band.
    assert not contains(REMARK_VECTOR, zero_pad(REMARK_VECTOR, (0, 0)))
    assert not contains(REMARK_VECTOR, zero_pad(REMARK_VECTOR, (2, 1)))


@pytest.mark.parametrize("speeds", sorted(descending_subsets(8, min_size=3)))
def test_lift_soundness_from_q(speeds):
    # Any integer point of the planar cell zero-pads into P(n) when
    # n_3 <= k * n_k.  q_integer_point finds the point from Q's
    # half-planes, and contains tests the padded point against P(n).
    n = SpeedVector(speeds)
    if n[2] > n.k * n[n.k - 1]:
        return
    p = q_integer_point(n)
    if p is not None:
        assert contains(n, zero_pad(n, p))


@pytest.mark.parametrize("speeds", sorted(descending_subsets(7, min_size=2)))
def test_lift_soundness_from_p1(speeds):
    n = SpeedVector(speeds)
    if n[1] > n.k * n[n.k - 1]:
        return
    lo, hi = p1_window(n)
    c = math.ceil(lo)
    if c > math.floor(hi):
        return
    assert contains(n, zero_pad(n, (c,)))


def _half_steps(lo, hi):
    """Multiples of 1/2 in [lo, hi] widened by 1 on each side (either order)."""
    lo, hi = min(lo, hi) - 1, max(lo, hi) + 1
    return [F(j, 2) for j in range(math.ceil(2 * lo), math.floor(2 * hi) + 1)]


def _check_window_point(n, point, inside, seen):
    """Check the window's verdict ``inside`` against P(n) at the padded point; count integer points."""
    assert contains(n, zero_pad(n, point)) == inside, (n, point)
    if all(x.denominator == 1 for x in point):
        seen[inside] += 1


def test_p1_window_is_membership_of_the_padded_point():
    seen = {True: 0, False: 0}
    for speeds in descending_subsets(8, min_size=2):
        n = SpeedVector(speeds)
        if n[1] > n.k * n[-1]:
            continue
        lo, hi = p1_window(n)
        for x in _half_steps(lo, hi):
            _check_window_point(n, (x,), lo <= x <= hi, seen)
    assert seen[True] and seen[False]


def test_q_window_is_membership_of_the_padded_point():
    seen = {True: 0, False: 0}
    for speeds in descending_subsets(8, min_size=3):
        n = SpeedVector(speeds)
        if n[2] > n.k * n[-1]:
            continue
        halfplanes = q_geometry(n).halfplanes
        lo1, hi1, lo2, hi2 = -halfplanes[0].b, halfplanes[1].b, -halfplanes[2].b, halfplanes[3].b
        for x1 in _half_steps(lo1, hi1):
            for x2 in _half_steps(lo2, hi2):
                inside = all(halfplane_lhs(h, x1, x2) <= h.b for h in halfplanes)
                _check_window_point(n, (x1, x2), inside, seen)
    assert seen[True] and seen[False]


def test_translate_invariance_frozen_examples():
    assert translate_invariance_check(SpeedVector([2, 1]), (1, 1), 2)
    assert translate_invariance_check(SpeedVector([3, 2, 1]), (0, 1, 0), 2)
    assert translate_invariance_check(SpeedVector([4, 3, 2]), (-1, 0, 2), 2)
