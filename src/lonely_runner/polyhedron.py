"""The runner polyhedron and its planar window.

For a speed vector n_1 > ... > n_k, the runner polyhedron P(n) is the
set of x in R^k with

    (n_i - k n_j)/(k+1)  <=  n_j x_i - n_i x_j  <=  (k n_i - n_j)/(k+1)

for all 1 <= i < j <= k.  A vector is a lonely runner instance exactly
when P(n) contains an integer point, which is what makes the geometry
worth computing: wide windows force integer points.  The public
functions read their speeds through SpeedVector: any order, and
ValueError on invalid ones.

P(n) is invariant along the direction n itself (adding c*n to x leaves
every n_j x_i - n_i x_j unchanged), so P(n) is never bounded and its
true coordinate projections are unbounded too.  Instead of a projection
we work with a bounded window into P(n) on the first two coordinates:
the hexagonal cell Q cut out by six half-planes (box bounds on x_1 and
x_2 plus a slant band on n_2 x_1 - n_1 x_2).  These are P(n)'s pair
constraints with x_3 = ... = x_k = 0: x_1 or x_2 against a padded
coordinate gives its box bound, tightest against x_k below and x_3
above, and the pair (1, 2) gives the band.  The window is useful one
way round: an integer point of Q zero-pads to an integer point of P(n)
whenever n_3 <= k n_k (and an integer x_1 of the one-coordinate window
whenever n_2 <= k n_k).  That is how the width and modular rules of
``classify`` certify instances, and the tests take this route to
confirm them a second way.  Everything is exact rational arithmetic.
The band cuts at most two corners off the box, so Q's vertices have a
closed form, and its landmarks and lemma widths are read off the box.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .model import SpeedVector

__all__ = [
    "HalfPlane",
    "QLandmarks",
    "QGeometry",
    "LemmaWidths",
    "contains",
    "q_geometry",
]

_ZERO = Fraction(0)


class HalfPlane(NamedTuple):
    """Constraint a1*x1 + a2*x2 <= b with exact rational coefficients."""

    a1: Fraction
    a2: Fraction
    b: Fraction


class QLandmarks(NamedTuple):
    """Distinguished x_2 levels (and one x_1 level, kappa) of Q.

    alpha is one unit above the bottom bound, so integer x_2 slices
    exist between them; beta and gamma sit 2 n_2/((k+1) n_1) inside the
    bottom and top bounds and bound the slab whose every x_2 level
    still spans more than one unit of x_1 when the cell is wide; delta
    and zeta sit (k-1)/(k+1) inside the bottom and top bounds; kappa is
    one unit above the left x_1 bound.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    zeta: Fraction
    kappa: Fraction


class LemmaWidths(NamedTuple):
    """Widths of Q and two subregions, read from the box bounds; None when empty.

    wq_e1 and wq_e2 are the widths of the box on x_1 and x_2; wq2_e2 is
    the x_2 width of Q cut to x_2 >= alpha; wq5_e2 is the x_2 width of
    Q cut to beta <= x_2 <= gamma.  They match the true (vertex-derived)
    widths whenever the box bounds of Q are facets, which holds under
    n_2 (k/n_3 - 1/n_k) >= k + 1.
    """

    wq_e1: Fraction | None
    wq_e2: Fraction | None
    wq2_e2: Fraction | None
    wq5_e2: Fraction | None


class QGeometry(NamedTuple):
    """Q as one value: six half-planes, vertices in CCW order, landmarks, lemma widths."""

    halfplanes: tuple[HalfPlane, ...]
    vertices: tuple[tuple[Fraction, Fraction], ...]
    landmarks: QLandmarks
    lemma_widths: LemmaWidths


def contains(n: Iterable[int], x: Sequence[Fraction | int]) -> bool:
    """Exact membership of x, a point of ints and Fractions (no floats), in P(n).

    x_i pairs with the i-th fastest of the speeds n, which come in any
    order, as ``lattice_witness_from_time`` orders its point.
    """
    n = SpeedVector(n)
    if len(x) != n.k:
        raise ValueError(f"point has dimension {len(x)}, expected {n.k}")
    if not all(isinstance(c, (int, Fraction)) and not isinstance(c, bool) for c in x):
        raise ValueError(f"coordinates must be ints or Fractions, got {x!r}")
    k = n.k
    for i in range(k):
        for j in range(i + 1, k):
            # P(n)'s bounds on n_j x_i - n_i x_j, times k + 1, are integers.
            if not n[i] - k * n[j] <= (k + 1) * (n[j] * x[i] - n[i] * x[j]) <= k * n[i] - n[j]:
                return False
    return True


def q_geometry(n: Iterable[int]) -> QGeometry:
    """The planar cell Q of the speeds n, in any order, for k >= 3 (the bounds involve n_3).

    The half-planes come in the order x1 lower, x1 upper, x2 lower, x2
    upper, slant lower, slant upper, where the slant constraints bound
    n_2 x_1 - n_1 x_2.  Points of Q zero-pad into P(n) when
    n_3 <= k * n_k.  The lemma widths are None exactly when their region
    is empty, decided from the x_2 range [lo2, hi2] of Q, which Q spans
    whenever the box is nonempty, not by the sign of the closed form: Q
    cut to x_2 >= alpha is empty when alpha is above the range, and Q
    cut to the slab [beta, gamma] when beta > gamma, as the slab sits
    the positive inset 2 n_2/((k+1) n_1) inside the range.
    """
    n = SpeedVector(n)
    if n.k < 3:
        raise ValueError("the 2D cell needs k >= 3")
    k, n1, n2, n3, nk = n.k, n[0], n[1], n[2], n[-1]
    # Box bounds on x_1 and x_2: P(n)'s constraint on the pair (i, j) with
    # the padded x_j = 0, (n_i - k n_j)/(k+1) <= n_j x_i <= (k n_i - n_j)/(k+1)
    # for every j >= 3, is tightest at j = k below and at j = 3 above.
    lo1, hi1 = Fraction(n1 - k * nk, (k + 1) * nk), Fraction(k * n1 - n3, (k + 1) * n3)
    lo2, hi2 = Fraction(n2 - k * nk, (k + 1) * nk), Fraction(k * n2 - n3, (k + 1) * n3)
    # Band bounds on n_2 x_1 - n_1 x_2, from the pair (1, 2).
    lo5, hi5 = Fraction(n1 - k * n2, k + 1), Fraction(k * n1 - n2, k + 1)
    inset = Fraction(k - 1, k + 1)
    slab = Fraction(2 * n2, (k + 1) * n1)
    lm = QLandmarks(lo2 + 1, lo2 + slab, hi2 - slab, lo2 + inset, hi2 - inset, lo1 + 1)
    one = Fraction(1)
    halfplanes = (
        HalfPlane(-one, _ZERO, -lo1),
        HalfPlane(one, _ZERO, hi1),
        HalfPlane(_ZERO, -one, -lo2),
        HalfPlane(_ZERO, one, hi2),
        HalfPlane(Fraction(-n2), Fraction(n1), -lo5),
        HalfPlane(Fraction(n2), Fraction(-n1), hi5),
    )
    if lo1 <= hi1:
        # At the box corner (lo1, lo2), g = n_2 x_1 - n_1 x_2 is
        # (k-1) n_1/(k+1) above lo5 and (k-1) n_2/(k+1) below hi5, and at
        # (hi1, hi2) the margins swap, so Q is empty only with the box.  As
        # g rises with x_1 and falls with x_2, only hi5 can cut the corner
        # (hi1, lo2) and only lo5 the corner (lo1, hi2): on each edge at such
        # a corner the vertex is the band's crossing clamped to the edge, and
        # repeats are dropped.  With lo1 <= hi1, also lo2 < hi2 (the x_2 width
        # is at most 0 only when the x_1 width is negative, as n_1 > n_2), so
        # the box is nonempty, Q keeps its first vertex, the lexicographic
        # minimum, and spans the whole x_2 range [lo2, hi2].
        cycle = [
            (lo1, lo2),
            (min(hi1, (hi5 + n1 * lo2) / n2), lo2),
            (hi1, max(lo2, (n2 * hi1 - hi5) / n1)),
            (hi1, hi2),
            (max(lo1, (lo5 + n1 * hi2) / n2), hi2),
            (lo1, min(hi2, (n2 * lo1 - lo5) / n1)),
        ]
        vertices = tuple(p for i, p in enumerate(cycle) if p != cycle[i - 1])
        widths = LemmaWidths(
            hi1 - lo1,
            hi2 - lo2,
            hi2 - lm.alpha if lm.alpha <= hi2 else None,
            lm.gamma - lm.beta if lm.beta <= lm.gamma else None,
        )
    else:
        vertices, widths = (), LemmaWidths(None, None, None, None)
    return QGeometry(halfplanes, vertices, lm, widths)
