"""Newton polygons of polynomials in two variables.

The Newton polygon of f = sum c_ab x^a y^b is the convex hull of the
exponents (a, b) with c_ab != 0.  Ostrowski's theorem says that
Newt(g h) = Newt(g) + Newt(h) (Minkowski sum).  So if f has no monomial
factor and its polygon is not the Minkowski sum of two lattice polygons
with more than one point each (it is integrally indecomposable), then f is
absolutely irreducible (S. Gao, "Absolute irreducibility of polynomials
via Newton polytopes", J. Algebra 237, 2001).
"""

from __future__ import annotations

import math
from typing import Iterable

Point = tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Vertices of the convex hull, counter-clockwise from the least point
    (Andrew's monotone chain); points inside edges are left out.  A segment
    gives its two ends, a single point itself."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list[Point] = []
    upper: list[Point] = []
    for chain, ordered in ((lower, pts), (upper, reversed(pts))):
        for p in ordered:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def edges(vertices: list[Point]) -> list[tuple[int, Point]]:
    """The boundary as (n_k, v_k) with edge k = n_k * v_k and v_k primitive,
    in cyclic order.  A segment has two edges, there and back."""
    if len(vertices) < 2:
        return []
    out = []
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        n = math.gcd(bx - ax, by - ay)
        out.append((n, ((bx - ax) // n, (by - ay) // n)))
    return out


def is_decomposable(points: Iterable[Point]) -> bool:
    """Whether the Newton polygon of these exponents is integrally
    decomposable.

    By Gao's criterion it is iff some 0 <= c_k <= n_k, neither all 0 nor
    all n_k, has sum c_k v_k = 0.  The search keeps the reachable partial
    sums, each with two flags: some c_k > 0 so far, some c_k < n_k so far.
    """
    reachable = {(0, 0, False, False)}
    for n, (vx, vy) in edges(convex_hull(points)):
        reachable = {
            (sx + c * vx, sy + c * vy, some or c > 0, short or c < n)
            for sx, sy, some, short in reachable
            for c in range(n + 1)
        }
    return (0, 0, True, True) in reachable
