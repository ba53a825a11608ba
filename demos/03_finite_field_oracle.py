"""Exact jet counts over small prime fields.

Counting jets with prescribed contact order is an exact computation over
F_q; when the counts are polynomial in q, the value of the fitted
polynomial at q = 1 is the Euler characteristic of the complex locus,
which must match the A'Campo Lefschetz number computed from the
resolution combinatorics alone.
"""

from contactloci import (
    contact_count,
    interpolate_chi,
    lefschetz_number,
    resolve_plane_curve,
    stratified_count,
)

node, _ = resolve_plane_curve("x*y")
cusp, _ = resolve_plane_curve("x^2 + y^3")

# Node, m = 2: the locus is (a torus) x (affine space), so its count is
# (q - 1) q^2 and its Euler characteristic vanishes.
counts = [(q, contact_count("x*y", 2, 2, q).total) for q in (3, 5, 7)]
fit = interpolate_chi(counts)
print("node m=2 counts:", counts)
print("fit:", fit.render(), " chi at q=1:", fit.chi,
      " lefschetz:", lefschetz_number(node, 2))

# Cusp, m = 2: two disjoint affine cells.
counts = [(q, contact_count("x^2+y^3", 2, 2, q).total) for q in (3, 5, 7, 11)]
fit = interpolate_chi(counts)
print("cusp m=2 fit:", fit.render(), " chi:", fit.chi,
      " lefschetz:", lefschetz_number(cusp, 2))

# Cusp, m = 3: the cover splits into three components only over primes
# with q = 1 mod 3, so the prime pool must be filtered.
counts = [(q, contact_count("x^2+y^3", 3, 3, q).total) for q in (7, 13)]
fit = interpolate_chi(counts)
print("cusp m=3 (q = 1 mod 3) fit:", fit.render(), " chi:", fit.chi,
      " lefschetz:", lefschetz_number(cusp, 3))

# Vanishing-order strata identify which exceptional divisor each jet
# lifts to.  For the cusp at m = 2 the contributing divisor is the first
# blowup with weights (1,1): order exactly 1 in x, anything in y.
report = stratified_count("x^2+y^3", 2, 3, 5)
print("cusp m=2, l=3, q=5 strata:", dict(report.strata))
divisor_stratum = sum(count for (ord_x, _), count in report.strata if ord_x == 1)
print("aggregated stratum:", divisor_stratum,
      "= cover points x q^(d l - k nu):", 2 * 5, "x", 5 ** 4)
