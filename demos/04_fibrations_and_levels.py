"""Jet-level bookkeeping: chart fibrations, stable levels, dimensions.

The resolution map induces affine-space fibrations on jet spaces; their
dimensions k_i (nu_i - 1) explain the degree shifts in the page assembly.
These are checked here by raw enumeration on a blowup chart, together
with the level at which the contact strata stabilize.
"""

from contactloci import resolve_plane_curve, stratum_dimension, verify_chart_fibration

# x = y1 * y2, restricted to jets where y2 has order exactly m: every
# fiber of the induced map on level-l jets is an affine space of
# dimension (nu - 1) m = m here.
for m in (0, 1, 2):
    report = verify_chart_fibration(m, m + 1, 3, d=2, nu=2)
    print(f"chart fibration m={m}: fibers of size {report.expected_fiber} "
          f"over {report.n_images} images -> {'ok' if report.passed else 'BROKEN'}")

cusp, _ = resolve_plane_curve("x^2 + y^3")
print()
# A divisor E_i of S_m has contact order k = m / m_i, and jets with that
# contact order have resolution fibers of dimension k (nu_i - 1).  The
# contact strata are pulled back from level l_0 on, l_0 the largest
# max(2 k (nu_i - 1), k (nu_i - 1) + m) over S_m.
for m in (2, 3, 6):
    fibers = [(d, m // d.mult * (d.disc - 1))
              for d in cusp.divisors if d.over_sigma and m % d.mult == 0]
    print(f"m = {m}:")
    print("  stabilization level:", max(max(2 * fiber, fiber + m) for _, fiber in fibers))
    for d, fiber in fibers:
        dim = stratum_dimension(cusp, d.id, m)
        print(f"  {d.label}: contact stratum dimension {dim}, "
              f"resolution fiber dimension {fiber}")
