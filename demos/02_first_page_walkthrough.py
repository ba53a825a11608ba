"""The first page of the contact locus spectral sequence, step by step.

For the cusp x^2 + y^3 we walk m = 1..6 through the full pipeline:
separate the resolution at m, pick an ample weight vector, list the
contributing divisors S_m, assemble the page, and read off exact
cohomology or rank bounds.
"""

from contactloci import (
    contributing_set,
    degeneration_analysis,
    e1_page,
    mclean_relabel,
    multiplicity_case_prediction,
    render_page_table,
    resolve_plane_curve,
    separate,
    solve_weights,
)

cusp, _ = resolve_plane_curve("x^2 + y^3")

for m in range(1, 7):
    sep, records = separate(cusp, m)
    w = solve_weights(sep)
    cset = contributing_set(sep, w, m)
    page = e1_page(sep, w, m)
    hc = degeneration_analysis(page)
    print(f"== m = {m}: {len(records)} separating blowups, "
          f"S_m = {[sep.divisor(i).label for i in cset.ids()]}")
    print(render_page_table(page, sep))
    for s in hc.statuses:
        if s.kind == "exact":
            print(f"   H_c^{s.degree} = Z^{s.rank}")
        else:
            print(f"   H_c^{s.degree}: rank in [{s.lo}, {s.hi}] ({s.kind})")
    print(f"   euler characteristic {hc.euler}")
    print()

# m = 2 is the multiplicity of the cusp, so the locus fibers over the
# Milnor fiber of the initial form x^2, two parallel lines (b_0 = 2):
prediction = multiplicity_case_prediction(2, 2, (2,))
page2 = e1_page(cusp, solve_weights(cusp), 2)
print("multiplicity case check:", prediction, "==", page2.ranks_by_total_degree())

# The same page in the Floer-style grading differs by 2dm + d - 1:
print("relabelled totals:", mclean_relabel(page2).ranks_by_total_degree())
