"""Resolve plane curve germs and inspect the resulting configurations.

Each blowup tracks the multiplicity m_i (order of f along the new curve),
the log discrepancy nu_i, and the self-intersections; the final output is
the combinatorial shadow of the resolution: divisors plus dual graph.
"""

from contactloci import (
    euler_open_stratum,
    pair_multiplicities,
    resolve_plane_curve,
    validate_configuration,
    zeta_factorization,
)

for text in ("x^2 + y^3", "x*y", "x^3 + y^4", "x^2 + y^2"):
    cfg, log = resolve_plane_curve(text)
    print(f"== {text} ==")
    print(f"   factors: {[(t, e) for _, t, e in log.factors]}, "
          f"{len(log.blowups)} blowups")
    for d in cfg.divisors:
        kind = "exceptional" if d.exceptional else "strict"
        chi = euler_open_stratum(cfg, d.id)
        print(f"   {d.label}: m={d.mult}, nu={d.disc}, self={d.self_int}, "
              f"chi(open stratum)={chi} ({kind})")
    # curve-case cells are pairs, so pair_multiplicities lists one per cell
    edges = [((i, j), pm, cell.count) for (i, j, pm), cell in zip(pair_multiplicities(cfg), cfg.cells)]
    print(f"   dual graph edges (pair multiplicity, points): {edges}")
    print(f"   monodromy zeta: {zeta_factorization(cfg).render()}")
    assert validate_configuration(cfg) == []
    print()

# The conjugate pair x^2 + y^2 shows a cluster cell: the strict transform
# meets the exceptional curve in two conjugate points, recorded as one
# cell of count 2; over the complex numbers this is the ordinary node.
