import random

import pytest

from contactloci.covers import covers_for
from contactloci.curves import point_configuration, resolve_plane_curve
from contactloci.errors import DomainError, MissingCoverDataError, NotMSeparatingError
from contactloci.model import Divisor, SncConfiguration
from contactloci.separation import separate
from contactloci.spectral import (
    DegreeStatus,
    E1Page,
    HcReport,
    PageEntry,
    contributing_set,
    degeneration_analysis,
    e1_page,
    mclean_relabel,
    multiplicity_case_prediction,
    rational_gap_analysis,
    render_page_table,
    stratum_dimension,
)
from contactloci.weights import WeightVector, solve_weights

from conftest import hand_built_cusp, hand_built_node, milnor_betti_homogeneous_isolated, page_content

CUSP_W = WeightVector.from_dict({0: 4, 1: 6, 2: 11, 3: 0})


def test_contributing_set_cusp_m6():
    cset = contributing_set(hand_built_cusp(), CUSP_W, 6)
    assert cset.members == ((0, 3, -12), (1, 2, -12), (2, 1, -11))


def test_contributing_set_empty_for_m5():
    assert contributing_set(hand_built_cusp(), CUSP_W, 5).members == ()


def test_contributing_set_node():
    w = WeightVector.from_dict({0: 1, 1: 0, 2: 0})
    cset = contributing_set(hand_built_node(), w, 2)
    assert cset.members == ((0, 1, -1),)


def test_contributing_set_requires_separation():
    with pytest.raises(NotMSeparatingError) as err:
        contributing_set(hand_built_cusp(), CUSP_W, 7)
    assert err.value.ids == (2, 3)
    assert err.value.pair_mult == 7


@pytest.mark.parametrize("r,m", [(2, 2), (2, 4), (3, 6), (5, 5), (3, 5), (4, 8)])
def test_power_family_page(r, m):
    cfg = point_configuration(r)
    w = solve_weights(cfg)
    page = e1_page(cfg, w, m)
    if m % r:
        assert page.nonzero() == []
    else:
        entries = page.nonzero()
        assert len(entries) == 1
        p, q, entry = entries[0]
        assert (p, q) == (0, 2 * (m - m // r))
        assert entry.rank == r


def test_cusp_m2_page():
    page = e1_page(hand_built_cusp(), CUSP_W, 2)
    assert [(p + q, e.rank) for p, q, e in page.nonzero()] == [(6, 2)]


def test_cusp_m6_page_by_total_degree():
    page = e1_page(hand_built_cusp(), CUSP_W, 6)
    assert page.ranks_by_total_degree() == {14: 5, 15: 7, 16: 1}
    by_cell = {(p, q): e.rank for p, q, e in page.nonzero()}
    assert by_cell == {(-12, 26): 5, (-11, 26): 7, (-11, 27): 1}
    assert page.euler_characteristic() == -1


def test_e1_missing_cover_data():
    cusp = hand_built_cusp()
    partial = covers_for(cusp, (0, 1))
    with pytest.raises(MissingCoverDataError):
        e1_page(cusp, CUSP_W, 6, partial)


def test_degeneration_cusp_m2_exact():
    hc = degeneration_analysis(e1_page(hand_built_cusp(), CUSP_W, 2))
    status = hc.status(6)
    assert status.kind == "exact" and status.rank == 2
    assert hc.integral_forced and hc.rational_window_forced
    assert hc.status(5).kind == "zero"


def test_degeneration_cusp_m6_bounds():
    hc = degeneration_analysis(e1_page(hand_built_cusp(), CUSP_W, 6))
    assert hc.status(16).kind == "exact"
    assert (hc.status(16).lo, hc.status(16).hi) == (1, 1)
    assert hc.status(14).kind == "bounds"
    assert (hc.status(14).lo, hc.status(14).hi) == (0, 5)
    assert (hc.status(15).lo, hc.status(15).hi) == (2, 7)
    assert hc.euler == -1
    assert not hc.integral_forced and not hc.rational_window_forced
    # the euler constraint is attainable inside the boxes
    lows = {s.degree: s.lo for s in hc.statuses}
    highs = {s.degree: s.hi for s in hc.statuses}
    lo_chi = sum((v if d % 2 == 0 else 0) for d, v in lows.items()) - sum(
        (v if d % 2 else 0) for d, v in highs.items()
    )
    hi_chi = sum((v if d % 2 == 0 else 0) for d, v in highs.items()) - sum(
        (v if d % 2 else 0) for d, v in lows.items()
    )
    assert lo_chi <= hc.euler <= hi_chi


def test_degeneration_empty_page():
    page = e1_page(hand_built_cusp(), CUSP_W, 5)
    hc = degeneration_analysis(page)
    assert hc.statuses == ()
    assert hc.euler == 0
    assert hc.integral_forced


def test_single_column_pages_are_exact():
    # distinct divisors sharing one column cannot interact (d_0 vanishes)
    node, _ = resolve_plane_curve("x*y")
    sep, _ = separate(node, 3)
    w = solve_weights(sep)
    page = e1_page(sep, w, 3)
    columns = {p for p, q, e in page.nonzero()}
    assert len(columns) == 1
    hc = degeneration_analysis(page)
    assert all(s.kind == "exact" for s in hc.statuses)
    assert page.ranks_by_total_degree() == {7: 2, 8: 2}


def test_mclean_relabel_shifts():
    page = e1_page(hand_built_cusp(), CUSP_W, 2)
    relabeled = mclean_relabel(page)
    # d = 2, m = 2: shift 2*2*2 + 2 - 1 = 9, so 6 moves to -3
    assert relabeled.ranks_by_total_degree() == {-3: 2}
    assert relabeled.entries == tuple(((p, q - 9), e) for (p, q), e in page.entries)
    assert relabeled.total_shift == -9

    for r in (2, 3):
        cfg = point_configuration(r)
        w = solve_weights(cfg)
        page_r = mclean_relabel(e1_page(cfg, w, r))
        # d = 1, m = r: shift 2r, so 2(r-1) moves to -2
        assert page_r.ranks_by_total_degree() == {-2: r}


def test_mclean_relabel_empty():
    page = e1_page(hand_built_cusp(), CUSP_W, 5)
    assert mclean_relabel(page).nonzero() == []


def test_multiplicity_case_predictions():
    # cusp: initial form x^2, d = 2, m = 2
    assert multiplicity_case_prediction(2, 2, (2,)) == {6: 2}
    # x^3 + y^3: homogeneous of degree 3 with an isolated singularity
    betti = milnor_betti_homogeneous_isolated(3, 2)
    assert betti == (1, 4)
    assert multiplicity_case_prediction(2, 3, betti) == {10: 1, 9: 4}
    # d = 1, f = x^r
    for r in (2, 5):
        assert multiplicity_case_prediction(1, r, (r,)) == {2 * (r - 1): r}


def test_multiplicity_case_agrees_with_page():
    page = e1_page(hand_built_cusp(), CUSP_W, 2)
    predicted = multiplicity_case_prediction(2, 2, (2,))  # {x^2 = 1}: 2 parallel lines
    assert page.ranks_by_total_degree() == predicted


def test_homogeneous_isolated_d1_merges():
    assert milnor_betti_homogeneous_isolated(4, 1) == (4,)


def test_stratum_dimension_examples():
    cusp = hand_built_cusp()
    assert stratum_dimension(cusp, 0, 2) == 3
    assert stratum_dimension(cusp, 2, 6) == 8
    node = hand_built_node()
    assert stratum_dimension(node, 0, 2, jet_level=3) == 5
    with pytest.raises(DomainError):
        stratum_dimension(cusp, 0, 3)  # 2 does not divide 3


def test_parity_and_euler_identity():
    # all entries of one divisor sit in degrees of one parity mod its
    # homology degree, and the page euler characteristic matches the
    # cover euler characteristics exactly
    for text, m in (("x^2+y^3", 6), ("x*y", 2), ("x^3+y^4", 12)):
        cfg, _ = resolve_plane_curve(text)
        sep, _ = separate(cfg, m)
        w = solve_weights(sep)
        cset = contributing_set(sep, w, m)
        covers = covers_for(sep, cset.ids())
        page = e1_page(sep, w, m, covers)
        assert page.euler_characteristic() == sum(covers[i].euler() for i in cset.ids())


def test_weight_invariance_of_content():
    cusp = hand_built_cusp()
    w1 = CUSP_W
    w2 = CUSP_W.scaled(2)
    w3 = WeightVector.from_dict({0: 5, 1: 7, 2: 13, 3: 0})
    pages = [e1_page(cusp, w, 6) for w in (w1, w2, w3)]
    contents = {page_content(page) for page in pages}
    assert len(contents) == 1
    totals = {tuple(sorted(page.ranks_by_total_degree().items())) for page in pages}
    assert len(totals) == 1
    # but the column labels do move
    assert pages[0].entries != pages[1].entries


def test_separation_invariance_of_page():
    cusp = hand_built_cusp()
    already = separate(cusp, 6)[0]
    assert e1_page(already, CUSP_W, 6) == e1_page(cusp, CUSP_W, 6)
    # separating past m never adds contributors at m
    finer, records = separate(cusp, 8)
    assert records
    w = solve_weights(finer)
    page = e1_page(finer, w, 6)
    assert page.ranks_by_total_degree() == {14: 5, 15: 7, 16: 1}
    new_ids = {r.new_id for r in records}
    touched = {i for _, _, e in page.nonzero() for i, _ in e.contributors}
    assert not (new_ids & touched)


def test_supplied_higher_dim_bookkeeping():
    # ambient_dim 3 with supplied strata data: columns and degrees only
    cfg = SncConfiguration(
        ambient_dim=3,
        divisors=(
            Divisor(0, "E", 2, 3, True, True, euler_open=2, cover_betti=(2, 0, 2),
                    cover_torsion=((), (3,))),
        ),
        cells=(),
    )
    w = WeightVector.from_dict({0: 1})
    page = e1_page(cfg, w, 2)
    # dim = 3*(2+1) - 1*3 - 1 = 5, so H_0 lands in total degree 10
    assert page.ranks_by_total_degree() == {8: 2, 10: 2}
    entry = page.entry(-1, 11)
    assert entry.rank == 2 and entry.torsion == ()
    torsion_entry = page.entry(-1, 10)
    assert torsion_entry.torsion == (3,)
    hc = degeneration_analysis(page)
    assert hc.status(9).torsion == (3,)
    assert hc.status(9).graded_only


def test_rational_exact_status_for_long_arrows():
    # scaling the weights stretches the column gap beyond d, so the only
    # possible differentials live past the rational window: the ranks are
    # then known rationally, while the integral groups stay undetermined
    page = e1_page(hand_built_cusp(), CUSP_W.scaled(3), 6)
    hc = degeneration_analysis(page)
    assert hc.rational_window_forced and not hc.integral_forced
    assert hc.status(14).kind == "rational_exact"
    assert (hc.status(14).lo, hc.status(14).hi) == (5, 5)
    assert hc.status(15).kind == "rational_exact"
    assert hc.status(16).kind == "exact"


def test_gap_analysis():
    page = e1_page(hand_built_cusp(), CUSP_W, 6)
    gap = rational_gap_analysis(page)
    assert gap["scale"] == 3  # columns -12 and -11 differ by 1, need gap > d = 2
    assert gap["rational_ranks"] == {14: 5, 15: 7, 16: 1}


def test_render_table_mentions_contributors():
    page = e1_page(hand_built_cusp(), CUSP_W, 6)
    table = render_page_table(page, hand_built_cusp())
    assert "E3:H1" in table and "Z^7" in table
    # columns ascend in p left to right, rows ascend in q downward
    lines = table.splitlines()
    assert lines[0].index("p=-12") < lines[0].index("p=-11")
    assert lines[1].startswith("q=26") and lines[2].startswith("q=27")
    assert render_page_table(e1_page(hand_built_cusp(), CUSP_W, 5)) == "(empty page)"


def reference_arrows(page):
    """The per-arrow list the one-pass analysis replaced: (source degree, cap, r)."""
    nonzero = {(p, q): e.rank for p, q, e in page.nonzero()}
    arrows = []
    for (p, q), rank in nonzero.items():
        for (pp, qq), rank2 in nonzero.items():
            r = pp - p
            if r >= 1 and (pp + qq) == (p + q) + 1 and qq == q - r + 1:
                arrows.append((p + q, min(rank, rank2), r))
    return arrows


def reference_degeneration(page):
    """The arrow-list analysis that degeneration_analysis replaced, rescanning
    the arrows for every total degree."""
    d = page.ambient_dim
    totals = page.ranks_by_total_degree()
    torsion_by_degree = {}
    for (p, q), e in page.entries:
        if e.torsion:
            torsion_by_degree.setdefault(p + q, []).extend(e.torsion)
    all_arrows = reference_arrows(page)
    window_arrows = [arrow for arrow in all_arrows if arrow[2] <= d]
    statuses = []
    for n in sorted(set(totals) | set(torsion_by_degree)):
        rank = totals.get(n, 0)
        caps_in = sum(cap for src, cap, _ in window_arrows if src == n - 1)
        caps_out = sum(cap for src, cap, _ in window_arrows if src == n)
        touched_any = any(src in (n - 1, n) for src, _, _ in all_arrows)
        torsion = tuple(sorted(torsion_by_degree.get(n, ())))
        if caps_in or caps_out:
            kind, lo = "bounds", max(0, rank - caps_in - caps_out)
        else:
            kind, lo = ("rational_exact" if touched_any else "exact"), rank
        statuses.append(DegreeStatus(n, kind, rank, lo, rank, torsion, bool(torsion) and kind == "exact"))
    return HcReport(
        m=page.m,
        ambient_dim=d,
        statuses=tuple(statuses),
        euler=page.euler_characteristic(),
        integral_forced=not all_arrows,
        rational_window_forced=not window_arrows,
    )


def random_page(rng):
    """A hand-built page on a small grid: zero, torsion-only and free entries."""
    d = rng.randint(1, 3)
    cells = {}
    for _ in range(rng.randint(1, 8)):
        rank = rng.choice((0, 0, 1, 2, 3, 5))
        torsion = rng.choice(((), (), (2,), (3,), (2, 4)))
        cells[(rng.randint(-6, 0), rng.randint(0, 6))] = PageEntry(rank, torsion, ((0, 0),))
    return E1Page(m=rng.randint(1, 6), ambient_dim=d, entries=tuple(sorted(cells.items())))


def test_one_pass_degeneration_matches_the_arrow_list():
    rng = random.Random(20261019)
    seen = dict.fromkeys(
        ("exact", "rational_exact", "bounds", "torsion-only end", "zero-cap window arrow", "only beyond d"), 0
    )
    for _ in range(2000):
        page = random_page(rng)
        expected = reference_degeneration(page)
        assert degeneration_analysis(page).to_json_dict() == expected.to_json_dict(), page
        for kind in {s.kind for s in expected.statuses}:
            seen[kind] += 1
        ranks = {(p, q): e.rank for p, q, e in page.nonzero()}
        ends = [
            (r, ranks[(p, q)], ranks[(p + r, q - r + 1)])
            for p, q in ranks
            for r in range(1, 8)
            if (p + r, q - r + 1) in ranks
        ]
        seen["torsion-only end"] += any(not a or not b for _, a, b in ends)
        seen["zero-cap window arrow"] += any(r <= page.ambient_dim and not min(a, b) for r, a, b in ends)
        seen["only beyond d"] += bool(ends) and all(r > page.ambient_dim for r, _, _ in ends)
    assert min(seen.values()) >= 150, seen
