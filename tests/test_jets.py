import collections
import importlib.util
import itertools
import math
import operator
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactloci.errors import DomainError, ResourceLimitError
from contactloci.jets import (
    contact_count,
    interpolate_chi,
    stratified_count,
    verify_chart_fibration,
)
import contactloci.jets as jets
from contactloci.jets import _poly_mod_q, _ser_mul
from contactloci.polys import SparsePolynomial, parse_polynomial

from conftest import _eval_terms, _ser_pow, closed_form_power_count, naive_contact_count

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_series_arithmetic():
    q = 7
    a = (0, 1, 1)  # t + t^2
    b = (0, 2, 0)
    assert _ser_mul(a, b, 2, q) == (0, 0, 2)  # truncation at t^2
    assert _ser_pow(a, 2, 2, q) == (0, 0, 1)
    assert _ser_pow(a, 3, 4, q) == (0, 0, 0, 1, 3)
    assert _ser_mul((3, 4), (5, 6), 1, q) == (1, 3)  # 15 + 38t reduced mod 7


def test_evaluate_on_jet_examples():
    def evaluate(f, coords, level, q):
        return _eval_terms(_poly_mod_q(f, q), coords, level, q)

    # x^2 + y^3 on (t, t) at level 2
    assert evaluate(parse_polynomial("x^2 + y^3")[0], [(0, 1, 0), (0, 1, 0)], 2, 5) == (0, 0, 1)
    # x*y on (2t, 3t) over F_7
    assert evaluate(parse_polynomial("x*y")[0], [(0, 2, 0), (0, 3, 0)], 2, 7) == (0, 0, 6)
    # x^2 on x = t + t^2 at level 3 (second variable unused by the monomial)
    x2 = parse_polynomial("x^2", variables=("x", "y"))[0]
    assert evaluate(x2, [(0, 1, 1, 0), (0, 0, 0, 0)], 3, 11) == (0, 0, 1, 2)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("r,m", [(2, 2), (2, 4), (3, 6), (5, 5), (3, 5)])
def test_power_counts_match_closed_form(r, m, q):
    report = contact_count(f"x^{r}", m, m, q)
    assert report.total == closed_form_power_count(r, m, q)
    if m % r:
        assert report.total == 0
    else:
        assert report.total == math.gcd(r, q - 1) * q ** (m - m // r)


def test_power_count_higher_level():
    assert contact_count("x^3", 3, 5, 7).total == closed_form_power_count(3, 3, 7, l=5)


def test_cusp_and_node_counts():
    assert contact_count("x^2+y^3", 2, 2, 5).total == 250  # 2 q^3
    assert contact_count("x*y", 2, 2, 3).total == 18  # (q-1) q^2
    for q in (7, 13):
        assert contact_count("x^2+y^3", 3, 3, q).total == 3 * q ** 4
    # m = 6: q^7 times the affine points of the genus-1 curve X^2 + Y^3 = 1,
    # q of them where q = 5 mod 6 (a conclusive fit with chi 1, not Lambda =
    # -1) and 11 at q = 7, 13: no polynomial in q, so report --primes cannot
    # pass there
    for q, points in ((5, 5), (11, 11), (17, 17), (7, 11), (13, 11)):
        assert contact_count("x^2+y^3", 6, 6, q).total == points * q**7


def test_counts_against_naive_enumeration():
    cases = [
        ("x^2+y^3", 2, 2, 3),
        ("x^2+y^3", 3, 3, 2),
        ("x*y", 2, 2, 3),
        ("x*y", 3, 3, 2),
        ("x*y", 3, 4, 3),  # d*l = 8, the largest cross-validated size
        ("x^2", 2, 3, 3),
        ("y - x^2", 1, 2, 3),
        ("x^2*y", 3, 3, 2),
    ]
    for text, m, l, q in cases:
        assert contact_count(text, m, l, q).total == naive_contact_count(text, m, l, q)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    m=st.integers(1, 3),
)
def test_random_polynomials_match_naive(coeffs, m):
    # random sparse polynomials in two variables over F_3, degree <= 2 jets
    terms = {}
    monomials = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
    for mono, c in zip(monomials, coeffs):
        if c:
            terms[mono] = c
    if not terms:
        return
    poly = SparsePolynomial.from_terms(2, terms)
    l = m
    if 3 ** (2 * l) > 7_000:
        return
    assert contact_count(poly, m, l, 3).total == naive_contact_count(poly, m, l, 3)


def test_nonvanishing_polynomial_counts_zero():
    assert contact_count("x + 1", 2, 2, 5).total == 0


def test_dummy_variable_multiplies_by_q_to_l():
    # adding an unused coordinate multiplies the count by q^l
    q, m, l = 5, 2, 3
    base = contact_count("x^2+y^3", m, l, q).total
    three_vars = parse_polynomial("x^2 + y^3", variables=("x", "y", "z"))[0]
    assert contact_count(three_vars, m, l, q).total == base * q ** l


def test_smooth_function_counts():
    # f = x in two variables: the locus is a single unit choice
    report = contact_count(parse_polynomial("x", variables=("x", "y"))[0], 2, 2, 5)
    assert report.total == naive_contact_count(
        parse_polynomial("x", variables=("x", "y"))[0], 2, 2, 5
    )
    assert report.total == 5 ** 2  # a_2 = 1 forced, b_1 and b_2 free


def test_node_cap_enforced():
    with pytest.raises(ResourceLimitError):
        contact_count("x^2+y^3", 3, 3, 13, node_cap=10)


def test_nodes_count_candidates_and_evaluated_prefixes():
    # x*y at m = 3 over F_3: its h0 is the one term x*y, counted in closed
    # form; the origin is its one singular zero, listed for a lift that
    # vanishes mod t^2.  Every initial form of x*y is one term, so its
    # strata take no residue
    assert contact_count("x*y", 3, 3, 3).nodes == 1
    assert stratified_count("x*y", 3, 3, 3).nodes == 0
    # the cusp's strata at m = 6 run the recursion only at k = (3, 2), where
    # x^2 and y^3 tie at s = m: N(3, 2) evaluates the origin, 3 coset
    # representatives of x times the 13 values of y and 2 of y alone; N(4, 2)
    # and N(3, 3) have a one-term h0, and N(4, 3) no term of t-degree <= 6
    assert stratified_count("x^2+y^3", 6, 6, 13).nodes == 1 + 3 * 13 + 2
    assert contact_count("x^2+y^3", 2, 2, 5).nodes == 0  # h0 = x^2, one term
    assert contact_count("x^2+y^3", 1, 3, 5).nodes == 0  # m below the multiplicity


def test_stratified_cusp_m2():
    report = stratified_count("x^2+y^3", 2, 3, 5)
    strata = dict(report.strata)
    assert report.total == 2 * 5 ** 5
    assert sum(strata.values()) == report.total
    assert strata[(1, 1)] == 2 * 4 * 5 ** 4
    # the divisor stratum aggregates ord x = 1, ord y >= 1
    full = sum(c for (ox, oy), c in report.strata if ox == 1 and oy >= 1)
    assert full == report.total
    # fibration count: N = #cover(F_5) * q^(d*l - k*nu)
    assert full // 5 ** (2 * 3 - 1 * 2) == 2 * 5


def test_stratified_cusp_m3():
    report = stratified_count("x^2+y^3", 3, 3, 7)
    assert report.total == 3 * 7 ** 4
    # E2 carries ord y = 1 and ord x >= 2
    agg = sum(c for (ox, oy), c in report.strata if ox >= 2 and oy == 1)
    assert agg == report.total
    assert agg // 7 ** (2 * 3 - 1 * 3) == 3 * 7  # 21 cover points


def test_stratified_cusp_m3_has_jets_off_ord_x_at_least_3():
    report = stratified_count("x^2+y^3", 3, 3, 7)
    strata = dict(report.strata)
    # ord y = 1 exactly and ord x >= 3: the stratum (2, 1) is left out
    assert strata[(3, 1)] + strata[(4, 1)] < report.total


def test_stratified_m1_empty_for_cusp():
    assert stratified_count("x^2+y^3", 1, 3, 5).total == 0


def test_stratified_matches_plain_count():
    for text, m, l, q in (("x*y", 3, 4, 3), ("x^2+y^3", 2, 2, 7)):
        assert stratified_count(text, m, l, q).total == contact_count(text, m, l, q).total


def test_interpolate_chi_node():
    fit = interpolate_chi([(3, 18), (5, 100), (7, 294)])
    assert fit.conclusive and fit.chi == 0
    assert fit.degree == 3
    assert fit.render() == "q^3 - q^2"


def test_interpolate_chi_cusp():
    fit = interpolate_chi([(3, 54), (5, 250), (7, 686)])
    assert fit.conclusive and fit.chi == 2
    assert fit.degree == 3
    assert fit.render() == "2*q^3"


def test_interpolate_chi_constant():
    fit = interpolate_chi([(3, 4), (5, 4)])
    assert fit.conclusive and fit.chi == 4
    assert fit.degree == 0


def test_interpolate_chi_zero_counts():
    fit = interpolate_chi([(3, 0), (5, 0)])
    assert fit.conclusive and fit.chi == 0


def test_interpolate_chi_refuses_a_negative_count():
    with pytest.raises(DomainError, match="counts must be nonnegative"):
        interpolate_chi([(3, 4), (5, -1)])


def test_interpolate_chi_inconclusive():
    # counts mixing split and non-split covers are not polynomial
    fit = interpolate_chi([(3, 81), (5, 625), (7, 3 * 7 ** 4), (11, 11 ** 4), (13, 3 * 13 ** 4)])
    assert not fit.conclusive
    assert "inconclusive" in fit.message


def test_interpolate_chi_needs_two_points():
    with pytest.raises(DomainError):
        interpolate_chi([(3, 5)])


def test_interpolate_chi_expected_dim_mismatch_is_flagged():
    fit = interpolate_chi([(3, 18), (5, 100), (7, 294)], expected_dim=5)
    assert "differs" in fit.message


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [3, 5])
def test_chart_fibration(m, q):
    for l in (m, m + 1):
        report = verify_chart_fibration(m, l, q, 2, 2)
        assert report.passed
        assert report.expected_fiber == q ** m
        sizes = dict(report.fiber_histogram)
        assert set(sizes) == {q ** m}
        assert report.n_images * q ** m == report.n_source


def test_enumerations_refuse_from_the_exponent():
    # neither count is formed: each has about a million digits
    with pytest.raises(ResourceLimitError, match=r"= 3\^2000000 jets exceeds the cap 2000000$"):
        naive_contact_count("x*y", 1, 10**6, 3)
    with pytest.raises(ResourceLimitError, match=r"^3\^2000000 \* 2 source jets exceed the cap 1000000000$"):
        verify_chart_fibration(1, 10**6, 3, 2, 2)


def test_chart_fibration_m0_injective():
    report = verify_chart_fibration(0, 1, 3, 2, 2)
    assert report.passed and report.expected_fiber == 1


def test_chart_fibration_d3():
    report = verify_chart_fibration(1, 1, 3, 3, 2)
    assert report.passed and report.expected_fiber == 3
    report = verify_chart_fibration(1, 1, 3, 3, 3)
    assert report.passed and report.expected_fiber == 9


def test_csv_export(tmp_path):
    from contactloci.jets import export_counts_csv

    path = tmp_path / "counts.csv"
    export_counts_csv(path, [(3, 18), (5, 100)])
    assert path.read_text().splitlines() == ["q,count", "3,18", "5,100"]


# ---------------------------------------------------------------------------
# reference: breadth-first survivor lists with per-node partials


def _reference_level_solutions(grad, rhs, q, d):
    """Solutions a in F_q^d of grad . a == rhs."""
    if all(g == 0 for g in grad):
        return list(itertools.product(range(q), repeat=d)) if rhs % q == 0 else []
    pivot = next(i for i, g in enumerate(grad) if g)
    inv = pow(grad[pivot], -1, q)
    sols = []
    for free in itertools.product(range(q), repeat=d - 1):
        a = list(free[:pivot]) + [0] + list(free[pivot:])
        acc = sum(grad[i] * a[i] for i in range(d) if i != pivot)
        a[pivot] = (rhs - acc) * inv % q
        sols.append(tuple(a))
    return sols


def _reference_coords(prefix, upto, d):
    coords = []
    for i in range(d):
        row = [0] * (upto + 1)
        for n, c in enumerate(prefix[i], start=1):
            if n <= upto:
                row[n] = c
        coords.append(row)
    return coords


def reference_prefixes(poly, m, q, limit=None):
    """(surviving prefixes of depth I = m - mu + 1, I), level by level.

    Level 1 enumerates F_q^d against f(gamma)_mu; every later level solves
    the affine equation whose gradient is read off the d partial series
    evaluated at the full prefix.  None once a level keeps more than
    ``limit`` prefixes.
    """
    d = poly.nvars
    terms = _poly_mod_q(poly, q)
    mu = min((sum(exps) for _, exps in terms), default=m + 1)
    if m < mu:
        return [], 0
    depth = m - mu + 1
    derivs = []
    for c in range(d):
        derivs.append([
            (value * exps[c] % q, exps[:c] + (exps[c] - 1,) + exps[c + 1:])
            for value, exps in terms
            if exps[c] and value * exps[c] % q
        ])
    survivors = []
    for a in itertools.product(range(q), repeat=d):
        prefix = tuple((x,) for x in a)
        if _eval_terms(terms, _reference_coords(prefix, mu, d), mu, q)[mu] == (1 if mu == m else 0):
            survivors.append(prefix)
    for i in range(2, depth + 1):
        j = i + mu - 1
        new = []
        for prefix in survivors:
            coords = _reference_coords(prefix, j, d)
            base = _eval_terms(terms, coords, j, q)[j]
            lin = tuple(_eval_terms(derivs[c], coords, j - i, q)[j - i] for c in range(d))
            for a in _reference_level_solutions(lin, ((j == m) - base) % q, q, d):
                new.append(tuple(prefix[c] + (a[c],) for c in range(d)))
            if limit is not None and len(new) > limit:
                return None
        survivors = new
    return survivors, depth


def reference_strata(poly, m, l, q, prefixes=None):
    """Order strata of level-l contact jets from the materialized prefixes
    (``reference_prefixes`` unless given), with the free levels beyond the
    depth expanded combinatorially."""
    d = poly.nvars
    survivors, depth = prefixes or reference_prefixes(poly, m, q)
    strata = {}
    for prefix in survivors:
        known = [next((n for n, c in enumerate(prefix[i], start=1) if c), None) for i in range(d)]
        unknown = [i for i in range(d) if known[i] is None]
        base_weight = q ** ((l - depth) * (d - len(unknown)))
        opts = [(k, (q - 1) * q ** (l - k)) for k in range(depth + 1, l + 1)] + [(l + 1, 1)]
        for combo in itertools.product(opts, repeat=len(unknown)):
            orders = list(known)
            weight = base_weight
            for i, (k, w) in zip(unknown, combo):
                orders[i] = k
                weight *= w
            strata[tuple(orders)] = strata.get(tuple(orders), 0) + weight
    return tuple(sorted(strata.items()))


def reference_walk(poly, m, l, q):
    """(strata, nodes) by inclusion-exclusion over the program's N(k) at
    every k with N(k) != 0, from (1, ..., 1) upward once N(1, ..., 1) is
    counted.  It reads N(k) at many first-level weights, so its nodes pin
    what each N(k) charges."""
    d = poly.nvars
    budget = jets._Budget(10**12)
    at_least = jets._at_least(_poly_mod_q(poly, q), m, l, q, d, budget)
    start = (1,) * d
    cells = {}
    todo, seen = ([start] if at_least(start) else []), {start}
    while todo:
        k = todo.pop()
        if not at_least(k):
            continue
        steps = itertools.product((0, 1), repeat=d)
        exact = sum((-1) ** sum(T) * at_least(tuple(map(operator.add, k, T))) for T in steps)
        if exact:
            cells[k] = exact
        for c in range(d):
            up = k[:c] + (k[c] + 1,) + k[c + 1 :]
            if up not in seen:
                seen.add(up)
                todo.append(up)
    return tuple(sorted(cells.items())), budget.nodes


def _random_polynomial(rng, d):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(d))
        if sum(exps):
            terms[exps] = rng.randint(1, 6)
    if d >= 2 and rng.random() < 0.3:  # the x*y family: seeds with a nonzero gradient
        terms[(1, 1) + (0,) * (d - 2)] = rng.randint(1, 6)
    return SparsePolynomial.from_terms(d, terms) if terms else None


def _stratum_classes(poly, m, l, q):
    """How the strata read each k of [1, l + 1]^d with s(k) <= m: its initial
    form has two or more terms (inclusion-exclusion), or one at s = m
    (closed form), or one at s < m (no root on the torus, skipped)."""
    terms = _poly_mod_q(poly, q)
    classes = collections.Counter()
    for k in itertools.product(range(1, l + 2), repeat=poly.nvars):
        degrees = [sum(map(operator.mul, k, exps)) for _, exps in terms]
        s = min(degrees, default=m + 1)
        if s <= m:
            classes["inclusion-exclusion" if degrees.count(s) > 1 else "closed form" if s == m else "skip"] += 1
    return classes


def test_walk_matches_reference_enumeration():
    rng = random.Random(20191121)
    cases = nonzero = naive_checked = 0
    seen = set()
    classes = collections.Counter()
    while cases < 150:
        d = rng.choice((1, 2, 2, 3))
        q = rng.choice((2, 3, 5, 7))
        poly = _random_polynomial(rng, d)
        m = rng.randint(1, 4 if d < 3 else 3)
        l = m + rng.randint(0, 2)
        if poly is None or q ** (d * min(m, 3)) > 20_000:
            continue
        strata = reference_strata(poly, m, l, q)
        total = sum(count for _, count in strata)
        report = stratified_count(poly, m, l, q)
        assert (report.total, report.strata) == (total, strata), (poly.render(), m, l, q)
        assert contact_count(poly, m, l, q).total == total, (poly.render(), m, l, q)
        if q ** (d * l) <= 3_000:
            assert naive_contact_count(poly, m, l, q) == total, (poly.render(), m, l, q)
            naive_checked += 1
        cases += 1
        nonzero += total > 0
        seen.add((d, q == 2, l > m))
        classes += _stratum_classes(poly, m, l, q)
    assert nonzero >= 60 and naive_checked >= 20
    assert classes["skip"] >= 100 and classes["closed form"] >= 100 and classes["inclusion-exclusion"] >= 10, classes
    assert {(3, False, True), (2, True, True), (3, True, False)} <= seen


@pytest.mark.parametrize("m,l,q", [(3, 3, 5), (4, 5, 3), (5, 5, 3), (4, 4, 2)])
def test_walk_matches_reference_on_node_family(m, l, q):
    # every level-1 seed off the origin has a nonzero gradient
    for text in ("x*y", "x*y + x^3 + 2*y^4", "x*y*z"):
        poly, _ = parse_polynomial(text)
        strata = reference_strata(poly, m, l, q)
        report = stratified_count(poly, m, l, q)
        assert report.strata == strata and report.total > 0
        assert contact_count(poly, m, l, q).total == report.total


# ---------------------------------------------------------------------------
# deep counts: levels far past the tangent cone


def _mu2_polynomial(rng, d, q):
    """A germ of multiplicity 2 over F_q: a random quadratic form plus higher terms."""
    squares = [tuple(int(k == c) + int(k == c2) for k in range(d)) for c in range(d) for c2 in range(c, d)]
    terms = {exps: rng.randrange(1, q) for exps in rng.sample(squares, rng.randint(1, 2))}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * d
        for _ in range(rng.randint(3, 4)):
            exps[rng.randrange(d)] += 1
        terms[tuple(exps)] = rng.randint(1, 6)
    return SparsePolynomial.from_terms(d, terms)


def test_deep_walk_matches_reference_enumeration():
    rng = random.Random(20260512)
    cases = nonzero = 0
    while cases < 30:
        d = rng.choice((2, 2, 3))
        m = 5 if d == 3 else rng.choice((5, 6))
        q = rng.choice((2, 3, 5))
        poly = _mu2_polynomial(rng, d, q)
        prefixes = reference_prefixes(poly, m, q, limit=300)
        if prefixes is None:  # keep the materialized reference small
            continue
        assert prefixes[1] >= 4
        strata = reference_strata(poly, m, m, q, prefixes)
        report = stratified_count(poly, m, m, q)
        assert (report.total, report.strata) == (sum(n for _, n in strata), strata), (poly.render(), m, q)
        assert contact_count(poly, m, m, q).total == report.total, (poly.render(), m, q)
        cases += 1
        nonzero += report.total > 0
    assert nonzero >= 10


# The strata run the recursion only where two terms tie in the initial
# form.  A scan of a two-term h0 is charged the residues it evaluates, and
# a one-term h0 at e > 0 the singular zeros it lists: only the origin for
# one coordinate or for x*y, 3 (q - 1) + 1 for x*y*z.
STRATA_NODES = {
    # every initial form is the one term 2*x*y
    ("2*x*y - 4*x*y^3 + x^2*y^2", 11): 0,
    ("2*x*y - 4*x*y^3 + x^2*y^2", 17): 0,
    # x*y ties with x^3 at k = (1, 2) and (2, 4), with 2*y^4 at (3, 1); only
    # N(1, 2), N(2, 4) and N(3, 1) meet a two-term h0, at their first level:
    # 1 + gcd(k_x, 4) * 5 + gcd(k_y, 4) residues each.  The origin is listed
    # by N(1, 2)'s lift, N(1, 3), N(2, 2), N(3, 2) and N(4, 1)
    ("x*y + x^3 + 2*y^4", 5): (1 + 5 + 2) + (1 + 10 + 4) + (1 + 5 + 1) + 5,
    ("x*y*z", 3): 0,
    # N(3, 2), as in test_nodes_count_candidates_and_evaluated_prefixes
    ("x^2+y^3", 7): 1 + 3 * 7 + 2,
}


# count_nodes: h0 stays the one term 2*x*y, x*y or x*y*z through every lift
# of the first three germs, listing the origin at e = 3 and 1, at e = 4 and
# 2, and x*y*z's 3 * 2 + 1 singular zeros at e = 2.  The cusp lists the
# origin of x^2 at e = 4, y^3 at e = 3 and x^2 at e = 2, and its lifts
# reach x^2 + y^3 at e = 0, whose scan evaluates all 7^2 residues.
# walk_nodes: the strata's scans and N(1, 1)'s, plus what the N(k) the
# strata do not read list.  First germ: N(1, 2) and N(2, 1), at e = 2 with
# two h, the origin each.  x*y + x^3 + 2*y^4: N(1, 4)'s lift of x = 0
# reaches x^3 + x*y at e = 0, all 5^2 residues, and the origin is listed 11
# times (twice in N(1, 1) and N(2, 1), once in N(1, 2) to N(1, 6), N(4, 1)
# and N(5, 1)).  x*y*z: h = x*y*z at e = 1, shared by the three N(k) with
# sum(k) = 4, lists 7 more.  The cusp: N(1, 2), N(3, 1) and N(4, 1) list the
# origin once each and N(1, 3) twice.
@pytest.mark.parametrize(
    "text,m,q,count_nodes,walk_nodes",
    [
        ("2*x*y - 4*x*y^3 + x^2*y^2", 5, 11, 2, 2 + 2),
        ("2*x*y - 4*x*y^3 + x^2*y^2", 5, 17, 2, 2 + 2),
        ("x*y + x^3 + 2*y^4", 6, 5, 2, 30 + 5**2 + 11),
        ("x*y*z", 5, 3, 7, 7 + 7),
        ("x^2+y^3", 6, 7, 3 + 7**2, 24 + 3 + 7**2 + 5),
    ],
)
def test_deep_walk_nodes_are_pinned(text, m, q, count_nodes, walk_nodes):
    # one node per residue evaluated or singular zero listed; a memo hit and
    # a closed-form count take none
    count, strata = contact_count(text, m, m, q), stratified_count(text, m, m, q)
    walk_strata, nodes = reference_walk(parse_polynomial(text)[0], m, m, q)
    assert (count.nodes, nodes, strata.nodes) == (count_nodes, walk_nodes, STRATA_NODES[text, q])
    assert strata.strata == walk_strata
    assert count.total == strata.total == sum(n for _, n in strata.strata)


@pytest.mark.parametrize("count", [contact_count, stratified_count])
def test_node_cap_is_exact_on_settled_walks(count):
    # germs that scan a two-term h0 in both counts, over more than q
    # residues, so a cap of nodes - 1 >= q is refused before the last
    # residues are taken
    for text, m, q in (("x^2+y^2", 3, 5), ("x^2+y^3", 6, 13)):
        nodes = count(text, m, m, q).nodes
        assert nodes > q
        assert count(text, m, m, q, node_cap=nodes).nodes == nodes
        with pytest.raises(ResourceLimitError, match="residues"):
            count(text, m, m, q, node_cap=nodes - 1)


@pytest.mark.parametrize("every", [1, 7, 100])
def test_progress_lines_follow_the_node_count(monkeypatch, caplog, every):
    monkeypatch.setattr(jets, "PROGRESS_EVERY", every)
    with caplog.at_level("INFO", logger="contactloci.jets"):
        report = stratified_count("x*y + x^3 + 2*y^4", 6, 6, 5)
    lines = [r for r in caplog.records if r.name == "contactloci.jets"]
    assert len(lines) == report.nodes // every


def test_cusp_at_m9_keeps_the_walks_total():
    # recorded from the depth-first walk that counted jets before the
    # recursion: 12.4 M nodes and about 6 s
    assert contact_count("x^2+y^3", 9, 9, 7).total == 7626831723


PAPER_GERM_NODES = {
    # the count's lifts of the origin reach x^2 + y^3 at e = 6 and again at
    # e = 0, 7^2 residues each, and list the origin of x^2, y^3, x^2 above
    # each: e = 10, 9, 8 and 4, 3, 2.  The strata tie x^2 and y^3 at k =
    # (3, 2) and (6, 4): N(3, 2) evaluates 1 + 3 * 7 + 2 residues at its
    # first level, 7^2 at e = 0 in the lifts of the origin and lists the
    # origin at e = 4, 3, 2 on the way; N(6, 4) evaluates 1 + 6 * 7 + 2 at
    # its first level; N(3, 3) and N(4, 2) list the origin of x^2 and y^3 at
    # e = 6; every other N(k) they read has no term
    "x^2+y^3": (2 * 7**2 + 6, (1 + 3 * 7 + 2) + 7**2 + 3 + (1 + 6 * 7 + 2) + 2),
    # the count's lifts reach x^3 + y^4 at e = 0, all 13^2 residues, listing
    # the origin of x^3, y^4, x^3, y^4, x^3 at e = 9, 8, 6, 4, 3 on the way;
    # x^3 and y^4 tie at k = (4, 3) only, at s = m: N(4, 3) evaluates
    # 1 + 4 * 13 + 3
    "x^3+y^4": (13**2 + 5, 1 + 4 * 13 + 3),
}


@pytest.mark.parametrize("text,m,q", [("x^2+y^3", 12, 7), ("x^3+y^4", 12, 13)])
def test_paper_germs_count_at_m12(text, m, q):
    # past the 10^9 node cap of the depth-first walk
    count, strata = contact_count(text, m, m, q), stratified_count(text, m, m, q)
    assert count.total == strata.total == sum(n for _, n in strata.strata) > 0
    assert (count.nodes, strata.nodes) == PAPER_GERM_NODES[text]


# ---------------------------------------------------------------------------
# every branch of the recursion against the reference


def _d5_polynomial(rng, q):
    """x^2*y + c*y^4 and one more term of degree 4 or 5, over F_q."""
    terms = {(2, 1): rng.randrange(1, q), (0, 4): rng.randrange(1, q)}
    a = rng.randint(0, 5)
    terms[(a, rng.randint(max(0, 4 - a), 5 - a))] = rng.randint(1, 6)
    return SparsePolynomial.from_terms(2, terms)


def test_recursion_branches_match_the_reference(monkeypatch):
    points, shift = jets._points, jets._shift
    seen = collections.Counter()
    case = {}

    def recording_points(h0, weights, e, q, budget):
        ones, smooth, singular = points(h0, weights, e, q, budget)
        seen["e = 0 leaf"] += not e
        seen["Hensel leaf"] += smooth > 0
        seen["singular recursion"] += bool(singular)
        seen["free coordinate"] += len(weights) < case["d"]
        seen["first level, gcd(k_c, q - 1) > 1"] += any(w and math.gcd(w, q - 1) > 1 for w in weights)
        seen["weighted-line scan"] += len(h0) > 1
        return ones, smooth, singular

    def recording_shift(h, b, e, q):
        out = shift(h, b, e, q)
        seen["constant h0"] += out is not None and not any(any(exps) for (j, exps) in out[0] if not j)
        return out

    monkeypatch.setattr(jets, "_points", recording_points)
    monkeypatch.setattr(jets, "_shift", recording_shift)
    rng = random.Random(20261020)
    cases = 0
    while cases < 80:
        case["d"] = d = rng.choice((1, 2, 2, 3))
        q = rng.choice((2, 2, 3, 5, 7, 11))
        m = rng.randint(1, 5 if d < 3 else 3)
        family = rng.random()
        if d == 2 and family < 0.25:  # x^2*y: its lines y = 0 lift to a constant h0
            poly, m = _d5_polynomial(rng, q), rng.randint(4, 5)
        elif d > 1 and family < 0.5:
            poly = _mu2_polynomial(rng, d, q)
        else:
            poly = _random_polynomial(rng, d)
        l = m + rng.randint(0, 2)
        if poly is None:
            continue
        prefixes = reference_prefixes(poly, m, q, limit=100)
        if prefixes is None:
            continue
        strata = reference_strata(poly, m, l, q, prefixes)
        total = sum(n for _, n in strata)
        report = stratified_count(poly, m, l, q)
        assert (report.total, report.strata) == (total, strata), (poly.render(), m, l, q)
        assert contact_count(poly, m, l, q).total == total, (poly.render(), m, l, q)
        # the strata read N(k) only where the initial form has two terms
        at_least = jets._at_least(_poly_mod_q(poly, q), m, l, q, d, jets._Budget(10**9))
        for k in itertools.product((1, 2, 3), repeat=d):
            above = sum(n for orders, n in strata if all(map(operator.le, k, orders)))
            assert at_least(k) == above, (poly.render(), m, l, q, k)
        seen["q = 2"] += q == 2
        cases += 1
    assert min(seen.values()) >= 15 and len(seen) == 8, seen


# ---------------------------------------------------------------------------
# large fields


@pytest.mark.parametrize(
    "count,text,m,q,total,nodes",
    [
        # the lifts of the origin reach x^2 + y^3 at e = 0, all 19^2
        # residues, after listing the origin of x^2, y^3, x^2 at e = 4, 3, 2
        (contact_count, "x^2+y^3", 6, 19, 9832589129, 19**2 + 3),
        # N(3, 2): see test_nodes_count_candidates_and_evaluated_prefixes
        (stratified_count, "x^2+y^3", 6, 13, 690233687, 1 + 3 * 13 + 2),
        # x^3 and y^4 tie first at k = (4, 3), s = 12 > m: every stratum is one term
        (stratified_count, "x^3+y^4", 7, 13, 0, 0),
    ],
)
def test_large_q_walks_keep_their_totals_and_nodes(count, text, m, q, total, nodes):
    report = count(text, m, m, q)
    assert (report.total, report.nodes) == (total, nodes)
    assert sum(n for _, n in report.strata) == (total if count is stratified_count else 0)


@pytest.mark.parametrize("text", ["x*y", "x^2+y^2"])
@pytest.mark.parametrize("count", [contact_count, stratified_count])
def test_large_q_evaluates_few_residues(count, text):
    # 1009 = 1 mod 4, so x^2 + y^2 splits into two lines like x*y; the first
    # level evaluates one point per line through the origin, about q of them
    q = 1009
    report = count(text, 3, 3, q)
    assert report.total == 2 * (q - 1) * q**3 and report.nodes <= 4 * q


def test_closed_forms_pass_any_cap_above_q():
    # every h0 of x*y is one term, so its count lists only the singular
    # origin, at e = 3 and at e = 1; a scan of its first level would take
    # 1 + 1009 + 1 residues per lift
    q = 1009
    report = contact_count("x*y", 5, 5, q, node_cap=10**6)
    assert (report.total, report.nodes) == (4 * (q - 1) * q**5, 2)


def test_listed_singular_zeros_are_charged_before_they_are_built():
    # h0 = x^2*y*z at e = 1 has (q - 1)^2 singular zeros with x = 0 alone,
    # 3 (q - 1) with two zero coordinates and the origin: past the cap
    q = 1009
    with pytest.raises(ResourceLimitError, match=f"{(q - 1) ** 2 + 3 * (q - 1) + 1} > 1000000 residues"):
        contact_count("x^2*y*z", 5, 5, q, node_cap=10**6)
    # over F_5 they are 16 + 12 + 1, each lifted to a shift that vanishes
    assert contact_count("x^2*y*z", 5, 5, 5).nodes == 16 + 12 + 1


def test_nodes_do_not_depend_on_the_order_of_the_reads():
    # N(3, 2) and N(6, 4) of the cusp both reach x^2 + y^3 at e = 0: as an
    # inner scan at weights 0 and as N(6, 4)'s first level at weights (6, 4);
    # N(3, 2)'s lifts list the origin of x^2, y^3, x^2 at e = 4, 3, 2
    terms = _poly_mod_q(parse_polynomial("x^2+y^3")[0], 7)
    charged = []
    for order in (((3, 2), (6, 4)), ((6, 4), (3, 2))):
        budget = jets._Budget(10**9)
        at_least = jets._at_least(terms, 12, 12, 7, 2, budget)
        for k in order:
            at_least(k)
        charged.append(budget.nodes)
    assert charged == [(1 + 3 * 7 + 2) + 7**2 + 3 + (1 + 6 * 7 + 2)] * 2


# ---------------------------------------------------------------------------
# closed forms


def test_one_term_points_match_a_loop_over_every_residue(monkeypatch):
    evaluate, evaluated = jets._value, []

    def recording_value(terms, b, q):
        if terms is twin:  # h0 itself, not one of its partials
            evaluated.append(b)
        return evaluate(terms, b, q)

    monkeypatch.setattr(jets, "_value", recording_value)
    rng = random.Random(20261021)
    for _ in range(150):
        q, u, e = rng.choice((2, 3, 5, 7, 11, 13)), rng.randint(1, 3), rng.choice((0, 1))
        v, a = rng.randrange(1, q), tuple(rng.randint(1, 6) for _ in range(u))
        twin, evaluated = [(v, a), (0, a)], []
        weights = rng.choice(([0] * u, [rng.randint(1, 6) for _ in range(u)]))
        budget = jets._Budget(10**9)
        got = jets._points([(v, a)], weights, e, q, budget)
        ones = smooth = 0
        singular = set()
        for b in itertools.product(range(q), repeat=u):
            value = v * math.prod(x**n for x, n in zip(b, a)) % q
            if not e:
                ones += value == 1
            elif not value:
                slopes = (n * math.prod(x ** (n - (i == c)) for i, x in enumerate(b)) for c, n in enumerate(a))
                if any(slope % q for slope in slopes):
                    smooth += 1
                else:
                    singular.add(b)
        assert got == (ones, smooth, singular), (v, a, e, q)
        # the weighted-line scan of the same h0, reached through a zero
        # term, is charged the points it evaluates; the closed form the
        # singular zeros it lists
        scan = jets._Budget(10**9)
        assert jets._points(twin, weights, e, q, scan) == got
        assert (budget.nodes, scan.nodes) == (len(singular), len(evaluated))
        if not any(weights):  # every residue is its own line
            assert scan.nodes == q**u


def test_large_levels_walk_only_the_orders_below_m():
    # [1, l + 1]^2 holds 10^10 orders at l = 100000; the walk visits those
    # with s(k) <= m, and x*y's strata are its two closed forms
    q, l = 5, 100000
    report = stratified_count("x*y", 3, l, q)
    assert dict(report.strata) == {(1, 2): (q - 1) * q ** (2 * l - 3), (2, 1): (q - 1) * q ** (2 * l - 3)}
    assert report.total == contact_count("x*y", 3, l, q).total
    # ord y = 1 with y_1^3 = 1, one root as gcd(3, q - 1) = 1, at every ord x >= 2
    l = 3000
    report = stratified_count("x^2+y^3", 3, l, q)
    assert len(report.strata) == l and report.total == q ** (2 * l - 2) == contact_count("x^2+y^3", 3, l, q).total


def test_strata_totals_equal_the_counts_on_the_bench_oracle_jobs():
    # a stratified total sums its strata, and a count is N(1, ..., 1): two
    # paths, compared on every (germ, m, q) the benchmark's oracle workload
    # counts at seeds 1 and 5
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    bench_jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_jobs)
    calls = {
        (call[1].removeprefix("--poly="), int(call[3]), int(call[5]))
        for seed in (1, 5)
        for job in bench_jobs.generate("oracle", seed)
        for call in job["calls"]
        if call[0] == "oracle-count"
    }
    assert len(calls) >= 300
    for text, m, q in calls:
        assert stratified_count(text, m, m, q).total == contact_count(text, m, m, q).total, (text, m, q)


def test_shallow_walk_at_large_q_stays_small():
    tracemalloc.start()
    try:
        report = stratified_count("x^2+y^3", 3, 3, 1009)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # y_1^3 = 1 has three roots, as 1009 = 1 mod 3
    assert report.total == 3 * 1009**4 and peak < 5_000_000, (report.total, peak)
