import json
import math
import random
from collections import Counter, deque
from fractions import Fraction

import pytest
import sympy

from contactloci import curves, newton
from contactloci.cli import main
from contactloci.curves import (
    _plane_factorization,
    _primitive,
    _uni_factorization,
    point_configuration,
    resolve_plane_curve,
    resolve_univariate,
)
from contactloci.errors import DomainError
from contactloci.model import Divisor, IntersectionCell, SncConfiguration, validate_configuration
from contactloci.polys import SparsePolynomial, parse_polynomial
from contactloci.separation import separate

from conftest import PRODUCT_EXAMPLES, random_product_text


def by_label(cfg):
    return {d.label: d for d in cfg.divisors}


def cells_by_labels(cfg):
    labels = {d.id: d.label for d in cfg.divisors}
    return {tuple(sorted(labels[i] for i in c.ids)): c.count for c in cfg.cells}


def test_cusp_resolution_matches_hand_computation():
    cfg, log = resolve_plane_curve("x^2 + y^3")
    divs = by_label(cfg)
    assert (divs["E1"].mult, divs["E1"].disc, divs["E1"].self_int) == (2, 2, -3)
    assert (divs["E2"].mult, divs["E2"].disc, divs["E2"].self_int) == (3, 3, -2)
    assert (divs["E3"].mult, divs["E3"].disc, divs["E3"].self_int) == (6, 5, -1)
    assert (divs["D1"].mult, divs["D1"].disc) == (1, 1)
    assert not divs["D1"].exceptional and not divs["D1"].over_sigma
    assert cells_by_labels(cfg) == {("E1", "E3"): 1, ("E2", "E3"): 1, ("D1", "E3"): 1}
    assert len(log.blowups) == 3


def test_node_resolution():
    cfg, log = resolve_plane_curve("x*y")
    divs = by_label(cfg)
    assert (divs["E1"].mult, divs["E1"].disc, divs["E1"].self_int) == (2, 2, -1)
    assert cells_by_labels(cfg) == {("D1", "E1"): 1, ("D2", "E1"): 1}
    assert len(log.blowups) == 1


def test_smooth_multiple_line():
    # already simple normal crossing, but the origin is blown up once
    cfg, log = resolve_plane_curve("x^2")
    divs = by_label(cfg)
    assert (divs["E1"].mult, divs["E1"].disc) == (2, 2)
    assert (divs["D1"].mult, divs["D1"].disc) == (2, 1)
    assert cells_by_labels(cfg) == {("D1", "E1"): 1}
    assert len(log.blowups) == 1


def euclid_quotient_sum(b, a):
    total = 0
    while a:
        total += b // a
        b, a = a, b % a
    return total


@pytest.mark.parametrize(
    "p,q",
    [(p, q) for p in range(2, 8) for q in range(p + 1, 30) if math.gcd(p, q) == 1]
    + [(2, 127), (2, 131), (3, 400), (64, 65)],
)
def test_coprime_power_pairs_have_mult_pq(p, q):
    # the blowup count has a closed form: the quotients of Euclid on (q, p)
    cfg, log = resolve_plane_curve(f"x^{p} + y^{q}")
    assert len(log.blowups) == euclid_quotient_sum(q, p)
    assert max(d.mult for d in cfg.divisors) == p * q
    assert validate_configuration(cfg) == []


@pytest.mark.parametrize("text", ["x^2+y^3", "x*y", "x^3+y^4", "x^2+y^5", "x^3+y^3", "x^2+y^4"])
def test_outputs_validate(text):
    cfg, _ = resolve_plane_curve(text)
    assert validate_configuration(cfg) == []


def test_discrepancy_growth():
    # nu_new - 1 >= number of divisors through the center
    for text in ("x^2+y^3", "x^3+y^4", "x^2+y^5"):
        _, log = resolve_plane_curve(text)
        for rec in log.blowups:
            assert rec.disc - 1 >= len(rec.axis_indices)


def _cusp_blowups():
    _, log = resolve_plane_curve("x^2 + y^3")
    return [(r.mult, r.disc, r.axis_indices) for r in log.blowups]


def test_blowup_rule_first_center():
    # m_new = sum e_j mu_j + sum m_i and nu_new = 2 + sum (nu_i - 1): the
    # origin lies on no divisor yet
    blowups = _cusp_blowups()
    assert len(blowups) == 3
    assert blowups[0] == (2, 2, ())


def test_blowup_rule_on_one_divisor():
    # cusp step two: center on E1 (m=2, nu=2) with strict multiplicity 1
    assert _cusp_blowups()[1] == (3, 3, (0,))


def test_blowup_rule_triple_point():
    # cusp step three: center on E2, E1 and the strict transform
    assert _cusp_blowups()[2] == (6, 5, (1, 0))


def test_conjugate_intersection_clusters():
    cfg, _ = resolve_plane_curve("x^2 + y^2")
    assert cells_by_labels(cfg) == {("D1", "E1"): 2}
    cfg3, _ = resolve_plane_curve("x^3 + y^3")
    assert cells_by_labels(cfg3) == {("D1", "E1"): 1, ("D2", "E1"): 2}
    cfg4, _ = resolve_plane_curve("x^4 + y^4")
    assert cells_by_labels(cfg4) == {("D1", "E1"): 4}


def test_tangential_smooth_pair():
    cfg, _ = resolve_plane_curve("(y - x^2)*(y + x^2)")
    divs = by_label(cfg)
    assert (divs["E1"].mult, divs["E1"].disc, divs["E1"].self_int) == (2, 2, -2)
    assert (divs["E2"].mult, divs["E2"].disc, divs["E2"].self_int) == (4, 3, -1)
    assert cells_by_labels(cfg) == {
        ("D1", "E2"): 1,
        ("D2", "E2"): 1,
        ("E1", "E2"): 1,
    }


def test_non_reduced_factor_multiplicity():
    cfg, _ = resolve_plane_curve("x^2*y")
    divs = by_label(cfg)
    assert divs["E1"].mult == 3  # 2 + 1
    strict_mults = sorted(d.mult for d in cfg.divisors if not d.exceptional)
    assert strict_mults == [1, 2]


def test_factor_away_from_origin_is_dropped():
    cfg, log = resolve_plane_curve("x*(x - 1)")
    assert log.factors == ((0, "x", 1),)
    divs = by_label(cfg)
    assert set(divs) == {"E1", "D1"}
    # the dropped factor is a unit near the origin, so it adds nothing to m
    assert divs["E1"].mult == 1


def test_rejects_nonvanishing_germ():
    with pytest.raises(DomainError):
        resolve_plane_curve("x + 1")
    with pytest.raises(DomainError):
        resolve_plane_curve("0")


def test_point_configuration():
    cfg = point_configuration(3)
    assert cfg.ambient_dim == 1
    assert cfg.divisors[0].mult == 3
    assert cfg.divisors[0].over_sigma and not cfg.divisors[0].exceptional
    assert validate_configuration(cfg) == []


def test_resolve_univariate():
    cfg = resolve_univariate("x^4")
    assert cfg.divisors[0].mult == 4
    with pytest.raises(DomainError):
        resolve_univariate("x + 1")


# ---------------------------------------------------------------------------
# the resolver's sympy polynomials against the expression-tree path

_X, _Y, _T = sympy.symbols("x y t")


def reference_factor_list(terms, gens):
    """Factors of {exponent tuple: Fraction} by the expression-tree path the
    resolver used to take: build sum(c * monomial), hand it to sympy.Poly,
    factor, and read each factor back through as_expr().as_poly().

    Returns ({exponent tuple: Fraction}, exponent) pairs in default_sort_key
    order of the factors, the constant factor left out.
    """
    expr = sum(
        sympy.Rational(c) * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
        for exps, c in terms.items()
    )
    _, factors = sympy.factor_list(sympy.Poly(expr, *gens, domain="QQ"))
    return [
        (
            {
                tuple(monom): Fraction(str(coeff))
                for monom, coeff in poly.as_expr().as_poly(*gens, domain="QQ").terms()
            },
            int(exp),
        )
        for poly, exp in sorted(factors, key=lambda fe: sympy.default_sort_key(fe[0]))
    ]


def reference_plane_factors(f):
    """``log.factors`` as the expression-tree path gave it, and the texts of
    the factors it dropped because they miss the origin."""
    kept, dropped = [], []
    for terms, exp in reference_factor_list(f.as_dict(), (_X, _Y)):
        text = SparsePolynomial.from_terms(2, terms).render(("x", "y"))
        if terms.get((0, 0)):
            dropped.append(text)
        else:
            kept.append((len(kept), text, exp))
    return tuple(kept), tuple(dropped)


def reference_uni_factorization(u):
    out = []
    for terms, exp in reference_factor_list({(d,): c for d, c in u.items()}, (_T,)):
        coeffs = [terms.get((d,), Fraction(0)) for d in range(max(terms)[0] + 1)]
        monic = tuple(c / coeffs[-1] for c in coeffs)
        if len(monic) > 1:
            out.append((monic, exp))
    return sorted(out, key=lambda fe: (len(fe[0]), fe[0]))


def monic_factors(factors):
    """``_uni_factorization``'s primitive integer factors as the monic
    Fraction tuples of ``reference_uni_factorization``, in its order."""
    monic = [(tuple(Fraction(c, factor[-1]) for c in factor), exp) for factor, exp in factors]
    return sorted(monic, key=lambda fe: (len(fe[0]), fe[0]))


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 7]))


def _times(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _random_product(rng, factors, count, terms):
    """``terms`` times ``count`` random factors, each to a random power."""
    for _ in range(count):
        factor = rng.choice(factors)()
        for _ in range(rng.choice([1, 1, 2])):
            terms = _times(terms, factor)
    return terms


def random_germ(rng):
    """A product of rational branches through the origin, some repeated, and
    of units at the origin, times a rational constant; every center it
    needs is rational, so the resolver finishes."""
    branches = [
        lambda: {(0, 1): Fraction(1), (rng.randint(1, 2), 0): _rational(rng)},  # y + a x^k
        lambda: {(1, 0): Fraction(1), (0, 2): _rational(rng)},
        lambda: {(2, 0): Fraction(1), (0, 3): _rational(rng)},
        lambda: {(1, 0): Fraction(1)},
        lambda: {(0, 1): Fraction(1)},
        lambda: {(0, 0): _rational(rng), (1, 0): _rational(rng), (0, 1): Fraction(rng.randint(-2, 2))},
    ]
    terms = _random_product(rng, branches[:-1], 1, {(0, 0): _rational(rng)})
    return SparsePolynomial.from_terms(2, _random_product(rng, branches, rng.randint(0, 2), terms))


def random_univariate(rng):
    factors = [
        lambda: {(1,): Fraction(1), (0,): _rational(rng)},
        lambda: {(1,): Fraction(1)},
        lambda: {(2,): Fraction(1), (0,): Fraction(rng.choice([2, 3, 5, -1]))},
        lambda: {(2,): Fraction(1), (1,): _rational(rng), (0,): Fraction(rng.randint(3, 9))},
        lambda: {(3,): Fraction(1), (0,): _rational(rng)},
    ]
    terms = _random_product(rng, factors, rng.randint(0, 3), {(0,): _rational(rng)})
    return {e[0]: c for e, c in terms.items()}


class _CountingSympy:
    """Stands in for ``sympy`` inside ``contactloci.curves`` and counts the
    ``factor_list`` calls made there."""

    def __init__(self):
        self.calls = 0
        self.plane_calls = 0  # calls on polynomials in x and y

    def factor_list(self, poly, *args, **kwargs):
        self.calls += 1
        self.plane_calls += len(poly.gens) == 2
        return sympy.factor_list(poly, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(sympy, name)


def decomposable_rest(g):
    """Whether g without its monomial content is a rest through the origin
    whose polygon is decomposable, so that no Newton certificate applies."""
    i, j = min(a for a, _ in g), min(b for _, b in g)
    return (i, j) not in g and newton.is_decomposable(g)


def test_plane_factor_lists_match_expression_path(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    rng = random.Random(20190)
    dropped = repeated = rational = certified = specialised = by_sympy = 0
    for _ in range(200):
        f = random_germ(rng)
        before = counting.plane_calls
        _, log = resolve_plane_curve(f)
        kept, dropped_by_reference = reference_plane_factors(f)
        assert log.factors == kept, f.render()
        dropped += bool(dropped_by_reference)
        repeated += any(e > 1 for _, _, e in log.factors)
        rational += any(c.denominator > 1 for _, c in f.terms)
        certified += counting.plane_calls == before
        specialised += counting.plane_calls == before and decomposable_rest(f.as_dict())
        by_sympy += counting.plane_calls > before
    assert min(dropped, repeated, rational, certified, by_sympy) >= 20, (certified, by_sympy)
    # most decomposable rests here are products of branches
    assert specialised >= 3, specialised


def test_univariate_factorizations_match_expression_path(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    rng = random.Random(20191)
    repeated = units = by_inspection = by_sympy = 0
    for _ in range(200):
        u = random_univariate(rng)
        before = counting.calls
        got = monic_factors(_uni_factorization(u))
        assert got == reference_uni_factorization(u), u
        repeated += any(e > 1 for _, e in got)
        units += any(monic[0] for monic, _ in got)
        by_sympy += counting.calls > before
        by_inspection += counting.calls == before
    assert min(repeated, units, by_inspection, by_sympy) >= 50, (repeated, units, by_inspection, by_sympy)
    with pytest.raises(DomainError):
        _uni_factorization({})


def identity_violations(cfg: SncConfiguration) -> list[tuple[str, int, int]]:
    """The exceptional E_i whose m_i, nu_i and E_i^2 break one of
    m_i E_i^2 + sum c m_j = 0 (E_i . div(f o pi) = 0) or
    nu_i E_i^2 + sum c (nu_j - 1) = -2 (adjunction, K = sum (nu_j - 1) E_j
    over the exceptional E_j), as (label, m side, nu side); the sums run
    over the cells at E_i, c the cell's count."""
    bad = []
    for d in cfg.divisors:
        if not d.exceptional:
            continue
        partners = [(c.count, cfg.divisor(j)) for c in cfg.cells_containing(d.id) for j in c.ids if j != d.id]
        m_side = d.mult * d.self_int + sum(c * e.mult for c, e in partners)
        nu_side = d.disc * d.self_int + sum(c * (e.disc - 1) for c, e in partners if e.exceptional)
        if (m_side, nu_side) != (0, -2):
            bad.append((d.label, m_side, nu_side))
    return bad


def test_resolved_and_separated_germs_satisfy_the_resolution_identities():
    rng = random.Random(20261020)
    configurations = []
    blowups = repeated = subdivisions = 0
    for _ in range(100):
        cfg, log = resolve_plane_curve(random_germ(rng))
        blowups += len(log.blowups)
        repeated += len(log.blowups) > 1
        configurations.append(cfg)
        for m in (3, 7):
            sep, records = separate(cfg, m)
            subdivisions += len(records)
            configurations.append(sep)
    assert blowups >= 150 and repeated >= 40 and subdivisions >= 700, (blowups, repeated, subdivisions)
    for cfg in configurations:
        assert not identity_violations(cfg), cfg.to_json_dict()
    # a unit error in m or nu on any exceptional divisor breaks an identity
    for cfg in configurations[::10]:
        for d in cfg.divisors:
            if d.exceptional:
                for bump in ({"mult": d.mult + 1}, {"disc": d.disc + 1}):
                    mutant = [e._replace(**bump) if e is d else e for e in cfg.divisors]
                    assert identity_violations(cfg._replace(divisors=mutant)), (d.label, bump)


def random_power_restriction(rng):
    """t^i c (t + s)^k with k >= 2 as {degree: coefficient}; a third of
    them have one coefficient below t^(i+k-1) moved, which keeps the
    candidate s but breaks the power, and a sixth are (t + s)^k (t + r)."""
    lo, k, s, c = rng.randint(0, 2), rng.randint(2, 6), _rational(rng), _rational(rng)
    u = {lo + d: c * math.comb(k, d) * s ** (k - d) for d in range(k + 1)}
    pick = rng.random()
    if pick < 1 / 3:
        u[lo + rng.randint(0, k - 2)] += _rational(rng)
    elif pick < 1 / 2:
        terms = _times({(e,): a for e, a in u.items()}, {(1,): Fraction(1), (0,): _rational(rng)})
        u = {e[0]: a for e, a in terms.items()}
    return u


def test_pure_powers_match_sympy(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    rng = random.Random(20195)
    pure = other = 0
    for _ in range(160):
        u = random_power_restriction(rng)
        before = counting.calls
        got = monic_factors(_uni_factorization(u))
        assert got == reference_uni_factorization(u), u
        pure += counting.calls == before
        other += counting.calls > before
    assert pure >= 60 and other >= 60, (pure, other)


def test_factor_lists_of_written_products_match_the_expanded_polynomial(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    rng = random.Random(20192)
    counts = {"shared": 0, "repeated": 0, "constant": 0, "unit": 0, "certified": 0, "by sympy": 0}
    examples = [(text, None) for text in PRODUCT_EXAMPLES]
    for text, parts in examples + [random_product_text(rng) for _ in range(60)]:
        f, _ = parse_polynomial(text, ("x", "y"))
        assert f.multiplicands, text
        before = counting.plane_calls
        _, log = resolve_plane_curve(f)
        assert log.factors == reference_plane_factors(f)[0], text
        counts["certified"] += counting.plane_calls == before
        counts["by sympy"] += counting.plane_calls > before
        if parts is None:
            continue
        ids = [i for part, _ in parts for i in set(part)]
        counts["shared"] += len(ids) > len(set(ids))
        counts["repeated"] += any(e > 1 for _, _, e in log.factors)
        counts["constant"] += any(not part for part, _ in parts)
        counts["unit"] += any(part and min(part) >= 5 for part, _ in parts)
    assert min(counts.values()) >= 20, counts


# ---------------------------------------------------------------------------
# the Newton polygon certificate in front of sympy's factor_list


def random_sparse_germ(rng):
    """2-5 terms of total degree <= 7 with rational coefficients; some have
    a constant term."""
    monomials = [(a, b) for a in range(8) for b in range(8 - a)]
    if rng.random() < 0.8:
        monomials.remove((0, 0))
    return {mono: _rational(rng) for mono in rng.sample(monomials, rng.randint(2, 5))}


def as_term_tuples(factors):
    return sorted((tuple(sorted(terms.items(), reverse=True)), exp) for terms, exp in factors)


def test_certified_factors_match_sympy(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    rng = random.Random(20193)
    certified = specialised = by_sympy = unit_rests = 0
    for _ in range(600):
        g = random_sparse_germ(rng)
        before = counting.calls
        got = _plane_factorization(g)
        reference = [(t, e) for t, e in reference_factor_list(g, (_X, _Y)) if (0, 0) not in t]
        assert sorted(got) == as_term_tuples(reference), g
        if counting.calls == before:
            certified += 1
            specialised += decomposable_rest(g)
            # one factor besides the monomial content, none when the rest
            # is a unit at the origin
            unit_rest = (min(a for a, _ in g), min(b for _, b in g)) in g
            unit_rests += unit_rest
            assert sum(len(terms) > 1 for terms, _ in reference) == (not unit_rest), g
        else:
            by_sympy += 1
            # sympy's factors are already in the certificate's normal form,
            # so factors from either path merge
            assert all(factor == _primitive(dict(factor)) for factor, _ in got), g
    assert certified >= 300 and specialised >= 20 and by_sympy >= 20 and unit_rests >= 20, (
        certified, specialised, by_sympy, unit_rests
    )


# the last has coefficients -1000033 y0^3 and -1000033 in every
# specialisation, above the bound for trial division
@pytest.mark.parametrize("text", ["x^2-y^4", "x^4-y^6", "x^3-1000033*y^3"])
def test_decomposable_polygons_reach_sympy(monkeypatch, text):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    sizes = []
    divisors = curves._divisors
    monkeypatch.setattr(curves, "_divisors", lambda n: sizes.append(abs(n)) or divisors(n))
    g = parse_polynomial(text, ("x", "y"))[0].as_dict()
    assert newton.is_decomposable(g)
    assert sorted(_plane_factorization(g)) == as_term_tuples(reference_factor_list(g, (_X, _Y)))
    assert counting.plane_calls == 1
    assert all(n <= curves._COEFF_BOUND for n in sizes), sizes


# irreducible rests with decomposable polygons; the last two are (1 - y) and
# (8 + y) times an irreducible S, so S is certified after the content split
@pytest.mark.parametrize(
    "text", ["x^2+y^4", "x^2-8*y^3-4*y^4-4*x^2*y", "x^3+y^4-y^5-x^3*y", "-8*x^3+16*y^4+2*y^5-x^3*y"]
)
def test_specialisation_certifies_decomposable_rests(monkeypatch, text):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    g = parse_polynomial(text, ("x", "y"))[0].as_dict()
    assert newton.is_decomposable(g)
    assert sorted(_plane_factorization(g)) == as_term_tuples(
        [(t, e) for t, e in reference_factor_list(g, (_X, _Y)) if (0, 0) not in t]
    )
    assert counting.plane_calls == 0


def random_rest(rng, d):
    """A rest through the origin of degree d in x or in y, without monomial
    content: c x^d + c' y^e and up to two more terms, half of them times a
    unit content c0 + c1 y^k, and with x and y swapped half the time.
    Returns the terms and whether there is a content and a swap."""
    terms = {(d, 0): _rational(rng), (0, rng.randint(1, 4)): _rational(rng)}
    for _ in range(rng.randint(0, 2)):
        mono = (rng.randint(0, d), rng.randint(0, 4))
        if mono != (0, 0):
            terms[mono] = _rational(rng)
    content, swap = rng.random() < 0.5, rng.random() < 0.5
    if content:
        terms = _times(terms, {(0, 0): _rational(rng), (0, rng.randint(1, 2)): _rational(rng)})
    if swap:
        terms = {(b, a): c for (a, b), c in terms.items()}
    return terms, content, swap


def test_specialisation_certificate_matches_sympy(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    rng = random.Random(20196)
    counts = dict.fromkeys(["d = 1", "d = 2", "d = 3", "unit content", "in y", "reducible"], 0)
    for _ in range(60):
        d = rng.randint(1, 3)
        g, content, swap = random_rest(rng, d)
        if not newton.is_decomposable(g):
            continue
        before = counting.plane_calls
        got = _plane_factorization(g)
        reference = [(t, e) for t, e in reference_factor_list(g, (_X, _Y)) if (0, 0) not in t]
        assert sorted(got) == as_term_tuples(reference), g
        if counting.plane_calls == before:
            counts[f"d = {d}"] += 1
            counts["unit content"] += content
            counts["in y"] += swap
    # a product of two rests through the origin is never certified; this
    # needs no sympy, so it is checked on more of them
    for _ in range(200):
        g = _times(random_rest(rng, 1)[0], random_rest(rng, rng.randint(1, 2))[0])
        if newton.is_decomposable(g):
            assert curves._irreducible_by_specialisation(dict(_primitive(g))) is None, g
            counts["reducible"] += 1
    assert min(counts.values()) >= 8, counts


def test_indecomposable_polygon_is_certified(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    f, _ = parse_polynomial("x*y+x^3+y^3", ("x", "y"))
    assert not newton.is_decomposable(f.as_dict())
    _, log = resolve_plane_curve(f)
    assert log.factors == reference_plane_factors(f)[0]
    assert counting.calls == 0


def test_ladder_germs_resolve_without_factor_list(monkeypatch):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    for text in ("x^2+y^3", "x^3+y^4", "x^2*y+y^4", "x*y", "(x^2-y^3)*(x^3-y^2)"):
        resolve_plane_curve(text)
    assert counting.calls == 0


# ---------------------------------------------------------------------------
# the stdlib sort key in place of sympy.default_sort_key


def random_integer_factor(rng):
    """A term tuple in lex-descending order with 1-4 terms, exponents <= 5
    and coefficients in +-1..6; a quarter are c + d x^k or c + d y^k."""
    if rng.random() < 0.25:
        k = rng.randint(1, 5)
        monomials = [rng.choice([(k, 0), (0, k)]), (0, 0)]
    else:
        monomials = rng.sample([(a, b) for a in range(6) for b in range(6)], rng.randint(1, 4))
    signed = [rng.choice([-1, 1]) * rng.randint(1, 6) for _ in monomials]
    return tuple(sorted(((mono, Fraction(c)) for mono, c in zip(monomials, signed)), reverse=True))


def test_sort_key_matches_sympy():
    rng = random.Random(20194)
    negated_powers = 0  # c - d x^k and c - d y^k with c, d > 0
    for _ in range(600):
        factors = list({random_integer_factor(rng) for _ in range(rng.randint(2, 4))})
        expected = sorted(factors, key=lambda f: sympy.default_sort_key(curves._sympy_poly(dict(f), _X, _Y)))
        rng.shuffle(factors)
        assert sorted(factors, key=curves._sort_key) == expected, factors
        negated_powers += sum(
            len(f) == 2 and f[1][0] == (0, 0) and 0 in f[0][0] and f[0][1] < 0 < f[1][1] for f in factors
        )
    assert negated_powers >= 60, negated_powers


@pytest.mark.parametrize(
    "points, decomposable",
    [
        ([(0, 0)], False),
        ([(2, 0), (0, 3)], False),  # x^2 + y^3
        ([(2, 0), (0, 4)], True),  # x^2 + y^4 = (x + i y^2)(x - i y^2)
        ([(2, 0), (1, 1), (0, 2)], True),  # a square of a line, the middle term on the edge
        ([(1, 1), (3, 0), (0, 3)], False),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], True),  # the unit square is two segments
        ([(3, 0), (0, 3), (0, 5)], False),  # (x - s y)^3 + c y^5
    ],
)
def test_newton_polygon_decomposability(points, decomposable):
    assert newton.is_decomposable(points) == decomposable


# ---------------------------------------------------------------------------
# strict transforms as integer polynomials up to a nonzero scalar


def reference_translate_v(g, tau):
    """g(u, v + tau) in Fractions and unscaled, as the resolver translated
    before it held its strict transforms in integers."""
    if not tau:
        return dict(g)
    out = {}
    for (a, b), c in g.items():
        for k in range(b, -1, -1):
            coeff = c * math.comb(b, k) * tau ** (b - k)
            if coeff:
                out[(a, k)] = out.get((a, k), Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def test_translate_v_is_the_fraction_translation_scaled_by_r_to_the_top_degree():
    rng = random.Random(20196)
    non_integer = 0
    for _ in range(400):
        monomials = rng.sample([(a, b) for a in range(5) for b in range(7)], rng.randint(1, 6))
        g = {mono: rng.choice([-1, 1]) * rng.randint(1, 9) for mono in monomials}
        tau = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        top = max(b for _, b in g)
        got = curves._translate_v(g, tau)
        assert got == {k: tau.denominator**top * c for k, c in reference_translate_v(g, tau).items()}, (g, tau)
        assert all(type(c) is int for c in got.values()), (g, tau)
        non_integer += tau.denominator > 1
    assert non_integer >= 250, non_integer


def random_sheared_germ(rng):
    """A product of one or two branches (a x - b y)^k + c y^n with gcd(k, n)
    = 1, some mirrored (x and y swapped); their tangents x = (b/a) y put
    the first centres at rational, mostly non-integer, points t = b/a."""
    branches = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(2, 4)
        n = rng.choice([e for e in range(k + 1, 16) if math.gcd(k, e) == 1])
        a, b, c = rng.randint(1, 4), rng.randint(1, 9), rng.choice([-3, -2, -1, 1, 2, 5])
        x, y = ("x", "y") if rng.random() < 0.7 else ("y", "x")
        branches.append(f"(({a}*{x}-{b}*{y})^{k}{c:+d}*{y}^{n})")
    return "*".join(branches)


def test_integer_strict_transforms_resolve_as_fraction_ones(monkeypatch):
    # the resolver reads nothing that scaling a strict transform changes, so
    # translating in Fractions without the factor r^B gives the same output
    rng = random.Random(20197)
    translate = curves._translate_v
    taus = []

    def recording(g, tau):
        taus.append(tau)
        return translate(g, tau)

    non_integer = 0
    for _ in range(120):
        text = random_sheared_germ(rng)
        monkeypatch.setattr(curves, "_translate_v", reference_translate_v)
        expected = resolve_plane_curve(text)
        monkeypatch.setattr(curves, "_translate_v", recording)
        taus.clear()
        assert resolve_plane_curve(text) == expected, text
        non_integer += any(tau.denominator > 1 for tau in taus)
    assert non_integer >= 60, non_integer


# (sheared germ, unsheared germ, D labels of the unsheared germ by the sheared
# one's): the first two are the same germ after a linear change of
# coordinates; the product has the same branches, each with its own tangent
SHEARED = [
    ("(x-2*y)^2+y^127", "x^2+y^127", {}),
    ("(3*x-y)^2+y^101", "x^2+y^101", {}),
    ("((x-2*y)^3+y^64)*((3*x-y)^2+y^101)", "(x^3+y^64)*(y^2+x^101)", {"D1": "D2", "D2": "D1"}),
]


@pytest.mark.parametrize("sheared, plain, relabel", SHEARED)
def test_sheared_germs_resolve_as_their_unsheared_forms(monkeypatch, capsys, sheared, plain, relabel):
    translate = curves._translate_v
    calls = []  # (tau, order of tau as a root of the strict transform on the new divisor)

    def recording(g, tau):
        out = translate(g, tau)
        calls.append((tau, min(k for a, k in out if a == 0)))
        return out

    monkeypatch.setattr(curves, "_translate_v", recording)
    cfg, _ = resolve_plane_curve(sheared)
    plain_cfg, _ = resolve_plane_curve(plain)

    def divisors(c, names):
        return sorted((names.get(d.label, d.label), d.mult, d.disc, d.self_int) for d in c.divisors)

    assert divisors(cfg, {}) == divisors(plain_cfg, relabel)
    assert cells_by_labels(cfg) == {
        tuple(sorted(relabel.get(label, label) for label in pair)): count
        for pair, count in cells_by_labels(plain_cfg).items()
    }
    # a simple root of one strict transform is settled where it is found;
    # it is translated only at t = 0, where an old axis meets it
    assert calls and all(order > 1 or tau == 0 for tau, order in calls), calls

    assert main(["report", "--poly", sheared, "--m", "6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"


# germs with rational coefficients as --poly-json documents, with the output
# the resolver gave them when it worked in Fractions: the certified factor
# of -3/2 (x - 3/2 y)^2 + y^5 (its polygon is indecomposable), the two
# factors 2x - 3y -+ 2y^3 that sympy finds, and one factor certified by
# specialisation (4x^2 - 12x + 13 at y = 1 has no rational root) whose last
# centre is a conjugate pair
POLY_JSON = [
    (
        [[[2, 0], "-3/2"], [[1, 1], "9/2"], [[0, 2], "-27/8"], [[0, 5], "1"]],
        0,
        [("D1", "12*x^2 - 36*x*y + 27*y^2 - 8*y^5", 1)],
        ["origin", "E1 chart at t=2/3", "E2 chart at t=0", "E3 chart at infinity"],
        [("E1", 2, 2, -2), ("E2", 4, 3, -3), ("E3", 5, 4, -2), ("E4", 10, 7, -1), ("D1", 1, 1, None)],
        [((3, 4), 1), ((0, 1), 1), ((1, 3), 1), ((2, 3), 1)],
    ),
    (
        [[[2, 0], "-3/2"], [[1, 1], "9/2"], [[0, 2], "-27/8"], [[0, 6], "3/2"]],
        1,
        [("D1", "2*x - 3*y - 2*y^3", 1), ("D2", "2*x - 3*y + 2*y^3", 1)],
        ["origin", "E1 chart at t=2/3", "E2 chart at t=0"],
        [("E1", 2, 2, -2), ("E2", 4, 3, -2), ("E3", 6, 4, -1), ("D1", 1, 1, None), ("D2", 1, 1, None)],
        [((2, 3), 1), ((2, 4), 1), ((0, 1), 1), ((1, 2), 1)],
    ),
    (
        [[[2, 0], "-3/2"], [[1, 1], "9/2"], [[0, 2], "-27/8"], [[0, 4], "-3/2"]],
        0,
        [("D1", "4*x^2 - 12*x*y + 9*y^2 + 4*y^4", 1)],
        ["origin", "E1 chart at t=2/3"],
        [("E1", 2, 2, -2), ("E2", 4, 3, -1), ("D1", 1, 1, None)],
        [((1, 2), 2), ((0, 1), 1)],
    ),
]


@pytest.mark.parametrize("terms, plane_calls, factors, sites, divisors, cells", POLY_JSON)
def test_rational_poly_json_germs_resolve_as_before(
    monkeypatch, capsys, tmp_path, terms, plane_calls, factors, sites, divisors, cells
):
    counting = _CountingSympy()
    monkeypatch.setattr(curves, "sympy", counting)
    path = tmp_path / "germ.json"
    path.write_text(json.dumps({"nvars": 2, "terms": terms}))
    assert main(["resolve", "--poly-json", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert counting.plane_calls == plane_calls
    assert [(d["label"], d["poly"], d["mult"]) for d in data["factors"]] == factors
    assert [b["site"] for b in data["blowups"]] == sites
    config = data["configuration"]
    assert [(d["label"], d["mult"], d["disc"], d.get("self_int")) for d in config["divisors"]] == divisors
    assert [(tuple(c["ids"]), c["count"]) for c in config["cells"]] == cells


# ---------------------------------------------------------------------------
# the classification of points of a new divisor against a queue-then-test loop


def reference_is_snc(axes, stricts):
    """Simple normal crossing test for a queued point of a new divisor: two
    curves through it, both smooth, a strict transform among them
    transverse to the axis."""
    u, v = axes
    if any(curves._mult0(g) >= 2 for g in stricts.values()):
        return False
    if len(stricts) + (u is not None) + (v is not None) > 2:
        return False
    if not stricts:
        return True
    (g,) = stricts.values()
    cu, cv = g.get((1, 0), 0), g.get((0, 1), 0)
    # tangent to {u = 0} iff the v-coefficient vanishes, and dually
    return cv != 0 if u is not None else cu != 0


def reference_resolve(f):
    """``resolve_plane_curve`` as a loop that queues every point of a new
    divisor (except a simple root of one strict transform off the old
    axes), builds both charts of every strict transform, and tests each
    popped point with ``reference_is_snc`` before it blows it up.  It
    factors the cones with ``reference_uni_factorization`` and translates
    in Fractions with ``reference_translate_v``, not with the resolver's
    own functions."""
    f = curves.as_plane_curve(f)
    pieces = [(g, e) for g, e in f.multiplicands if e and any(any(exps) for exps, _ in g.terms)]
    merged = Counter()
    for g, e in pieces or [(f, 1)]:
        for factor, exp in _plane_factorization(g.as_dict()):
            merged[factor] += exp * e
    factors = sorted(merged, key=curves._sort_key)
    exponents = [merged[factor] for factor in factors]
    texts = tuple(
        (j, SparsePolynomial.from_terms(2, dict(factor)).render(("x", "y")), merged[factor])
        for j, factor in enumerate(factors)
    )

    exceptional = []  # [mult, disc, self_int]
    cell_counts = Counter()
    records = []
    worklist = deque([((None, None), {j: dict(factor) for j, factor in enumerate(factors)}, "origin")])
    while worklist:
        axes, stricts, site = worklist.popleft()
        if exceptional and reference_is_snc(axes, stricts):
            handles = [("E", i) for i in axes if i is not None] + [("D", j) for j in stricts]
            cell_counts[tuple(sorted(handles))] += 1
            continue
        new_index = len(exceptional)
        mults = {j: curves._mult0(g) for j, g in stricts.items()}
        on = [i for i in axes if i is not None]
        m_new = sum(exponents[j] * mu for j, mu in mults.items()) + sum(exceptional[i][0] for i in on)
        nu_new = 2 + sum(exceptional[i][1] - 1 for i in on)
        for i in on:
            exceptional[i][2] -= 1
        exceptional.append([m_new, nu_new, -1])
        records.append(curves.BlowupRecord(new_index, site, tuple(on), tuple(sorted(mults.items())), m_new, nu_new))

        u, v = axes
        chart1 = {j: curves._chart1(g, mults[j]) for j, g in stricts.items()}
        root_keys = {}
        for j, g in chart1.items():
            for monic, exp in reference_uni_factorization({b: c for (a, b), c in g.items() if a == 0}):
                root_keys.setdefault(monic, {})[j] = exp
        if v is not None:
            root_keys.setdefault((Fraction(0), Fraction(1)), {})
        for monic in sorted(root_keys, key=lambda mk: (len(mk), mk)):
            participants = root_keys[monic]
            degree = len(monic) - 1
            if list(participants.values()) == [1] and not (v is not None and monic == (0, 1)):
                (j,) = participants
                cell_counts[("D", j), ("E", new_index)] += degree
            elif degree == 1:
                tau = -monic[0]
                child = {j: reference_translate_v(chart1[j], tau) for j in participants}
                worklist.append(((new_index, v if tau == 0 else None), child, f"E{new_index + 1} chart at t={tau}"))
            else:
                raise DomainError(
                    "resolution needs a blowup at a non-rational point cluster "
                    f"(degree {degree}); only rational centers are supported"
                )

        chart2 = {j: curves._chart2(g, mults[j]) for j, g in stricts.items()}
        through = {j: g for j, g in chart2.items() if not g.get((0, 0))}
        if u is not None or through:
            worklist.append(((u, new_index), through, f"E{new_index + 1} chart at infinity"))

    n_exc = len(exceptional)
    divisors = [
        Divisor(i, f"E{i + 1}", mult, disc, True, True, 0, self_int)
        for i, (mult, disc, self_int) in enumerate(exceptional)
    ]
    divisors += [Divisor(n_exc + j, f"D{j + 1}", exp, 1, False, False, 0, None) for j, _, exp in texts]

    def handle_id(handle):
        return handle[1] if handle[0] == "E" else n_exc + handle[1]

    cells = tuple(
        IntersectionCell((handle_id(a), handle_id(b)), count, True) for (a, b), count in sorted(cell_counts.items())
    )
    cfg = SncConfiguration(ambient_dim=2, divisors=tuple(divisors), cells=cells)
    return cfg, curves.ResolutionLog(factors=texts, blowups=tuple(records))


def random_branch_product(rng):
    """A product of one to three branches, some mirrored (x and y swapped):
    sheared ones (a x - b y)^k + c y^n, and ones (x^2 + d y^2)^k + c x^n
    whose tangents are a conjugate pair, which two branches may share."""
    branches = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        x, y = ("x", "y") if rng.random() < 0.6 else ("y", "x")
        k, c = rng.choice([1, 1, 2, 3]), rng.choice([-2, -1, 1, 3])
        n = rng.randint(2 * k + 1, 9)
        if rng.random() < 0.65:
            a, b = rng.randint(1, 3), rng.choice([0, 0, 1, 2, 4])
            branches.append(f"(({a}*{x}-{b}*{y})^{k}{c:+d}*{y}^{n})")
        else:
            d = rng.choice([-2, 2, 3])
            branches.append(f"(({x}^2{d:+d}*{y}^2)^{rng.randint(1, 2)}{c:+d}*{x}^{n})")
    return "*".join(branches)


def settle_outcome(axes, meets, degree, blown_up):
    """What ``curves._settle`` decided at one point.  Chart I holds the new
    divisor on {u = 0}, chart II on {v = 0}, and the new divisor has the
    larger index."""
    chart = "II" if axes[0] is None or (axes[1] is not None and axes[1] > axes[0]) else "I"
    if blown_up:
        return f"chart {chart} blowup"
    if not meets:
        return f"chart {chart} axis"
    if degree > 1:
        return "cluster"
    (k,) = meets.values()
    return f"chart {chart} crossing, multiplicity {k}"


def test_points_are_classified_as_the_queue_then_test_loop_does(monkeypatch):
    settle = curves._settle
    outcomes = Counter()

    def counting(cells, axes, meets, degree):
        try:
            blown_up = settle(cells, axes, meets, degree)
        except DomainError:
            outcomes["refused"] += 1
            raise
        outcomes[settle_outcome(axes, meets, degree, blown_up)] += 1
        return blown_up

    monkeypatch.setattr(curves, "_settle", counting)
    rng = random.Random(20231)
    for _ in range(320):
        text = random_branch_product(rng)
        try:
            expected = reference_resolve(text)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                resolve_plane_curve(text)
            assert str(got.value) == str(exc), text
            continue
        assert resolve_plane_curve(text) == expected, text
    # every point is one of these, and each kind is met often enough
    floors = {
        "chart I axis": 20,
        "chart II axis": 20,
        "chart I crossing, multiplicity 1": 20,
        "cluster": 20,
        "chart II crossing, multiplicity 1": 20,
        "chart II blowup": 20,
        "chart I blowup": 0,
        "refused": 10,
    }
    assert set(outcomes) <= set(floors), outcomes
    assert all(outcomes[outcome] >= floor for outcome, floor in floors.items()), outcomes
