"""End-to-end consistency on harder germs than the reference families.

Every case triangulates at least two of: hand-derived resolution data,
the combinatorial Euler oracle, the page assembly, closed-form or naive
jet counts, and polynomial count fits.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactloci.covers import cover_betti
from contactloci.curves import resolve_plane_curve
from contactloci.errors import DomainError
from contactloci.jets import contact_count, interpolate_chi
from contactloci.lefschetz import cross_check_euler, lefschetz_number
from contactloci.model import validate_configuration
from contactloci.polys import SparsePolynomial
from contactloci.separation import separate
from contactloci.spectral import (
    degeneration_analysis,
    e1_page,
    multiplicity_case_prediction,
)
from contactloci.weights import solve_weights

from conftest import naive_contact_count


def pipeline(cfg, m):
    sep, _ = separate(cfg, m)
    w = solve_weights(sep)
    return sep, w, e1_page(sep, w, m)


class TestThreeTangentParabolas:
    """f = (y - x^2)(y - 2x^2)(y + x^2): three smooth branches with a
    common tangent, resolved by two blowups."""

    F = "(y - x^2)(y - 2x^2)(y + x^2)"

    def cfg(self):
        cfg, _ = resolve_plane_curve(self.F)
        return cfg

    def test_resolution_data(self):
        cfg = self.cfg()
        exc = sorted((d.mult, d.disc, d.self_int) for d in cfg.divisors if d.exceptional)
        assert exc == [(3, 2, -2), (6, 3, -1)]
        assert sum(1 for d in cfg.divisors if not d.exceptional) == 3

    def test_lefschetz_sequence(self):
        cfg = self.cfg()
        assert [lefschetz_number(cfg, m) for m in range(1, 7)] == [0, 0, 3, 0, 0, -9]
        # chi of the Milnor fiber: three pairwise tangent smooth branches
        # have delta = 6 and mu = 2 delta - r + 1 = 10, so chi(F) = -9
        assert lefschetz_number(cfg, 6) == 1 - 10

    def test_pages(self):
        cfg = self.cfg()
        _, _, page3 = pipeline(cfg, 3)
        assert page3.ranks_by_total_degree() == {10: 3}
        prediction = multiplicity_case_prediction(2, 3, (3,))  # {y^3 = 1}: 3 parallel lines
        assert page3.ranks_by_total_degree() == prediction
        _, _, page6 = pipeline(cfg, 6)
        assert page6.ranks_by_total_degree() == {18: 3, 19: 13, 20: 1}
        assert page6.euler_characteristic() == -9

    def test_oracle_m3(self):
        for q in (7, 13):  # split primes, q = 1 mod 3
            assert contact_count(self.F, 3, 3, q).total == 3 * q ** 5
        counts = [(q, contact_count(self.F, 3, 3, q).total) for q in (7, 13, 19)]
        fit = interpolate_chi(counts, expected_dim=5)
        assert fit.conclusive and fit.chi == 3 and fit.degree == 5

    def test_cross_checks(self):
        cfg = self.cfg()
        for m in range(1, 7):
            _, _, page = pipeline(cfg, m)
            assert cross_check_euler(page, cfg).passed


class TestLineTimesConjugatePair:
    """f = y (x^2 + y^2): the cyclic cover of the exceptional curve is a
    genus-one curve, so jet counts are honestly non-polynomial."""

    F = "x^2*y + y^3"

    def test_resolution_and_lefschetz(self):
        cfg, _ = resolve_plane_curve(self.F)
        exc = [(d.mult, d.disc, d.self_int) for d in cfg.divisors if d.exceptional]
        assert exc == [(3, 2, -1)]
        counts = {c.count for c in cfg.cells}
        assert counts == {1, 2}  # rational line point and a conjugate pair
        assert lefschetz_number(cfg, 3) == -3

    def test_counts_match_naive(self):
        assert contact_count(self.F, 3, 3, 5).total == naive_contact_count(self.F, 3, 3, 5)

    def test_fit_is_honestly_inconclusive(self):
        counts = [(q, contact_count(self.F, 3, 3, q).total) for q in (13, 37, 61)]
        fit = interpolate_chi(counts)
        assert not fit.conclusive
        assert "inconclusive" in fit.message

    def test_euler_two_path_still_passes(self):
        cfg, _ = resolve_plane_curve(self.F)
        sep, w, page = pipeline(cfg, 3)
        check = cross_check_euler(page, cfg)
        assert check.passed and check.lefschetz == -3
        cover = cover_betti(sep, 0)
        assert cover.betti == (1, 4)  # connected, chi = -3: a thrice punctured torus


class TestTwoCuspidalBranches:
    """f = y^4 - x^6 = (y^2 - x^3)(y^2 + x^3): two tangent cusps."""

    F = "y^4 - x^6"

    def cfg(self):
        cfg, _ = resolve_plane_curve(self.F)
        return cfg

    def test_resolution_data(self):
        cfg = self.cfg()
        exc = sorted((d.mult, d.disc, d.self_int) for d in cfg.divisors if d.exceptional)
        assert exc == [(4, 2, -3), (6, 3, -2), (12, 5, -1)]

    def test_milnor_number_via_lefschetz(self):
        # each cusp has mu = 2 and the branches meet with multiplicity 6:
        # mu(total) = 2 + 2 + 2*6 - 1 = 15, so chi(F) = -14 at m = 12
        cfg = self.cfg()
        assert [lefschetz_number(cfg, m) for m in (4, 6, 12)] == [4, 6, -14]

    def test_pages(self):
        cfg = self.cfg()
        _, _, page4 = pipeline(cfg, 4)
        assert page4.ranks_by_total_degree() == {14: 4}
        prediction = multiplicity_case_prediction(2, 4, (4,))  # {y^4 = 1}: 4 parallel lines
        assert page4.ranks_by_total_degree() == prediction
        _, _, page6 = pipeline(cfg, 6)
        assert page6.ranks_by_total_degree() == {20: 6}
        _, _, page12 = pipeline(cfg, 12)
        assert page12.ranks_by_total_degree() == {38: 10, 39: 25, 40: 1}
        hc = degeneration_analysis(page12)
        assert hc.euler == -14
        assert hc.status(40).kind == "exact"

    def test_oracle_m4(self):
        assert contact_count(self.F, 4, 4, 3).total == naive_contact_count(self.F, 4, 4, 3)
        for q in (5, 13):
            assert contact_count(self.F, 4, 4, q).total == math.gcd(4, q - 1) * q ** 7
        counts = [(q, contact_count(self.F, 4, 4, q).total) for q in (5, 13, 17)]
        fit = interpolate_chi(counts, expected_dim=7)
        assert fit.conclusive and fit.chi == 4 and fit.degree == 7

    @pytest.mark.parametrize("m", range(1, 13))
    def test_cross_checks(self, m):
        cfg = self.cfg()
        _, _, page = pipeline(cfg, m)
        assert cross_check_euler(page, cfg).passed


MONOMIAL_POOL = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3), (2, 1), (1, 2)]


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.integers(-2, 2), min_size=9, max_size=9),
    m=st.integers(1, 6),
)
def test_random_germs_full_pipeline(coeffs, m):
    """Resolve a random germ, separate, and cross check the Euler
    characteristic two ways; skip germs needing non-rational centers."""
    terms = {mono: c for mono, c in zip(MONOMIAL_POOL, coeffs) if c}
    assume(terms)
    poly = SparsePolynomial.from_terms(2, terms)
    assume(not poly.is_zero())
    try:
        cfg, _ = resolve_plane_curve(poly)
    except DomainError:
        assume(False)
    assert validate_configuration(cfg) == []
    sep, _ = separate(cfg, m)
    w = solve_weights(sep)
    check = cross_check_euler(e1_page(sep, w, m), cfg)
    assert check.passed
