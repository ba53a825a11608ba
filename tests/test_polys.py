import random
from fractions import Fraction

import pytest

from contactloci.errors import DomainError
from contactloci.polys import SparsePolynomial, parse_polynomial

from conftest import PRODUCT_EXAMPLES, random_product_text


def test_parse_simple():
    poly, names = parse_polynomial("x^2 + y^3")
    assert names == ("x", "y")
    assert poly.as_dict() == {(2, 0): 1, (0, 3): 1}


def test_parse_explicit_star_and_juxtaposition():
    star, _ = parse_polynomial("x*y")
    juxta, _ = parse_polynomial("x y", variables=("x", "y"))
    coeffs, _ = parse_polynomial("2x^2y - 3", variables=("x", "y"))
    assert star.as_dict() == {(1, 1): 1}
    assert juxta.as_dict() == {(1, 1): 1}
    assert coeffs.as_dict() == {(2, 1): 2, (0, 0): -3}


def test_parse_parentheses_and_minus():
    poly, _ = parse_polynomial("(x - y)^2 - x^2", variables=("x", "y"))
    assert poly.as_dict() == {(1, 1): -2, (0, 2): 1}


def test_parse_double_star_power():
    poly, _ = parse_polynomial("x**3 + y")
    assert poly.as_dict() == {(3, 0): 1, (0, 1): 1}


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_polynomial("x^")
    with pytest.raises(DomainError):
        parse_polynomial("x + ?")


def test_multiplicity_and_linear_part():
    def multiplicity_at_origin(poly):
        return min(sum(exps) for exps, _ in poly.terms)

    def linear_part(poly):
        grad = [0] * poly.nvars
        for exps, coeff in poly.terms:
            if sum(exps) == 1:
                grad[exps.index(1)] = coeff
        return tuple(grad)

    poly, _ = parse_polynomial("x^2 + y^3")
    assert multiplicity_at_origin(poly) == 2
    assert linear_part(poly) == (0, 0)
    smooth, _ = parse_polynomial("y - x^2", variables=("x", "y"))
    assert linear_part(smooth) == (0, 1)


def test_zero_coefficients_are_dropped():
    poly = SparsePolynomial.from_terms(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert poly.as_dict() == {(1, 0): 1}


def test_json_roundtrip():
    poly, _ = parse_polynomial("2x^2 - 3y + 7", variables=("x", "y"))
    again = SparsePolynomial.from_json_dict(poly.to_json_dict())
    assert again == poly


def test_render():
    poly, _ = parse_polynomial("x^2 + y^3")
    assert poly.render() == "x^2 + y^3"
    poly2, _ = parse_polynomial("-2x + y", variables=("x", "y"))
    assert poly2.render() == "-2*x + y"


def _expanded_product(poly):
    """The product of ``poly``'s multiplicands, expanded by the parser."""
    text = "*".join(f"({g.render()})^{e}" for g, e in poly.multiplicands)
    return parse_polynomial(text, ("x", "y"))[0]


def test_written_products_parse_to_the_expanded_polynomial():
    rng = random.Random(20193)
    texts = list(PRODUCT_EXAMPLES) + [random_product_text(rng)[0] for _ in range(60)]
    for text in texts:
        product, _ = parse_polynomial(text, ("x", "y"))
        expanded, _ = parse_polynomial(product.render(), ("x", "y"))
        assert product.multiplicands, text
        assert product == expanded and hash(product) == hash(expanded), text
        assert product.to_json_dict() == expanded.to_json_dict(), text
        assert repr(product) == repr(expanded), text
        assert _expanded_product(product) == product, text


def test_multiplicands_of_the_outermost_term_only():
    poly, _ = parse_polynomial("-((x+y)*(x-y))^2*x*3", ("x", "y"))
    assert [(g.render(), e) for g, e in poly.multiplicands] == [
        ("-1", 1), ("x^2 - y^2", 2), ("x", 1), ("3", 1)
    ]
    for text in ("x*y + y^4", "x^2 - (x - y)*(x + y)", "(x - y)*(x + y) + 1"):
        assert parse_polynomial(text, ("x", "y"))[0].multiplicands == (), text
    from_json = SparsePolynomial.from_json_dict(poly.to_json_dict())
    assert from_json == poly and from_json.multiplicands == ()


@pytest.mark.parametrize("base", ["3x^2y", "-2y", "x - 2y + 1", "x^2 - x*y + 3"])
@pytest.mark.parametrize("e", [0, 1, 2, 5, 8])
def test_powers_equal_repeated_products(base, e):
    power, _ = parse_polynomial(f"({base})^{e}", ("x", "y"))
    repeated, _ = parse_polynomial("*".join([f"({base})"] * e) or "1", ("x", "y"))
    assert power == repeated
