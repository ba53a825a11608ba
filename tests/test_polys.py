import functools
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


@pytest.mark.parametrize("text", [" x^2+y^3", "x^2+y^3 ", "\t x^2 + y^3 \n", "  (x^2+y^3)  "])
def test_whitespace_at_either_end_is_ignored(text):
    poly, names = parse_polynomial(text)
    assert names == ("x", "y")
    assert poly.as_dict() == {(2, 0): 1, (0, 3): 1}


@pytest.mark.parametrize("text", ["x^2+y^3+", "-", "x*", "(x+", "x^2 - ", "", "  "])
def test_input_that_stops_short_says_so(text):
    with pytest.raises(DomainError, match="^unexpected end of input$"):
        parse_polynomial(text)


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


def reference_render(poly, names=("x", "y", "z", "w")):
    """``SparsePolynomial.render`` as it was when it did its arithmetic on
    the Fraction coefficients.  Kept to pin the current one to it."""
    if len(names) < poly.nvars:
        names = [f"x{i}" for i in range(1, poly.nvars + 1)]

    def order(term):
        exps, _ = term
        degree = sum(exps)
        return (degree == 0, degree, tuple(-e for e in exps))

    parts = []
    for exps, coeff in sorted(poly.terms, key=order):
        powers = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        if not powers:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(powers)
        else:
            body = "*".join([str(abs(coeff))] + powers)
        parts.append((coeff < 0, body))
    if not parts:
        return "0"
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def test_render_matches_the_reference_on_random_polynomials():
    rng = random.Random(4711)
    coeffs = [1, -1, 2, -7, 12, Fraction(1, 2), Fraction(-3, 4), Fraction(-1, 3), Fraction(10, 7)]
    seen = {"rational": 0, "unit": 0, "constant": 0, "x1..xn": 0}
    for _ in range(600):
        nvars = rng.choice([1, 2, 2, 3, 5, 6])
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars))
            terms[exps] = rng.choice(coeffs)
        poly = SparsePolynomial.from_terms(nvars, terms)
        for names in (("x", "y", "z", "w"), ("u", "v")):
            assert poly.render(names) == reference_render(poly, names), poly
        text = poly.render()
        seen["rational"] += "/" in text
        seen["unit"] += any(abs(c) == 1 and any(e) for e, c in poly.terms)
        seen["constant"] += any(not any(e) for e, _ in poly.terms)
        seen["x1..xn"] += "x1" in text
    assert min(seen.values()) >= 50, seen


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


# The parser as it was before it built exponent vectors directly: terms keyed
# by sorted tuples of variable names, converted once the variable set is known.
# Kept to pin the current parser to it.  It reads its tokens from its own
# character scanner, so that a fault in the parser's tokenizer shows here.

_DIGITS = "0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _ref_tokenize(text):
    """(kind, value) pairs, kind "int", "var" or "op"; ``**`` reads as ``^``."""
    tokens, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _DIGITS:
            start = i
            while i < len(text) and text[i] in _DIGITS:
                i += 1
            tokens.append(("int", text[start:i]))
        elif c in _LETTERS:
            tokens.append(("var", c))
            i += 1
        elif c in "()^+*-":
            star_star = text.startswith("**", i)
            tokens.append(("op", "^" if star_star else c))
            i += 2 if star_star else 1
        else:  # quoted from where the whitespace before it starts
            start = len(text[:i].rstrip())
            raise DomainError(f"cannot parse polynomial near {text.rstrip()[start:start + 10]!r}")
    return tokens


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.vars = {}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        factors = []
        if self.peek() == ("op", "-"):
            self.take()
            factors.append(({(): Fraction(-1)}, 1))
        factors += self.term()
        result, multiplicands = _ref_product(factors), tuple(factors)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            rhs = _ref_product(self.term())
            result, multiplicands = _ref_add(result, _ref_scale(rhs, -1 if op == "-" else 1)), ()
        return result, multiplicands

    def term(self):
        factors = [self.factor()]
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.take()
                factors.append(self.factor())
            elif kind in ("int", "var") or (kind == "op" and value == "("):
                factors.append(self.factor())
            else:
                return factors

    def factor(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, value = self.take()
            if kind != "int":
                raise DomainError("exponent must be a literal integer")
            return base, int(value)
        return base, 1

    def atom(self):
        kind, value = self.take()
        if kind == "int":
            return {(): Fraction(value)}
        if kind == "var":
            self.vars.setdefault(value, None)
            return {(value,): Fraction(1)}
        if (kind, value) == ("op", "("):
            inner, _ = self.expr()
            if self.take() != ("op", ")"):
                raise DomainError("missing closing parenthesis")
            return inner
        if kind is None:
            raise DomainError("unexpected end of input")
        raise DomainError(f"unexpected token {value!r}")


def _ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def _ref_scale(a, s):
    return {k: c * s for k, c in a.items()}


def _ref_pow(a, e):
    if e < 0:
        raise DomainError("negative exponents are not polynomials")
    if len(a) == 1:
        ((key, coeff),) = a.items()
        return {tuple(sorted(key * e)): coeff ** e}
    out = {(): Fraction(1)}
    while e:  # square and multiply
        if e & 1:
            out = _ref_mul(out, a)
        e >>= 1
        if e:
            a = _ref_mul(a, a)
    return out


def _ref_product(factors):
    return functools.reduce(_ref_mul, (_ref_pow(base, e) for base, e in factors))


def reference_parse(text, variables=None):
    parser = _ReferenceParser(_ref_tokenize(text))
    raw, factors = parser.expr()
    if parser.pos != len(parser.tokens):
        raise DomainError(f"trailing input after position {parser.pos}")
    if variables is None:
        variables = tuple(sorted(parser.vars))
    unknown = set(parser.vars) - set(variables)
    if unknown:
        raise DomainError(f"unknown variables {sorted(unknown)}")
    index = {name: i for i, name in enumerate(variables)}

    def build(raw_terms):
        terms = {}
        for key, coeff in raw_terms.items():
            exps = [0] * len(variables)
            for name in key:
                exps[index[name]] += 1
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
        return SparsePolynomial.from_terms(len(variables), terms)

    return build(raw), tuple((build(base), e) for base, e in factors), variables


_MALFORMED_TAILS = ("^", "+", "*", ")", "(", "^x", "?", "**", "(x", "^-1", "x^", "+ w)", "(w", "^^2", "- (")


def _random_expression(rng, names, depth):
    terms = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        factors = []
        for _ in range(rng.choice([1, 2, 2])):
            pick = rng.random()
            if depth and pick < 0.2:
                atom = f"({_random_expression(rng, names, depth - 1)})"
            elif pick < 0.3:
                v = rng.choice(names)
                atom = f"({v}-{v})"  # zero subexpression
            elif pick < 0.5:
                atom = str(rng.choice([0, 1, 2, 3, 4, 5, 10, 105]))  # digit runs too
            else:
                atom = rng.choice(names)
            if rng.random() < 0.45:
                atom += rng.choice(["^", "**"]) + str(rng.randint(0, 3))
            factors.append(atom)
        text = factors[0]
        for f in factors[1:]:
            glue = ["*", "*", " "] if text[-1].isdigit() and f[0].isdigit() else ["*", "*", " ", ""]
            text += rng.choice(glue) + f
        terms.append(text)
    text = ("-" if rng.random() < 0.2 else "") + terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + t
    return text


def test_parser_matches_the_reference_on_random_expressions():
    rng = random.Random(1010)
    seen = {"product": 0, "sum": 0, "pow0": 0, "unknown": 0, "syntax": 0}
    for n in range(2000):
        names = rng.sample("xyz", rng.randint(1, 3))
        text = _random_expression(rng, names, rng.randint(0, 2))
        if n % 18 == 0:
            text += rng.choice(_MALFORMED_TAILS)
        variables = rng.choice([None, None, "reordered", "unused", "missing"])
        if variables == "reordered":
            variables = tuple(rng.sample(names, len(names)))
        elif variables == "unused":
            variables = tuple(rng.sample(names + ["w"], len(names) + 1))
        elif variables == "missing":
            variables = tuple(names[1:])
        seen["pow0"] += "^0" in text or "**0" in text
        try:
            want = reference_parse(text, variables)
        except DomainError as exc:
            seen["unknown" if str(exc).startswith("unknown variables") else "syntax"] += 1
            with pytest.raises(type(exc)) as got:
                parse_polynomial(text, variables)
            assert type(got.value) is type(exc) and str(got.value) == str(exc), text
            continue
        poly, names_out = parse_polynomial(text, variables)
        assert poly.terms == want[0].terms, text
        assert [(g.terms, e) for g, e in poly.multiplicands] == [(g.terms, e) for g, e in want[1]], text
        assert names_out == want[2], text
        # the parser works in ints; the polynomials hold Fractions all the same
        for g in (poly, *(g for g, _ in poly.multiplicands)):
            assert all(type(c) is Fraction for _, c in g.terms), text
        seen["product"] += len(poly.multiplicands) >= 2
        seen["sum"] += not poly.multiplicands
    assert min(seen.values()) >= 100, seen
