"""Sparse multivariate polynomials over Q and a small expression parser.

Polynomials are stored as immutable sorted term lists mapping exponent
tuples to nonzero rational coefficients.  This is the exchange format for
curve germs ("x^2 + y^3") and for the polynomials handed to the finite
field jet enumerator.  Nothing here factors, and nothing here imports
sympy: the resolver certifies most multiplicands irreducible from their
Newton polygon (``newton``) or by one specialisation, and imports sympy
only for a rest through the origin that neither certifies, or for a
restriction to a new divisor that is no pure power (``curves``).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError
from .model import _json_field


@dataclass(frozen=True)
class SparsePolynomial:
    """A polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` is sorted by exponent tuple and stores no zero coefficients.
    When the parsed text was one product term, ``multiplicands`` holds its
    (base, exponent) pairs, whose product is the polynomial; it takes no
    part in equality, hashing or JSON.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    multiplicands: tuple[tuple["SparsePolynomial", int], ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[tuple[int, ...], Fraction | int]) -> "SparsePolynomial":
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DomainError(f"exponent tuple {exps} does not have {nvars} entries")
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        items = tuple(sorted((e, c) for e, c in clean.items() if c))
        return cls(nvars, items)

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        zero = (0,) * self.nvars
        for exps, coeff in self.terms:
            if exps == zero:
                return coeff
        return Fraction(0)

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [[list(exps), str(coeff)] for exps, coeff in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SparsePolynomial":
        what = "polynomial"
        nvars = _json_field(data, "nvars", "an integer", what)
        if nvars < 0:
            raise DomainError(f"{what}: key 'nvars' must be nonnegative, not {nvars}")
        terms = {}
        for term in _json_field(data, "terms", "a list", what):
            if not (
                isinstance(term, list)
                and len(term) == 2
                and isinstance(term[0], list)
                and all(type(e) is int for e in term[0])
                and (isinstance(term[1], str) or type(term[1]) is int)
            ):
                raise DomainError(
                    f"{what}: key 'terms' needs [exponent list, coefficient] pairs, not {term!r}"
                )
            exps, coeff = term
            try:
                terms[tuple(exps)] = Fraction(str(coeff))
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"{what}: key 'terms' has a bad coefficient {coeff!r}") from None
        return cls.from_terms(nvars, terms)

    def render(self, names: Sequence[str] = ("x", "y", "z", "w")) -> str:
        """The polynomial as text; with fewer names than variables, the
        variables are named x1..xn instead."""
        if len(names) < self.nvars:
            names = [f"x{i}" for i in range(1, self.nvars + 1)]

        def order(term):
            exps, _ = term
            degree = sum(exps)
            return (degree == 0, degree, tuple(-e for e in exps))

        parts = []
        for exps, coeff in sorted(self.terms, key=order):
            powers = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            ]
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


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z])|(\*\*|[()^+*-]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    text = text.rstrip()  # each token takes the whitespace before it, none takes the tail
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise DomainError(f"cannot parse polynomial near {text[pos:pos + 10]!r}")
        if match.group(1):
            tokens.append(("int", match.group(1)))
        elif match.group(2):
            tokens.append(("var", match.group(2)))
        else:
            op = match.group(3)
            tokens.append(("op", "^" if op == "**" else op))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent for the grammar:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (['*'] factor)*      (juxtaposition multiplies)
    factor := atom ['^' INT]
    atom   := INT | VAR | '(' expr ')'

    Polynomials are built as {exponent tuple: int} over ``names``: the
    grammar has no division, and ``SparsePolynomial.from_terms`` makes the
    coefficients Fractions once.
    """

    def __init__(self, tokens: list[tuple[str, str]], names: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.zero = (0,) * len(names)
        self.units = {name: self.zero[:i] + (1,) + self.zero[i + 1:] for i, name in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        """The polynomial, and the (base, exponent) multiplicands of the
        expression when it is one product term, else ()."""
        factors = []
        if self.peek() == ("op", "-"):
            self.take()
            factors.append(({self.zero: -1}, 1))
        factors += self.term()
        result, multiplicands = self.product(factors), tuple(factors)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            rhs = self.product(self.term())
            result, multiplicands = _add(result, _scale(rhs, -1 if op == "-" else 1)), ()
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
            return {self.zero: int(value)}
        if kind == "var":
            return {self.units[value]: 1}
        if (kind, value) == ("op", "("):
            inner, _ = self.expr()
            if self.take() != ("op", ")"):
                raise DomainError("missing closing parenthesis")
            return inner
        if kind is None:
            raise DomainError("unexpected end of input")
        raise DomainError(f"unexpected token {value!r}")

    def power(self, a, e):
        if len(a) == 1:
            ((key, coeff),) = a.items()
            return {tuple(k * e for k in key): coeff ** e}
        out = {self.zero: 1}
        while e:  # square and multiply
            if e & 1:
                out = _mul(out, a)
            e >>= 1
            if e:
                a = _mul(a, a)
        return out

    def product(self, factors):
        return functools.reduce(_mul, (self.power(base, e) for base, e in factors))


def _mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(map(operator.add, ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _scale(a, s):
    return {k: c * s for k, c in a.items()}


def parse_polynomial(text: str, variables: tuple[str, ...] | None = None) -> tuple[SparsePolynomial, tuple[str, ...]]:
    """Parse an integer-coefficient expression such as ``x^2 + y^3``.

    Returns the polynomial and the variable name tuple.  When ``variables``
    is not given, the variables are the letters appearing in the text, in
    alphabetical order.  When the whole text is one product term, such as
    ``-(x - y)^2*(x + 2*y)``, the polynomial's ``multiplicands`` record its
    top-level bases and exponents (a leading minus is the base -1).
    """
    tokens = _tokenize(text)
    seen = {value for kind, value in tokens if kind == "var"}
    if variables is None:
        variables = tuple(sorted(seen))
    unknown = sorted(seen - set(variables))
    # unknown names get slots too, so that a syntax error is reported first
    parser = _Parser(tokens, (*variables, *unknown))
    try:
        raw, factors = parser.expr()
    except RecursionError:
        raise DomainError("the polynomial nests too deeply") from None
    if parser.pos != len(tokens):
        raise DomainError(f"trailing input after position {parser.pos}")
    if unknown:
        raise DomainError(f"unknown variables {unknown}")
    nvars = len(variables)
    poly = SparsePolynomial.from_terms(nvars, raw)
    multiplicands = tuple((SparsePolynomial.from_terms(nvars, base), e) for base, e in factors)
    return SparsePolynomial(nvars, poly.terms, multiplicands), variables
