"""Sparse multivariate polynomials over Q and a small expression parser.

Polynomials are stored as immutable sorted term lists mapping exponent
tuples to nonzero rational coefficients.  This is the exchange format for
curve germs ("x^2 + y^3") and for the polynomials handed to the finite
field jet enumerator.  Nothing here factors, and nothing here imports
sympy: the resolver certifies most multiplicands irreducible from their
Newton polygon (``newton``) or by one specialisation, and imports sympy
only for a rest through the origin that neither certifies, or for a
restriction to a new divisor that is no pure power (``curves``).

The parser reads the tokens of one regular expression pass, walks them by
index and computes in ints; each kept coefficient becomes a Fraction once.
``render_terms`` reads numerators and denominators as ints, so it also
renders the resolver's integer factors.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import DomainError
from .model import _json_field


class SparsePolynomial(NamedTuple):
    """A polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` is sorted by exponent tuple and stores no zero coefficients.
    When the parsed text was one product term, ``multiplicands`` holds its
    (base, exponent) pairs, whose product is the polynomial; it takes no
    part in equality, hashing, repr or JSON.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    multiplicands: tuple[tuple["SparsePolynomial", int], ...] = ()

    def __eq__(self, other):
        return self[:2] == other[:2] if type(other) is SparsePolynomial else NotImplemented

    def __ne__(self, other):  # tuple's own __ne__ would read multiplicands
        return self[:2] != other[:2] if type(other) is SparsePolynomial else NotImplemented

    def __hash__(self):
        return hash(self[:2])

    def __repr__(self):
        return f"SparsePolynomial(nvars={self.nvars!r}, terms={self.terms!r})"

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[tuple[int, ...], Fraction | int]) -> "SparsePolynomial":
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DomainError(f"exponent tuple {exps} does not have {nvars} entries")
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            clean[exps] = clean.get(exps, 0) + coeff
        return cls(nvars, _sorted_terms(clean))

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
            if tuple(exps) in terms:
                raise DomainError(f"{what}: key 'terms' names the exponents {exps} twice")
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
        return render_terms(self.terms[::-1], names)


def render_terms(terms: Sequence[tuple[tuple[int, ...], Fraction | int]], names: Sequence[str]) -> str:
    """Text for a polynomial's (exponent tuple, nonzero coefficient) terms,
    given in lex-descending order; a coefficient may be an int or a
    Fraction."""
    if not terms:
        return "0"
    # by degree, the constant last; within a degree, exponents descending
    ordered = sorted(terms, key=lambda term: sum(term[0]))
    if not any(ordered[0][0]):
        ordered.append(ordered.pop(0))
    out = []
    for exps, coeff in ordered:
        num, den = coeff.numerator, coeff.denominator
        out.append(" - " if num < 0 else " + ")
        text = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        powers = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        if powers and text != "1":
            powers.insert(0, text)
        out.append("*".join(powers) or text)
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _sorted_terms(raw: Mapping) -> tuple:
    """The nonzero terms of {exponent tuple: coefficient}, sorted, each
    coefficient a Fraction."""
    return tuple(
        (exps, c if type(c) is Fraction else Fraction(c)) for exps, c in sorted(raw.items()) if c
    )


# a token is an integer, a letter or one operator character; ``**`` is
# read as ``^`` before tokenizing
_TOKEN = re.compile(r"\d+|[a-zA-Z]|\S")
_BAD = re.compile(r"[^\s\da-zA-Z()^+*-]")  # a character that starts no token
_MAX_NESTING = 200  # parentheses deeper than this are refused


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``, then an empty string that ends them."""
    bad = _BAD.search(text)
    if bad:
        text = text.rstrip()
        pos = len(text[:bad.start()].rstrip())  # where the bad token's whitespace starts
        raise DomainError(f"cannot parse polynomial near {text[pos:pos + 10]!r}")
    tokens = _TOKEN.findall(text.replace("**", "^"))
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent for the grammar:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (['*'] factor)*      (juxtaposition multiplies)
    factor := atom ['^' INT]
    atom   := INT | VAR | '(' expr ')'

    ``term`` reads its factors and atoms itself, walking the token list by
    index up to the empty end token.  Polynomials are built as {exponent
    tuple: int}: the grammar has no division, so the coefficients become
    Fractions once, when the parse is done.
    """

    def __init__(self, tokens: list[str], units: dict[str, tuple[int, ...]], zero: tuple[int, ...]):
        self.tokens = tokens
        self.pos = 0
        self.units = units  # each variable token's exponent tuple
        self.zero = zero

    def expr(self, depth: int = 0):
        """The polynomial, and the (base, exponent) multiplicands of the
        expression when it is one product term, else ()."""
        if depth > _MAX_NESTING:
            raise DomainError("the polynomial nests too deeply")
        tokens = self.tokens
        factors = []
        if tokens[self.pos] == "-":
            self.pos += 1
            factors.append(({self.zero: -1}, 1))
        factors += self.term(depth)
        result = self.product(factors)
        op = tokens[self.pos]
        if op != "+" and op != "-":
            return result, tuple(factors)
        result = dict(result)  # the product may be one of the factors
        while op == "+" or op == "-":
            self.pos += 1
            for key, c in self.product(self.term(depth)).items():
                result[key] = result.get(key, 0) + (-c if op == "-" else c)
            op = tokens[self.pos]
        return {key: c for key, c in result.items() if c}, ()

    def term(self, depth: int):
        """The (base, exponent) factors of one term."""
        tokens, units, pos = self.tokens, self.units, self.pos
        factors = []
        while True:
            token = tokens[pos]
            pos += 1
            if token in units:
                base = {units[token]: 1}
            elif token.isdigit():
                base = {self.zero: int(token)}
            elif token == "(":
                self.pos = pos
                base, _ = self.expr(depth + 1)
                pos = self.pos
                if tokens[pos] != ")":
                    raise DomainError("missing closing parenthesis")
                pos += 1
            else:
                raise DomainError(f"unexpected token {token!r}" if token else "unexpected end of input")
            if tokens[pos] == "^":
                exponent = tokens[pos + 1]
                if not exponent.isdigit():
                    raise DomainError("exponent must be a literal integer")
                factors.append((base, int(exponent)))
                pos += 2
            else:
                factors.append((base, 1))
            token = tokens[pos]
            if token == "*":
                pos += 1
            elif not (token in units or token.isdigit() or token == "("):
                self.pos = pos
                return factors

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
        out = None
        for base, e in factors:
            if e != 1:
                base = self.power(base, e)
            out = base if out is None else _mul(out, base)
        return out


def _mul(a, b):
    if len(a) == 1 and len(b) == 1:
        ((ka, ca),), ((kb, cb),) = a.items(), b.items()
        c = ca * cb
        return {tuple(map(operator.add, ka, kb)): c} if c else {}
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(map(operator.add, ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def parse_polynomial(text: str, variables: tuple[str, ...] | None = None) -> tuple[SparsePolynomial, tuple[str, ...]]:
    """Parse an integer-coefficient expression such as ``x^2 + y^3``.

    Returns the polynomial and the variable name tuple.  When ``variables``
    is not given, the variables are the letters appearing in the text, in
    alphabetical order.  When the whole text is one product term, such as
    ``-(x - y)^2*(x + 2*y)``, the polynomial's ``multiplicands`` record its
    top-level bases and exponents (a leading minus is the base -1).
    """
    tokens = _tokens(text)
    seen = set(filter(str.isalpha, tokens))  # the letters: no other token is alphabetic
    if variables is None:
        variables = tuple(sorted(seen))
    unknown = sorted(seen.difference(variables))
    # unknown names get slots too, so that a syntax error is reported first
    names = (*variables, *unknown)
    zero = (0,) * len(names)
    units = {name: zero[:i] + (1,) + zero[i + 1:] for i, name in enumerate(names) if name in seen}
    parser = _Parser(tokens, units, zero)
    raw, factors = parser.expr()
    if parser.pos != len(tokens) - 1:
        raise DomainError(f"trailing input after position {parser.pos}")
    if unknown:
        raise DomainError(f"unknown variables {unknown}")
    nvars = len(variables)
    multiplicands = tuple((SparsePolynomial(nvars, _sorted_terms(base)), e) for base, e in factors)
    return SparsePolynomial(nvars, _sorted_terms(raw), multiplicands), variables
