"""Embedded resolution of plane curve germs by iterated point blowups.

Input is a polynomial f in Q[x,y] vanishing at the origin; the output is
the combinatorial configuration of the total transform over the origin:
exceptional curves with exact (m_i, nu_i, self-intersection) data, strict
transform components, and the dual graph edges.  The center Sigma is the
origin throughout, so the configuration describes the germ of f at 0;
intersections of components of f away from the origin are out of scope.

The state of the resolution is a worklist of local problems.  A local
problem is the germ of the current total transform at one point, given by

* up to two exceptional divisors through the point, normalized to the
  coordinate axes {u = 0} and {v = 0} of a local chart, and
* for each Q-irreducible factor of f through the point, its strict
  transform polynomial in the chart coordinates.

Blowing up the origin of a chart (u, v) produces two standard charts:

* chart I,  (u, v) = (s, s t):  the new divisor is {s = 0}; the old v-axis
  survives as {t = 0}; the old u-axis is not visible.
* chart II, (u, v) = (p q, q):  the new divisor is {q = 0}; the old u-axis
  survives as {p = 0}; the old v-axis is not visible.

The points of a new divisor E on another curve are read off the tangent
cones of the strict transforms through the centre, as polynomials in
t = v/u.  Chart I holds the roots t of each cone, and the old v-axis at
t = 0.  The chart II origin holds the old u-axis and each strict transform
whose cone has t-degree d below its multiplicity mu; it meets E there with
multiplicity mu - d.  Each point is classified once, where it is found
(``_settle``).  It is a normal crossing exactly when one other curve meets
E there transversally: an old axis alone, or one strict transform with
intersection multiplicity 1.  Its cell is then recorded, and a
Q-irreducible root cluster of degree e counts e points.  Any other point
is blown up.  A non-rational cluster would need a blowup at a non-rational
center, which the resolver refuses; inputs for the shipped suites keep all
centers rational.

Strict transforms are integer polynomials up to a nonzero scalar.  A
factor enters with the integer coefficients that ``_primitive`` or sympy
give it, the chart maps only move exponents, and moving a root t = p/r
to the origin multiplies by r^B, B the top degree in t.  Multiplicities,
tangent cones and their roots do not change under scaling, so each root
cluster is keyed by its primitive integer factor, (p, r) for t + p/r.

The factors of f are found one written multiplicand at a time (f itself
when it is written as a sum).  The monomial content x^i y^j is read off;
a rest with a constant term is a unit at the origin and is skipped, and
any other rest whose Newton polygon is integrally indecomposable is
irreducible (``newton``).  A rest of degree 1-3 in x (or in y) loses its
content c(y) (or c(x)), a unit at the origin, and what is left is
certified irreducible when it is linear, or when one specialisation
S(x, y0) has no rational root.  A restriction to a new divisor loses its
power of t, and a rest that is linear or a pure power c (t + s)^k is read
off.  Only the remaining rests reach ``sympy.factor_list``, and factors
are ordered by a stdlib copy of sympy's ``default_sort_key``.  ``sympy``
is imported the first time a rest reaches it, so resolving a germ that
needs no real factorisation leaves it out of ``sys.modules``.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import newton
from .errors import DomainError
from .model import Divisor, IntersectionCell, SncConfiguration
from .polys import SparsePolynomial, parse_polynomial, render_terms

Poly2 = dict  # {(a, b): int}, a strict transform up to a nonzero scalar


class _LazySympy:
    """Stands in for the ``sympy`` module until an attribute is first read;
    then imports sympy and keeps that attribute, so later reads are plain
    instance lookups."""

    def __getattr__(self, name):
        import sympy as module

        value = getattr(module, name)
        setattr(self, name, value)
        return value


sympy = _LazySympy()


def _check_germ(f: SparsePolynomial, nvars: int, wrong_nvars: str) -> None:
    """Refuse a polynomial that is no germ at the origin in ``nvars``
    variables; a constant gets the same message whatever its variables."""
    if all(not any(exps) for exps, _ in f.terms):
        raise DomainError("a constant polynomial defines no germ at the origin")
    if f.nvars != nvars:
        raise DomainError(wrong_nvars)
    if f.constant_term():
        raise DomainError("the germ must vanish at the origin")


def as_plane_curve(f: SparsePolynomial | str) -> SparsePolynomial:
    """A plane curve germ: a polynomial in x, y with no constant term."""
    if isinstance(f, str):
        f, _ = parse_polynomial(f, variables=("x", "y"))
    _check_germ(f, 2, "plane curve germs live in two variables")
    return f


# ---------------------------------------------------------------------------
# dict-level polynomial transforms

def _mult0(g: Poly2) -> int:
    return min(a + b for (a, b) in g)


def _chart1(g: Poly2, mu: int) -> Poly2:
    # g(s, s t) / s^mu ; the exponent map (a, b) -> (a + b - mu, b) is injective
    return {(a + b - mu, b): c for (a, b), c in g.items()}


def _chart2(g: Poly2, mu: int) -> Poly2:
    # g(p q, q) / q^mu
    return {(a, a + b - mu): c for (a, b), c in g.items()}


def _translate_v(g: Poly2, tau: Fraction) -> Poly2:
    """r^B g(u, v + p/r) for tau = p/r in lowest terms, B the top v-degree
    of g: the term c u^a v^b gives c C(b, k) p^(b-k) r^(B-b+k) u^a v^k."""
    if not tau:
        return g
    p, r = tau.numerator, tau.denominator
    top = max(b for _, b in g)
    p_pow, r_pow = [1], [1]
    for _ in range(top):
        p_pow.append(p_pow[-1] * p)
        r_pow.append(r_pow[-1] * r)
    out: Poly2 = {}
    for (a, b), c in g.items():
        for k in range(b + 1):
            key = (a, k)
            out[key] = out.get(key, 0) + c * math.comb(b, k) * p_pow[b - k] * r_pow[top - b + k]
    return {k: c for k, c in out.items() if c}


@functools.cache
def _gens():
    """The sympy symbols t, x, y, built on first use."""
    return sympy.symbols("t x y")


def _sympy_poly(terms: Mapping, *gens) -> "sympy.Poly":
    """A sympy Poly over QQ built straight from {monomial: Fraction}."""
    qq = sympy.QQ
    return sympy.Poly.from_dict(
        {k: qq(c.numerator, c.denominator) for k, c in terms.items()}, *gens, domain="QQ"
    )


def _fraction(c) -> Fraction:
    return Fraction(c.p, c.q)  # c is a sympy Rational


def _uni_factorization(u: dict[int, int]) -> list[tuple[tuple[int, ...], int]]:
    """Q-irreducible factors of a univariate polynomial given as {deg: coeff}.

    Returns (factor, exponent) pairs, constant factors dropped, each factor
    its primitive integer coefficients, constant first and leading one
    positive: t + p/r is (p, r).  The power of t is read off, and so is a
    rest of degree k = hi - lo that is linear or a pure power c (t + s)^k,
    where s = p/r can only be u[hi-1] / (k u[hi]); only any other rest is
    handed to sympy.
    """
    den = math.lcm(*[c.denominator for c in u.values()])  # rational input loses its denominators
    u = {d: c.numerator * (den // c.denominator) for d, c in u.items() if c}
    if not u:
        raise DomainError("strict transform restricts to zero on the new divisor")
    lo, hi = min(u), max(u)
    k = hi - lo
    out = [((0, 1), lo)] if lo else []
    if k == 0:
        return out
    top = u[hi]
    p, r = u.get(hi - 1, 0), k * top
    g = math.gcd(p, r) if r > 0 else -math.gcd(p, r)
    p, r = p // g, r // g
    # u[lo + d] = top C(k, d) s^(k-d), times r^(k-d) to stay in the integers
    if all(u.get(lo + d, 0) * r ** (k - d) == top * math.comb(k, d) * p ** (k - d) for d in range(k - 1)):
        out.append(((p, r), k))
    else:
        _, factors = sympy.factor_list(_sympy_poly({(d - lo,): c for d, c in u.items()}, _gens()[0]))
        for poly, exp in factors:
            coeffs = [_fraction(c) for c in reversed(poly.all_coeffs())]  # constant first
            terms = dict(_primitive({(d,): c for d, c in enumerate(coeffs) if c}))
            out.append((tuple(terms.get((d,), 0) for d in range(len(coeffs))), int(exp)))
    return out


def _primitive(terms: Mapping[tuple[int, int], Fraction]) -> tuple[tuple[tuple[int, int], int], ...]:
    """A polynomial as sympy writes an irreducible factor over QQ: integer
    coefficients with gcd 1 and a positive lex-leading coefficient (x
    first), as a term tuple in lex-descending order."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    nums = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
    content = math.gcd(*nums.values())
    if nums[max(nums)] < 0:
        content = -content
    return tuple((k, nums[k] // content) for k in sorted(nums, reverse=True))


# the y0 the specialisation certificate tries, and the largest |leading| or
# |constant| coefficient of a cubic S(x, y0) whose divisors it enumerates
_SPECIALISATIONS = (1, -1, 2, -2, 3, -3)
_COEFF_BOUND = 10**3


def _divmod_poly(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of univariate polynomials given as coefficient
    lists, constant first, with no trailing zero; b is not zero."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift, c = len(a) - len(b), Fraction(a[-1], b[-1])
        q[shift] = c
        for k, bk in enumerate(b):
            a[shift + k] -= c * bk
        while a and not a[-1]:
            a.pop()
    return q, a


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _may_have_rational_root(c: list[int]) -> bool:
    """Whether c[0] + c[1] x + ... may have a rational root, for degree 2
    or 3 and c[0] != 0: a square discriminant, or a root p/q with p | c[0]
    and q | c[-1] (the rational root theorem); a cubic with c[0] or c[-1]
    above the bound is not searched."""
    if len(c) == 3:
        disc = c[1] ** 2 - 4 * c[0] * c[2]
        return disc >= 0 and math.isqrt(disc) ** 2 == disc
    if max(abs(c[0]), abs(c[3])) > _COEFF_BOUND:
        return True
    numerators = _divisors(c[0])
    numerators += [-p for p in numerators]
    return any(
        ((c[3] * p + c[2] * q) * p + c[1] * q * q) * p + c[0] * q**3 == 0
        for q in _divisors(c[3])
        for p in numerators
    )


def _irreducible_in_x(rest: dict[tuple[int, int], int]) -> dict | None:
    """S = R / c(y) when it is certified irreducible, else None.

    R is a primitive integer polynomial through the origin with no
    monomial content, of degree d in x; c(y) is its content over Q[y].
    c(0) != 0 (y does not divide R), so c is a unit at the origin and R
    has the factors of S there.  S is primitive over Q[y], so it is
    irreducible when it is over Q(y): always for d = 1, and for d = 2, 3
    when some S(x, y0) of degree d has no rational root (Hilbert's
    argument), since a factorisation would specialise to one with a
    linear factor.
    """
    d = max(a for a, _ in rest)
    if d > 3:
        return None
    columns = [[0] * (max(b for _, b in rest) + 1) for _ in range(d + 1)]
    for (a, b), c in rest.items():
        columns[a][b] = c
    for col in columns:
        while col and not col[-1]:
            col.pop()
    content = columns[d]  # Euclid over the columns, until the gcd is constant
    for col in filter(None, columns):
        while col and len(content) > 1:
            content, col = col, _divmod_poly(content, col)[1]
    if len(content) > 1:
        rest = {
            (a, b): c for a, col in enumerate(columns) if col for b, c in enumerate(_divmod_poly(col, content)[0]) if c
        }
        rest = dict(_primitive(rest))
    if d == 1:
        return rest
    for y0 in _SPECIALISATIONS:
        special = [0] * (d + 1)
        for (a, b), c in rest.items():
            special[a] += c * y0**b
        if special[0] and special[d] and not _may_have_rational_root(special):
            return rest
    return None


def _swapped(g: dict) -> dict:
    return {(b, a): c for (a, b), c in g.items()}


def _irreducible_by_specialisation(rest: dict[tuple[int, int], int]) -> dict | None:
    """``_irreducible_in_x`` of R, or failing that of R with x and y swapped."""
    certified = _irreducible_in_x(rest)
    if certified is None and (certified := _irreducible_in_x(_swapped(rest))) is not None:
        certified = _swapped(certified)
    return certified


def _plane_factorization(g: Mapping[tuple[int, int], Fraction]) -> list[tuple[tuple, int]]:
    """The Q-irreducible factors through the origin of a bivariate
    polynomial, as (term tuple, exponent) pairs normalised by ``_primitive``.

    The monomial content x^i y^j is read off.  A rest with a constant term
    is a unit at the origin and is not factored.  Any other rest whose
    Newton polygon is integrally indecomposable is irreducible (``newton``)
    and is its own factor.  Otherwise a rest of degree 1-3 in x (or in y)
    whose content c over Q[y] (or Q[x]) leaves an irreducible S = R / c is
    certified by specialisation, and S is its one factor through the
    origin (``_irreducible_in_x``); only the remaining rests are handed to
    sympy.
    """
    i, j = min(a for a, _ in g), min(b for _, b in g)
    out = [(((mono, 1),), e) for mono, e in (((1, 0), i), ((0, 1), j)) if e]
    rest = {(a - i, b - j): c for (a, b), c in g.items()}
    if (0, 0) in rest:
        return out
    if not newton.is_decomposable(rest):
        return out + [(_primitive(rest), 1)]
    certified = _irreducible_by_specialisation(dict(_primitive(rest)))
    if certified is not None:
        return out + [(_primitive(certified), 1)]
    for poly, exp in sympy.factor_list(_sympy_poly(rest, *_gens()[1:]))[1]:
        # sympy's factors are primitive over Z already; this makes them ints
        terms = _primitive({mono: _fraction(c) for mono, c in poly.terms()})
        if terms[-1][0] != (0, 0):  # terms are lex-descending, so a unit ends in its constant
            out.append((terms, int(exp)))
    return out


# sympy's default_sort_key of a factor's Poly in x, y (Expr.sort_key of
# sympy 1.14 on an integer polynomial), so that factors keep sympy's order
_NUMBER, _SYMBOL, _MUL, _ADD = (1, 0, "Number"), (2, 0, "Symbol"), (3, 0, "Mul"), (3, 1, "Add")


def _number_key(c) -> tuple:
    return _NUMBER, (0, ()), (), c


def _term_key(mono: tuple[int, int], c) -> tuple:
    """The key of the term c x^a y^b."""
    powers = [(_SYMBOL, (1, (name,)), _number_key(e), 1) for name, e in zip("xy", mono) if e]
    if not powers:
        return _number_key(c)
    if len(powers) == 1:  # the key of x^a (or y^b) with coefficient c
        return (*powers[0][:3], c)
    return _MUL, (2, tuple(powers)), _number_key(1), c


def _sort_key(factor: tuple) -> tuple:
    """The key of a term tuple in lex-descending order (as ``_primitive``
    and sympy's ``Poly.terms`` give it); terms are compared in that order,
    except that c - d x^k or c - d y^k (c, d > 0) puts c first."""
    if len(factor) == 1:
        return _term_key(*factor[0])
    terms = list(factor)
    if len(terms) == 2 and terms[1][0] == (0, 0) and terms[1][1] > 0 > terms[0][1] and 0 in terms[0][0]:
        terms.reverse()
    return _ADD, (len(terms), tuple(_term_key(*t) for t in terms)), _number_key(1), 1


# ---------------------------------------------------------------------------
# resolution

class BlowupRecord(NamedTuple):
    new_index: int
    site: str
    axis_indices: tuple[int, ...]
    strict_mults: tuple[tuple[int, int], ...]  # (factor index, local multiplicity)
    mult: int
    disc: int


class ResolutionLog(NamedTuple):
    factors: tuple[tuple[int, str, int], ...]  # (factor index, text, exponent in f)
    blowups: tuple[BlowupRecord, ...]


def _settle(cells: dict, axes: tuple[int | None, int | None], meets: Mapping[int, int], degree: int) -> bool:
    """Classify a point of a new divisor E; True when it must be blown up.

    ``axes`` are the exceptional curves along {u = 0} and {v = 0} of the
    point's chart: E, and the old axis when it passes through the point.
    ``meets`` maps each strict transform through the point to its
    intersection multiplicity with E there.  E meets an old axis
    transversally, and a strict transform exactly when that multiplicity is
    1.  So the point is a normal crossing exactly when one other curve
    passes through it and meets E with multiplicity 1; then its cell is
    recorded, counted ``degree`` times for a cluster of conjugate points.
    Any other point needs a blowup, and only a rational point can have one.
    """
    handles = [("E", i) for i in axes if i is not None] + [("D", j) for j in meets]
    if len(handles) == 2 and all(k == 1 for k in meets.values()):
        key = tuple(sorted(handles))
        cells[key] = cells.get(key, 0) + degree
        return False
    if degree > 1:
        raise DomainError(
            "resolution needs a blowup at a non-rational point cluster "
            f"(degree {degree}); only rational centers are supported"
        )
    return True


def resolve_plane_curve(f: SparsePolynomial | str) -> tuple[SncConfiguration, ResolutionLog]:
    """Resolve the germ of f at the origin to a simple normal crossing
    configuration over Sigma = {0}.

    The origin is blown up once even when the germ is already simple normal
    crossing, so that the fiber over the origin is a divisor.  Every other
    point of a new divisor is classified where it is found (``_settle``):
    a normal crossing records its cell, and any other point is queued.
    Queued points are popped breadth first and blown up until none is left.

    The loop ends because this is classical embedded resolution of the
    reduced curve (the distinct factors of f): each blowup at a point that
    is singular on a strict transform, or where the total transform is not
    simple normal crossing, lowers the multiplicities and contact orders
    there, and every blowup centre is rational, since a non-rational
    cluster that is not already simple normal crossing is refused with a
    DomainError.  There is no blowup cap.  For x^a + y^b with coprime
    2 <= a < b the number of blowups is the sum of the quotients of
    Euclid's algorithm on (b, a); x^2 + y^127 takes 63 + 2 = 65.
    """
    f = as_plane_curve(f)

    # Factor each non-constant multiplicand the user wrote, not the expanded
    # product; every factor is normalised as sympy normalises it, so merging
    # equal factors gives the factors of f through the origin.
    pieces = [(g, e) for g, e in f.multiplicands if e and any(any(exps) for exps, _ in g.terms)]
    merged: dict[tuple, int] = {}
    for g, e in pieces or [(f, 1)]:
        for factor, exp in _plane_factorization(g.as_dict()):
            merged[factor] = merged.get(factor, 0) + exp * e

    factor_polys: dict[int, Poly2] = {}
    factor_exponents: dict[int, int] = {}
    factor_texts: list[tuple[int, str, int]] = []
    for j, factor in enumerate(sorted(merged, key=_sort_key)):
        factor_polys[j] = dict(factor)
        factor_exponents[j] = merged[factor]
        factor_texts.append((j, render_terms(factor, ("x", "y")), merged[factor]))

    # a local problem is (axes, stricts, site): the exceptional curves along
    # {u = 0} and {v = 0} (None where there is none), the strict transforms
    # through the point by factor index, and the point's name for the log
    records: list[BlowupRecord] = []
    drops: dict[int, int] = {}  # self-intersection drops per exceptional curve
    cell_counts: dict = {}  # sorted pair of ("E", index) / ("D", factor index) -> count
    worklist = deque([((None, None), factor_polys, "origin")])
    while worklist:
        (u, v), stricts, site = worklist.popleft()
        new_index = len(records)
        mults = {j: _mult0(g) for j, g in stricts.items()}
        on = [i for i in (u, v) if i is not None]
        for i in on:
            drops[i] = drops.get(i, 0) + 1
        # m_new = sum e_j mu_j + sum m_i and nu_new = 2 + sum (nu_i - 1), over
        # the factors j through the centre and the exceptional curves i on it
        m_new = sum(factor_exponents[j] * mu for j, mu in mults.items()) + sum(records[i].mult for i in on)
        nu_new = 2 + sum(records[i].disc - 1 for i in on)
        records.append(BlowupRecord(new_index, site, tuple(on), tuple(sorted(mults.items())), m_new, nu_new))

        # the tangent cone of each strict transform as a polynomial in t = v/u
        cones = {j: {b: c for (a, b), c in g.items() if a + b == mults[j]} for j, g in stricts.items()}

        # chart I: new divisor {s = 0}, the roots of the cones, old v-axis at t = 0
        roots: dict[tuple[int, ...], dict[int, int]] = {}
        for j, cone in cones.items():
            for factor, exp in _uni_factorization(cone):
                roots.setdefault(factor, {})[j] = exp
        if v is not None:
            roots.setdefault((0, 1), {})  # the polynomial t
        # by degree, then by the monic rational coefficients
        order = sorted(roots, key=lambda r: (len(r), [Fraction(c, r[-1]) for c in r])) if len(roots) > 1 else roots
        for factor in order:
            axes = (new_index, v if factor == (0, 1) else None)
            if _settle(cell_counts, axes, roots[factor], len(factor) - 1):
                tau = Fraction(-factor[0], factor[1])
                child = {j: _translate_v(_chart1(stricts[j], mults[j]), tau) for j in roots[factor]}
                worklist.append((axes, child, f"E{new_index + 1} chart at t={tau}"))

        # chart II: new divisor {q = 0}, old u-axis at p = 0; the origin is on
        # strict j, with multiplicity mu_j - deg_t(cone_j) against E, when positive
        meets = {j: mults[j] - max(cone) for j, cone in cones.items() if max(cone) < mults[j]}
        if (u is not None or meets) and _settle(cell_counts, (u, new_index), meets, 1):
            child = {j: _chart2(stricts[j], mults[j]) for j in meets}
            worklist.append(((u, new_index), child, f"E{new_index + 1} chart at infinity"))

    # assemble the configuration: exceptional divisors first, strict factors after
    n_exc = len(records)
    divisors = [
        Divisor(
            id=r.new_index,
            label=f"E{r.new_index + 1}",
            mult=r.mult,
            disc=r.disc,
            exceptional=True,
            over_sigma=True,
            genus=0,
            self_int=-1 - drops.get(r.new_index, 0),
        )
        for r in records
    ]
    for j, text, exp in factor_texts:
        divisors.append(
            Divisor(
                id=n_exc + j,
                label=f"D{j + 1}",
                mult=exp,
                disc=1,
                exceptional=False,
                over_sigma=False,
                genus=0,
                self_int=None,
            )
        )

    def _resolve_handle(handle):
        kind, idx = handle
        return idx if kind == "E" else n_exc + idx

    cells = tuple(
        IntersectionCell(
            ids=(_resolve_handle(ha), _resolve_handle(hb)),
            count=count,
            over_sigma=True,
        )
        for (ha, hb), count in sorted(cell_counts.items())
    )

    cfg = SncConfiguration(ambient_dim=2, divisors=tuple(divisors), cells=cells)
    log = ResolutionLog(factors=tuple(factor_texts), blowups=tuple(records))
    return cfg, log


def point_configuration(r: int) -> SncConfiguration:
    """The d = 1 configuration of f = x^r under the identity resolution.

    The zero locus is the origin with multiplicity r; it is a divisor of
    the ambient line lying inside Sigma, non-exceptional with nu = 1.
    """
    if r < 1:
        raise DomainError("need a positive vanishing order")
    div = Divisor(id=0, label="origin", mult=r, disc=1, exceptional=False, over_sigma=True)
    return SncConfiguration(ambient_dim=1, divisors=(div,), cells=())


def resolve_univariate(f: SparsePolynomial | str) -> SncConfiguration:
    """Configuration of a one-variable germ: the origin with its multiplicity."""
    if isinstance(f, str):
        f, _ = parse_polynomial(f)
    _check_germ(f, 1, "expected a univariate polynomial")
    r = min(exps[0] for exps, _ in f.terms)
    return point_configuration(r)
