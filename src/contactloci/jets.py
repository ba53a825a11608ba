"""Exact jet counts over small prime fields.

For a jet gamma centered at the origin, the t^j coefficient of f(gamma)
only involves the jet coefficients of level at most j - mu + 1, where mu
is the multiplicity of f at 0.  The contact condition f(gamma) = t^m mod
t^(m+1) therefore constrains levels 1..I, I = m - mu + 1; the levels
beyond I are free and contribute a power of q.

* Level 1 faces the tangent-cone equation f_mu(a_1) = [mu == m].  f_mu
  is homogeneous, so it is evaluated at one point p per line through the
  origin: the seeds are the lambda p with lambda^mu f_mu(p) = [mu == m],
  and the origin when the target is 0.
* At level i >= 2 the newly decidable coefficient, of t^(i + mu - 1), is
  base + g . a_i, where base is its value with a_i = 0.  The gradient g
  is the t^(mu - 1) coefficient of the partials of f at gamma, which
  only sees level 1: g = grad f_mu(a_1), one vector per seed.  This is
  exact in characteristic p: the higher Taylor terms are Hasse
  derivatives of order above the tested coefficient once i >= 2.
* The children of a prefix at level i >= 3 test the coefficient of
  t^(i + mu), which is base' + h . a_i: the terms quadratic in a_i sit at
  t^(2i - 2 + mu), above it.  h is the t^mu coefficient of grad f(gamma)
  and only sees levels 1 and 2.  So when those children sit at the last
  level I, they are settled in their parent: a child matters only through
  which undecided coordinates it makes nonzero and whether h . a_i meets
  the target.  ``_classes`` counts each such class in closed form, the
  same count that settles g . a_i for a seed with g != 0: O(2^d) work per
  parent instead of q^d.

So a seed with g != 0 has q^(d - 1) extensions at every level and
contributes q^((d - 1)(I - 1)) prefixes in closed form, while a seed with
g = 0 is all-or-nothing at each level: all q^d extensions when base
meets the target, none otherwise.  One depth-first walk evaluates base
only on the prefixes no closed form settles and keeps just the current
path, O(I) memory; the order strata ride on the same walk.  Its node
count is the q^d level-1 candidates plus every prefix whose coefficient
is evaluated, the last-level children settled per class included.  A
naive full enumeration is kept alongside as an independent check for
tiny instances.  Counts are exact integers.
"""

from __future__ import annotations

import csv
import itertools
import logging
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError
from .polys import SparsePolynomial, parse_polynomial

LOGGER = logging.getLogger(__name__)

DEFAULT_NODE_CAP = 1_000_000_000
NAIVE_CAP = 2_000_000  # jets that naive_contact_count enumerates at most
PROGRESS_EVERY = 10_000_000


def _ser_mul(a: Sequence[int], b: Sequence[int], level: int, q: int) -> tuple[int, ...]:
    out = [0] * (level + 1)
    for i, ai in enumerate(a):
        if not ai or i > level:
            continue
        top = level - i
        for j, bj in enumerate(b[: top + 1]):
            if bj:
                out[i + j] = (out[i + j] + ai * bj) % q
    return tuple(out)


def _ser_pow(a: Sequence[int], e: int, level: int, q: int) -> tuple[int, ...]:
    out = (1,) + (0,) * level
    for _ in range(e):
        out = _ser_mul(out, a, level, q)
    return tuple(out)


def _poly_mod_q(f: SparsePolynomial, q: int) -> list[tuple[int, tuple[int, ...]]]:
    terms = []
    for exps, coeff in f.terms:
        frac = Fraction(coeff)
        if frac.denominator % q == 0:
            raise DomainError(f"coefficient {coeff} has no reduction mod {q}")
        value = frac.numerator * pow(frac.denominator, -1, q) % q
        if value:
            terms.append((value, exps))
    return terms


def _eval_terms(terms, coords: Sequence[Sequence[int]], level: int, q: int) -> tuple[int, ...]:
    """f(gamma) truncated at t^level; coords are coefficient sequences c_0..c_level."""
    total = [0] * (level + 1)
    power_cache: dict[tuple[int, int], tuple[int, ...]] = {}
    one = (1,) + (0,) * level
    for value, exps in terms:
        prod = one
        for i, e in enumerate(exps):
            if not e:
                continue
            key = (i, e)
            powed = power_cache.get(key)
            if powed is None:
                powed = _ser_pow(tuple(coords[i]), e, level, q)
                power_cache[key] = powed
            prod = _ser_mul(prod, powed, level, q)
        for n, c in enumerate(prod):
            if c:
                total[n] = (total[n] + value * c) % q
    return tuple(total)


# ---------------------------------------------------------------------------
# depth-first walk

class _Budget:
    """Nodes spent against the cap, with a progress line every PROGRESS_EVERY."""

    def __init__(self, cap: int):
        self.cap = cap
        self.nodes = 0
        self._next_report = PROGRESS_EVERY

    def reach(self, nodes: int) -> int:
        """Take a new running total; returns the total at which to call again."""
        self.nodes = nodes
        if nodes > self.cap:
            raise ResourceLimitError(f"enumeration budget exceeded ({nodes} > {self.cap} partial nodes)")
        while nodes >= self._next_report:
            LOGGER.info("jet enumeration: %d partial nodes", nodes)
            self._next_report += PROGRESS_EVERY
        return min(self.cap + 1, self._next_report)


def _factors(exps: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((c, e) for c, e in enumerate(exps) if e)


def _point_value(terms, a: Sequence[int], q: int) -> int:
    """Value at a point of F_q^d of a list of (value, factors) terms."""
    total = 0
    for value, factors in terms:
        for c, e in factors:
            value *= a[c] ** e
        total += value
    return total % q


def _field(terms, packed: Sequence[int], mask: int) -> int:
    """Sum over (value, factors, shift) of value * the field at bit
    ``shift`` of prod packed_c^e.

    Each delta_c comes packed as one integer, its coefficients in fields of
    a fixed width (Kronecker substitution), wide enough that no coefficient
    of a product overflows into the next; ``mask`` keeps one field.
    """
    total = 0
    for value, factors, shift in terms:
        prod = 1
        for c, e in factors:
            prod *= packed[c] ** e
        total += value * ((prod >> shift) & mask)
    return total


def _partials(terms, d: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The (value, exps) terms of df/dx_c for each coordinate c."""
    return [[(v * e[c], e[:c] + (e[c] - 1,) + e[c + 1 :]) for v, e in terms if e[c]] for c in range(d)]


def _nonzero_solutions(n: int, rhs: int, q: int) -> int:
    """Number of x in (F_q^*)^n with g . x = rhs, for any g with no zero entry."""
    if rhs % q:
        return ((q - 1) ** n - (-1) ** n) // q
    return ((q - 1) ** n + (-1) ** n * (q - 1)) // q


def _seeds(cone, mu: int, target: int, q: int, d: int) -> list[tuple[int, ...]]:
    """The a in F_q^d with f_mu(a) = target, f_mu homogeneous of degree mu.

    f_mu is evaluated once per line through the origin, at the point p
    whose first nonzero coordinate is 1: lambda * p is a seed when
    lambda^mu f_mu(p) = target.  The origin is a seed when target = 0.
    """
    roots: dict[int, list[int]] = {}  # lambda^mu -> [lambda]
    for lam in range(1, q):
        roots.setdefault(pow(lam, mu, q), []).append(lam)
    seeds = [] if target else [(0,) * d]
    for k in range(d):
        for rest in itertools.product(range(q), repeat=d - k - 1):
            p = (0,) * k + (1,) + rest
            value = _point_value(cone, p, q)
            if target:
                scales = roots.get(pow(value, -1, q), ()) if value else ()
            else:
                scales = () if value else range(1, q)
            seeds += [tuple(lam * x % q for x in p) for lam in scales]
    return seeds


def _classes(orders, zero, lin, s, q: int):
    """The a in F_q^d that vanish on ``zero``, as classes (pattern, n, hits).

    A class fixes which undecided coordinates (order 0) outside ``zero``
    are nonzero, a set P with 0/1 indicator ``pattern``; the decided ones,
    none in ``zero``, are free.  Of its n = q^free (q - 1)^|P| members,
    hits solve lin . a = s: 1/q of them when some free lin_c != 0, and
    otherwise those whose k coordinates in P with lin_c != 0 solve it in
    nonzero values.
    """
    free = sum(1 for o in orders if o)
    lifted = any(x for x, o in zip(lin, orders) if o)
    choices = [(0,) if o or c in zero else (0, 1) for c, o in enumerate(orders)]
    for pattern in itertools.product(*choices):
        n = q**free * (q - 1) ** sum(pattern)
        if lifted:  # one value of a free coordinate with lin_c != 0 meets s
            hits = n // q
        else:
            k = sum(1 for x, nz in zip(lin, pattern) if x and nz)
            hits = q**free * (q - 1) ** (sum(pattern) - k) * _nonzero_solutions(k, s, q)
        yield pattern, n, hits


def _walk(terms, m: int, q: int, d: int, budget: _Budget, strata: bool) -> tuple[dict, int]:
    """Contact prefixes of depth I = m - mu + 1, grouped for counting.

    Returns ({(orders, start): n}, I).  Each group stands for n prefixes
    whose coordinate orders are fixed by ``orders`` where nonzero; the zero
    entries are still undecided at level ``start`` and behave like free
    coordinates from there on, while every constrained level from
    ``start`` on takes q^(d - 1) of the q^d extensions (see ``_expand``).
    Without ``strata`` every coordinate counts as decided, so groups only
    carry the count.  The children at the last level of a prefix at level
    >= 3 are counted per class by ``_classes``; the node count still adds
    one per child, as if each were visited.
    """
    mu = min(sum(exps) for _, exps in terms)
    groups: dict[tuple[tuple[int, ...], int], int] = {}
    if m < mu:
        return groups, 0
    depth = m - mu + 1
    # visit recurses once per level; leave room for the frames of its callers
    if depth > sys.getrecursionlimit() - 100:
        raise ResourceLimitError(
            f"the jet walk would nest {depth} = m - mu + 1 levels deep, past Python's recursion limit"
        )

    def record(orders, start, n):
        key = (orders, start)
        groups[key] = groups.get(key, 0) + n

    def advance(orders, i, a):
        return tuple([o or (x and i) for o, x in zip(orders, a)]) if strata else orders

    nodes = q**d  # the level-1 candidates
    stop = budget.reach(nodes)
    tangent = [(v, exps) for v, exps in terms if sum(exps) == mu]
    seeds = _seeds([(v, _factors(e)) for v, e in tangent], mu, 1 if mu == m else 0, q, d)
    unset = (0 if strata else 1,) * d
    if depth == 1:  # no constrained level beyond the seeds
        for a in seeds:
            record(advance(unset, 1, a), 2, 1)
        return groups, depth

    # only terms of excess below the depth reach a tested coefficient; a
    # delta_c has at most depth - 1 coefficients below q when packed.  The
    # coefficient of t^(top + mu) of f(gamma), gamma_c = t * delta_c, is
    # field top of sum value * t^excess * prod delta_c^e: levels[top] lists
    # the terms that reach it with the shift of their field
    shifted = sorted((sum(exps) - mu, v, _factors(exps)) for v, exps in terms if sum(exps) - mu < depth)
    bits = max(((q - 1) ** (mu + x) * (depth - 1) ** (mu + x - 1)).bit_length() for x, _, _ in shifted)
    mask = (1 << bits) - 1
    levels = [[(v, f, bits * (top - x)) for x, v, f in shifted if x <= top] for top in range(depth)]
    # h, the t^mu coefficient of grad f(gamma), is field mu - deg of the
    # partials' terms of degree deg <= mu; it only sees levels 1 and 2
    slope = [
        [(v % q, _factors(e), bits * (mu - sum(e))) for v, e in partial if sum(e) <= mu and v % q]
        for partial in _partials(terms, d)
    ]
    extensions: dict[frozenset, list] = {}  # support -> the a vanishing on it
    closed_records: dict[tuple, list] = {}

    def closed(orders, i, support, rhs, mult=1):
        # g . a = rhs, g != 0 exactly on the support, among coordinates still
        # zero: the extensions at level i that fix an order in the support
        # (at the depth, all of them; there g = 0 passes all or none) are
        # counted in closed form, mult times over
        key = (orders, i, support, rhs != 0)
        out = closed_records.get(key)
        if out is None:
            out = closed_records[key] = []
            lin = [c in support for c in range(d)]
            for pattern, _, hits in _classes(orders, (), lin, rhs, q):
                if hits and (i == depth or any(pattern[c] for c in support)):
                    out.append(((advance(orders, i, pattern), i + 1), hits))
        for group, n in out:
            groups[group] = groups.get(group, 0) + n * mult

    def visit(packed, orders, i, support):
        # the coefficient of t^(i + mu - 1) is base + g . a_i at level i
        nonlocal nodes, stop
        nodes += 1
        if nodes >= stop:
            stop = budget.reach(nodes)
        rhs = ((i == depth) - _field(levels[i - 1], packed, mask)) % q
        if i == depth:
            return closed(orders, depth, support, rhs)
        if support:
            closed(orders, i, support, rhs)
        if rhs:
            return
        # with g = 0 every extension goes on; with g != 0 those leaving the
        # support zero (the others fixed an order in it above)
        if i + 1 < depth or i < 3:
            children = extensions.get(support)
            if children is None:
                ranges = [(0,) if c in support else range(q) for c in range(d)]
                children = extensions[support] = list(itertools.product(*ranges))
            shift = bits * (i - 1)
            for a in children:
                visit(tuple([p | x << shift for p, x in zip(packed, a)]), advance(orders, i, a), i + 1, support)
            return
        # the children sit at the last level, and from level 3 on the
        # quadratic terms in a_i land above their coefficient, which is
        # therefore base + h . a_i: settle them here, one class at a time
        nodes += q ** (d - len(support))
        if nodes >= stop:
            stop = budget.reach(nodes)
        s = 1 - _field(levels[i], packed, mask)
        h = [_field(dh, packed, mask) % q for dh in slope]
        for pattern, n, hits in _classes(orders, support, h, s, q):
            child = advance(orders, i, pattern)
            for rhs, count in ((0, hits), (1, n - hits)):
                if count:
                    closed(child, depth, support, rhs, count)

    # g = grad f_mu(a_1) is the gradient of every later level
    grad = [[(v, _factors(e)) for v, e in partial] for partial in _partials(tangent, d)]
    for a in seeds:
        orders = advance(unset, 1, a)
        support = frozenset(c for c, dt in enumerate(grad) if _point_value(dt, a, q))
        if support and any(orders[c] for c in support):
            record(orders, 2, 1)
        else:
            visit(a, orders, 2, support)
    budget.reach(nodes)
    return groups, depth


def _expand(groups: dict, depth: int, l: int, q: int) -> dict[tuple[int, ...], int]:
    """Order strata of level-l jets from the walk's ``(orders, start)`` groups.

    The decided coordinates contribute q^known per free level and
    q^(known - 1) per constrained level from ``start``; an undecided one
    takes its first nonzero coefficient at a level k >= start,
    (q - 1) q^(l - k) ways, or stays zero (order l + 1).
    """
    strata: dict[tuple[int, ...], int] = {}
    for (orders, start), n in groups.items():
        unknown = [c for c, o in enumerate(orders) if not o]
        known = len(orders) - len(unknown)
        weight = n * q ** ((known - 1) * max(0, depth + 1 - start) + known * (l - depth))
        opts = [(k, (q - 1) * q ** (l - k)) for k in range(start, l + 1)] + [(l + 1, 1)] if unknown else []
        for combo in itertools.product(opts, repeat=len(unknown)):
            key = list(orders)
            w = weight
            for c, (k, wk) in zip(unknown, combo):
                key[c] = k
                w *= wk
            key = tuple(key)
            strata[key] = strata.get(key, 0) + w
    return strata


@dataclass(frozen=True)
class CountReport:
    poly: SparsePolynomial
    m: int
    level: int
    q: int
    total: int
    strata: tuple[tuple[tuple[int, ...], int], ...] = ()
    elapsed: float = 0.0
    # level-1 candidates plus prefixes whose coefficient was evaluated,
    # each settled last-level child included although its class is counted whole
    nodes: int = 0

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.render(),
            "m": self.m,
            "level": self.level,
            "q": self.q,
            "total": self.total,
            "strata": [[list(orders), count] for orders, count in self.strata],
            "elapsed": self.elapsed,
            "nodes": self.nodes,
        }


def _require_prime(q: int, cap: int) -> None:
    """Refuse a q above the cap as over budget, then a q that is not prime.

    Any walk or enumeration over F_q has at least q candidates, so the
    first refusal needs no primality test, and the trial division never
    runs past sqrt(cap).
    """
    if q > cap:
        raise ResourceLimitError(f"enumeration budget exceeded (q = {q} > the cap {cap})")
    if q < 2 or any(q % p == 0 for p in range(2, isqrt(q) + 1)):
        raise DomainError(f"{q} is not prime")


def _prepare(f, m, l, q, cap):
    """Validated (polynomial, reduced terms); terms is None when a nonzero
    constant term makes every centered contact count vanish."""
    if isinstance(f, str):
        f, _ = parse_polynomial(f)
    _require_prime(q, cap)
    if m < 1:
        raise DomainError("m must be positive")
    if l < m:
        raise DomainError("jet level must be at least m")
    terms = _poly_mod_q(f, q)
    if not terms or any(sum(exps) == 0 for _, exps in terms):
        return f, None
    return f, terms


def _count(f, m: int, l: int, q: int, node_cap: int | None, strata: bool) -> CountReport:
    start = time.perf_counter()
    budget = _Budget(DEFAULT_NODE_CAP if node_cap is None else node_cap)
    f, terms = _prepare(f, m, l, q, budget.cap)
    cells: dict[tuple[int, ...], int] = {}
    if terms is not None:
        cells = _expand(*_walk(terms, m, q, f.nvars, budget, strata), l, q)
    table = tuple(sorted(cells.items())) if strata else ()
    elapsed = time.perf_counter() - start
    return CountReport(f, m, l, q, sum(cells.values()), table, elapsed, budget.nodes)


def contact_count(
    f: SparsePolynomial | str,
    m: int,
    l: int,
    q: int,
    *,
    node_cap: int | None = None,
) -> CountReport:
    """Exact number of level-l jets centered at 0 with f(jet) = t^m mod t^(m+1)."""
    return _count(f, m, l, q, node_cap, strata=False)


def naive_contact_count(f: SparsePolynomial | str, m: int, l: int, q: int) -> int:
    """Full enumeration over all q^(d l) centered jets; tiny instances only."""
    f, terms = _prepare(f, m, l, q, NAIVE_CAP)
    if terms is None:
        return 0
    d = f.nvars
    if d * l >= NAIVE_CAP.bit_length() or q ** (d * l) > NAIVE_CAP:
        raise ResourceLimitError(f"naive enumeration of q^(d*l) = {q}^{d * l} jets exceeds the cap {NAIVE_CAP}")
    target = [0] * (m + 1)
    target[m] = 1
    target = tuple(target)
    count = 0
    for flat in itertools.product(range(q), repeat=d * l):
        coords = []
        for i in range(d):
            coords.append((0,) + flat[i * l : (i + 1) * l])
        if _eval_terms(terms, [c[: m + 1] + (0,) * max(0, m + 1 - len(c)) for c in coords], m, q) == target:
            count += 1
    return count


def stratified_count(
    f: SparsePolynomial | str,
    m: int,
    l: int,
    q: int,
    *,
    node_cap: int | None = None,
) -> CountReport:
    """Contact count broken down by the vanishing orders of the coordinates.

    Orders are capped at l + 1 (the zero series).  The walk decides the
    orders it can see; from the level where the rest of the walk is
    uniform (at the latest, past the constrained depth) the undecided
    coordinates are counted combinatorially, so no free level is
    enumerated.
    """
    return _count(f, m, l, q, node_cap, strata=True)


def sum_strata(
    report: CountReport,
    minimum: Sequence[int],
    exact: Sequence[bool],
) -> int:
    """Aggregate raw order strata against a pattern.

    ``minimum`` gives the componentwise least orders and ``exact`` marks
    the coordinates that must attain them exactly; the others only need
    to reach the minimum.
    """
    total = 0
    for orders, count in report.strata:
        ok = True
        for o, lo, must in zip(orders, minimum, exact):
            if o < lo or (must and o != lo):
                ok = False
                break
        if ok:
            total += count
    return total


@dataclass(frozen=True)
class ChiFit:
    """Least-degree exact polynomial fit of point counts, evaluated at q = 1."""

    chi: int | None
    degree: int | None  # degree of the fitted count polynomial in q
    q_power: int  # common power of q stripped before interpolation
    coefficients: tuple[Fraction, ...]  # of the stripped quotient, low to high
    residual_zero: bool
    conclusive: bool
    message: str

    def count_polynomial(self) -> tuple[Fraction, ...]:
        """Coefficients of the full fitted count polynomial, low to high."""
        return (Fraction(0),) * self.q_power + self.coefficients

    def render(self) -> str:
        coeffs = self.count_polynomial()
        parts = []
        for n in range(len(coeffs) - 1, -1, -1):
            c = coeffs[n]
            if not c:
                continue
            body = "" if n == 0 else ("q" if n == 1 else f"q^{n}")
            mag = "" if (abs(c) == 1 and body) else str(abs(c))
            sep = "*" if mag and body else ""
            parts.append(("-" if c < 0 else "+", f"{mag}{sep}{body}" or "0"))
        if not parts:
            return "0"
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, part in parts[1:]:
            text += f" {sign} {part}"
        return text

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "degree": self.degree,
            "q_power": self.q_power,
            "coefficients": [str(c) for c in self.coefficients],
            "residual_zero": self.residual_zero,
            "conclusive": self.conclusive,
            "message": self.message,
            "fit": self.render(),
        }


def interpolate_chi(counts: Sequence[tuple[int, int]], expected_dim: int | None = None) -> ChiFit:
    """Fit the least-degree polynomial through exact (q, N(q)) samples.

    A common factor q^s is stripped first (counts of the fibered strata
    carry large powers of q), the quotient is interpolated exactly, and
    the fit counts as conclusive only when at least one sample point is
    redundant (the minimal interpolant is confirmed by unused data) and
    the value at q = 1 is an integer.  The Euler characteristic estimate
    is the value of the fit at q = 1.
    """
    pts = sorted(counts)
    if len(pts) < 2:
        raise DomainError("need at least two sample primes")
    if len(set(q for q, _ in pts)) != len(pts):
        raise DomainError("duplicate sample primes")
    if any(n < 0 for _, n in pts):
        raise DomainError("counts must be nonnegative")

    if all(n == 0 for _, n in pts):
        return ChiFit(0, None, 0, (), True, True, "all counts zero")

    def v_q(q, n):
        v = 0
        while n and n % q == 0:
            n //= q
            v += 1
        return v

    s = min(v_q(q, n) for q, n in pts if n)
    quotient = [(q, Fraction(n, q ** s)) for q, n in pts]

    # Newton divided differences, exact
    xs = [Fraction(q) for q, _ in quotient]
    table = [val for _, val in quotient]
    newton = [table[0]]
    for k in range(1, len(xs)):
        table = [
            (table[i + 1] - table[i]) / (xs[i + k] - xs[i])
            for i in range(len(table) - 1)
        ]
        newton.append(table[0])

    # expand to monomial coefficients
    coeffs = [Fraction(0)] * len(xs)
    basis = [Fraction(1)]  # product (x - x_0)...(x - x_{k-1}), low to high
    for k, c in enumerate(newton):
        for n, b in enumerate(basis):
            coeffs[n] += c * b
        next_basis = [Fraction(0)] * (len(basis) + 1)
        for n, b in enumerate(basis):
            next_basis[n] -= b * xs[k]
            next_basis[n + 1] += b
        basis = next_basis

    while coeffs and not coeffs[-1]:
        coeffs.pop()
    deg = len(coeffs) - 1 if coeffs else 0
    chi_frac = sum(coeffs) if coeffs else Fraction(0)  # value at q = 1
    residual_zero = deg <= len(xs) - 2
    integral = chi_frac.denominator == 1 and all(c.denominator == 1 for c in coeffs)
    conclusive = residual_zero and integral
    if conclusive:
        message = "ok"
    else:
        message = "not polynomial-count, inconclusive"
    full_degree = s + deg
    if expected_dim is not None and conclusive and full_degree != expected_dim:
        message = f"fitted degree {full_degree} differs from expected dimension {expected_dim}"
    return ChiFit(
        chi=int(chi_frac) if integral else None,
        degree=full_degree,
        q_power=s,
        coefficients=tuple(coeffs),
        residual_zero=residual_zero,
        conclusive=conclusive,
        message=message,
    )


@dataclass(frozen=True)
class FibrationReport:
    passed: bool
    m: int
    level: int
    q: int
    d: int
    nu: int
    expected_fiber: int
    fiber_histogram: tuple[tuple[int, int], ...]  # (fiber size, number of images)
    n_source: int
    n_images: int

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "m": self.m,
            "level": self.level,
            "q": self.q,
            "d": self.d,
            "nu": self.nu,
            "expected_fiber": self.expected_fiber,
            "fiber_histogram": [[size, n] for size, n in self.fiber_histogram],
            "n_source": self.n_source,
            "n_images": self.n_images,
        }


def verify_chart_fibration(
    m: int,
    l: int,
    q: int,
    d: int = 2,
    nu: int = 2,
    *,
    node_cap: int | None = None,
) -> FibrationReport:
    """Check the blowup-chart fibration on jets by full enumeration.

    The chart map sends (y_1, ..., y_d) to (y_d y_1, ..., y_d y_{nu-1},
    y_nu, ..., y_d).  Restricted to level-l jets whose last coordinate has
    order exactly m, every fiber over the image must be an affine space of
    dimension (nu - 1) m.
    """
    if not (2 <= nu <= d):
        raise DomainError("need 2 <= nu <= d")
    if l < m or m < 0:
        raise DomainError("need l >= m >= 0")
    cap = DEFAULT_NODE_CAP if node_cap is None else node_cap
    _require_prime(q, cap)
    e = (d - 1) * (l + 1) + l - m
    # q >= 2, so there are at least 2^e source jets: refuse before forming q^e
    n_source = q**e * (q - 1) if e < cap.bit_length() else cap + 1
    if n_source > cap:
        raise ResourceLimitError(f"{q}^{e} * {q - 1} source jets exceed the cap {cap}")

    expected = q ** ((nu - 1) * m)
    images: dict[tuple, int] = {}
    free_levels = l - m
    nonzero = [c for c in range(1, q)]
    for others in itertools.product(range(q), repeat=(d - 1) * (l + 1)):
        ys = [others[i * (l + 1) : (i + 1) * (l + 1)] for i in range(d - 1)]
        for lead in nonzero:
            for tail in itertools.product(range(q), repeat=free_levels):
                yd = (0,) * m + (lead,) + tail
                image = []
                for i in range(nu - 1):
                    image.append(_ser_mul(yd, ys[i], l, q))
                for i in range(nu - 1, d - 1):
                    image.append(tuple(ys[i]))
                image.append(tuple(yd))
                key = tuple(image)
                images[key] = images.get(key, 0) + 1
    histogram: dict[int, int] = {}
    for size in images.values():
        histogram[size] = histogram.get(size, 0) + 1
    passed = set(histogram) == {expected} if images else False
    return FibrationReport(
        passed=passed,
        m=m,
        level=l,
        q=q,
        d=d,
        nu=nu,
        expected_fiber=expected,
        fiber_histogram=tuple(sorted(histogram.items())),
        n_source=n_source,
        n_images=len(images),
    )


def export_counts_csv(path, counts: Iterable[tuple[int, int]]) -> None:
    """Write (q, N) sample pairs for external fitting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["q", "count"])
        for q, n in sorted(counts):
            writer.writerow([q, n])
