"""Exact jet counts over small prime fields.

N(k) counts the level-l jets gamma centered at the origin with ord gamma_c
>= k_c and f(gamma) = t^m mod t^(m+1).  As l >= m, that is q^(d (l + 1))
times a Haar measure on F_q[[t]]^d, which Igusa's stationary phase formula
computes by one memoised recursion (Igusa, An Introduction to the Theory
of Local Zeta Functions, 2000; Denef, Sem. Bourbaki 741, 1991):

* Substituting gamma = t^k y, h = f(t^k y) keeps its terms of t-degree
  <= m and sheds their common factor t^s.  With e = m - s, N(k) =
  q^(sum(l + 1 - k_c)) R(h, e) / q^(d (e + 1)), where R(h, e) counts the
  y mod t^(e + 1) with h(t, y) = t^e mod t^(e + 1).
* R splits y by the residues b of the u coordinates that h0 = h(0, .)
  uses; the others keep their full measure.  When e = 0 each b with
  h0(b) = 1 counts q^(d - u).  When e > 0 a b with h0(b) != 0 counts
  nothing, a zero with a nonzero gradient counts q^((d - 1) e + d - u)
  (Hensel), and a singular zero counts q^(d s' - u) R(h', e - s'), where
  h' is h with y_c = b_c + t y_c on the used coordinates, truncated at
  t^e and divided by its common t^s'.  A constant h0 counts q^d when
  e = 0 and h0 = 1, and nothing otherwise.  R is memoised for the whole
  call on h mod q, e and, when h0 has two or more terms, the weights of
  its coordinates (k at the first level, zeros below it), so every N(k)
  shares it.
* h0 is k-weighted homogeneous at the first level, so it is evaluated at
  one point per weighted line through the origin (``_points``); a
  one-term h0 is counted in closed form.
* The count is N(1, ..., 1).  The order strata E(k) are read from the
  initial forms f_k of f (``_strata``): k runs upward from (1, ..., 1)
  while f_k has degree s <= m, a one-term f_k gives E(k) in closed form,
  and any other E(k) is sum over T of (-1)^|T| N(k + 1_T).  The total of
  a stratified count is the sum of its strata.

Each singular lift lowers e by at least 1, so the recursion nests at most
m - mu + 1 deep, mu the multiplicity of f.  The ``nodes`` of a count are
the residues ``_points`` takes one by one: those its scans evaluate, and
the singular zeros a one-term h0 lists for their lifts.  A closed-form
count and a memo hit take none, and as the memo key holds all that sets
a charge, the total does not depend on the order in which the N(k) are
read.  The node cap bounds them, and a charge past it is refused before
its residues are taken.  A naive full enumeration is kept alongside as
an independent check for tiny instances.  Counts are exact integers.
"""

from __future__ import annotations

import itertools
import operator
import sys
import time
from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .model import to_json_dict
from .polys import SparsePolynomial, parse_polynomial

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
        if coeff.denominator % q == 0:
            raise DomainError(f"coefficient {coeff} has no reduction mod {q}")
        value = coeff.numerator * pow(coeff.denominator, -1, q) % q
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
# stationary phase


class _Budget:
    """Residues taken against the cap (DEFAULT_NODE_CAP when it is None),
    with a progress line every PROGRESS_EVERY."""

    def __init__(self, cap: int | None):
        self.cap = DEFAULT_NODE_CAP if cap is None else cap
        self.nodes = 0
        self._next_report = PROGRESS_EVERY

    def spend(self, nodes: int) -> None:
        self.nodes += nodes
        if self.nodes > self.cap:
            raise ResourceLimitError(f"enumeration budget exceeded ({self.nodes} > {self.cap} residues)")
        while self.nodes >= self._next_report:
            import logging  # here, not at the top: only a long count logs

            logging.getLogger(__name__).info("jet count: %d residues", self.nodes)
            self._next_report += PROGRESS_EVERY


def _value(terms, b: Sequence[int], q: int) -> int:
    """Value mod q at the point b of a list of (value, exps) terms."""
    total = 0
    for v, exps in terms:
        for x, n in zip(b, exps):
            if n:
                v *= x**n
        total += v
    return total % q


def _partials(terms, d: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The (value, exps) terms of df/dx_c for each coordinate c."""
    return [[(v * e[c], e[:c] + (e[c] - 1,) + e[c + 1 :]) for v, e in terms if e[c]] for c in range(d)]


def _torus_roots(v: int, exps: Sequence[int], n: int, q: int) -> int:
    """The y in (F_q^*)^n with v y^exps = 1: g (q - 1)^(n - 1) when v is a
    g-th power, g = gcd(q - 1, exps), and none otherwise."""
    g = gcd(q - 1, *exps)
    return g * (q - 1) ** (n - 1) if pow(v, (q - 1) // g, q) == 1 else 0


def _points(h0, weights: Sequence[int], e: int, q: int, budget: _Budget):
    """(ones, smooth, singular) over the residues b in F_q^u of h0's u coordinates.

    ones counts the b with h0(b) = 1 (only when e = 0); otherwise smooth
    counts the zeros with a nonzero gradient and singular lists the others.
    h0 is weighted homogeneous of some degree s, so it is evaluated at one
    point p per weighted line {lambda . p}, lambda . p = (lambda^w_c p_c):
    the first nonzero coordinate c runs over coset representatives of the
    w_c-th powers in F_q^*, of index g = gcd(w_c, q - 1), and the later ones
    run free, so the q - 1 multiples of the representatives of c cover each
    of their points g times.  h0(lambda . p) = lambda^s h0(p), so the
    multiples of p that hit 1 are the roots of lambda^s v = 1, v = h0(p): r of
    them when v is an r-th power, r = gcd(s, q - 1), and none otherwise (as
    in ``_torus_roots``).  With weights 0 (s = 0) every line is one point:
    the plain loop over all q^u residues.

    A one-term h0 = v y^a (every a_c >= 1) is counted without a loop: its
    roots of 1 lie on the torus, and a zero b is smooth when the a_c of its
    zero coordinates sum to 1.  The budget is charged the singular zeros
    listed, or the residues the scan evaluates.
    """
    u = len(weights)
    if len(h0) == 1:
        ((v, a),) = h0
        if not e:
            return _torus_roots(v, a, u, q), 0, set()
        patterns = itertools.product((False, True), repeat=u)
        patterns = [zeros for zeros in patterns if sum(n for n, z in zip(a, zeros) if z) >= 2]
        budget.spend(sum((q - 1) ** zeros.count(False) for zeros in patterns))
        singular = {b for zeros in patterns for b in itertools.product(*[(0,) if z else range(1, q) for z in zeros])}
        return 0, (q - 1) ** (u - 1) * a.count(1), singular
    budget.spend(1 + sum(gcd(w, q - 1) * q ** (u - i - 1) for i, w in enumerate(weights)))
    r = gcd(sum(map(operator.mul, weights, h0[0][1])), q - 1)
    order = (q - 1) // r  # v is an r-th power when v^order = 1
    slopes = _partials(h0, u) if e else ()
    scales = [[pow(lam, w, q) for w in weights] for lam in range(1, q)] if any(weights) else [[1] * u]
    groups = [(q - 1, [(0,) * u])]  # the origin is its own multiple
    for i, w in enumerate(weights):
        g = gcd(w, q - 1)
        cosets = {pow(x, (q - 1) // g, q): x for x in range(q - 1, 0, -1)}
        groups.append((g, itertools.product(*[(0,)] * i, cosets.values(), *[range(q)] * (u - i - 1))))
    ones, smooth, singular = 0, 0, set()
    for g, reps in groups:
        hits = 0
        for p in reps:
            v = _value(h0, p, q)
            if not e:
                hits += pow(v, order, q) == 1
            elif v:
                continue
            elif any(_value(dc, p, q) for dc in slopes):
                smooth += (q - 1) // g
            else:  # its distinct multiples
                singular.update(tuple(x * y % q for x, y in zip(scale, p)) for scale in scales)
        ones += hits * r // g
    return ones, smooth, singular


def _shift(h: dict, b: Sequence[int | None], e: int, q: int):
    """h(t, y) with y_c = b_c + t y_c where b_c is not None, truncated at
    t^e, as (h', s') with h' = that / t^s'; None when it vanishes mod
    t^(e + 1).  h maps (t-degree, exps) to a value."""
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    expansions: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for (j, exps), v in h.items():
        parts = [(j, (), v)]
        for c, n in enumerate(exps):
            terms = expansions.get((c, n))
            if terms is None:  # (b_c + t y_c)^n binomially, as (t-degree, exponent, value)
                x = b[c]
                terms = [(0, n, 1)] if x is None else [(i, i, comb(n, i) * x ** (n - i) % q) for i in range(n + 1)]
                terms = expansions[c, n] = [term for term in terms if term[2]]
            parts = [(deg + i, ex + (a,), w * x % q) for deg, ex, w in parts for i, a, x in terms if deg + i <= e]
        for deg, ex, w in parts:
            out[deg, ex] = (out.get((deg, ex), 0) + w) % q
    lowest = min((deg for (deg, _), w in out.items() if w), default=None)
    if lowest is None:
        return None
    return {(deg - lowest, ex): w for (deg, ex), w in out.items() if w}, lowest


def _at_least(terms, m: int, l: int, q: int, d: int, budget: _Budget):
    """N(k) as a function of the least orders k, through the memoised R
    (see the module docstring)."""
    memo: dict = {}
    zero = (0,) * d

    def residual(h: dict, e: int, k: tuple[int, ...]) -> int:
        h0 = [(v, exps) for (j, exps), v in h.items() if not j]
        used = sorted({c for _, exps in h0 for c, n in enumerate(exps) if n})
        weights = tuple(k[c] for c in used)
        key = (frozenset(h.items()), e, weights if len(h0) > 1 else ())
        total = memo.get(key)
        if total is not None:
            return total
        if not used:  # h0 is a nonzero constant
            total = q**d if e == 0 and h0[0][0] == 1 else 0
        else:
            h0 = [(v, tuple(exps[c] for c in used)) for v, exps in h0]
            u = len(used)
            ones, smooth, singular = _points(h0, weights, e, q, budget)
            total = q ** (d - u) * (ones if not e else smooth * q ** ((d - 1) * e))
            point: list[int | None] = [None] * d
            for b in singular:
                for c, x in zip(used, b):
                    point[c] = x
                shifted = _shift(h, point, e, q)
                if shifted:
                    lower, s = shifted
                    total += q ** (d * s - u) * residual(lower, e - s, zero)
        memo[key] = total
        return total

    def at_least(k: tuple[int, ...]) -> int:
        kept = [(sum(map(operator.mul, k, exps)), v, exps) for v, exps in terms]
        kept = [(j, v, exps) for j, v, exps in kept if j <= m]
        if not kept or max(k) > l + 1:
            return 0
        s = min(j for j, _, _ in kept)
        value = residual({(j - s, exps): v for j, v, exps in kept}, m - s, k)
        return value * q ** (d * (l + 1) - sum(k)) // q ** (d * (m - s + 1))

    return at_least


def _strata(terms, m: int, l: int, q: int, at_least) -> dict[tuple[int, ...], int]:
    """The nonzero E(k), the number of jets whose orders are exactly k.

    Such a jet has gamma_c = t^k_c (a_c + ...), a_c != 0 where k_c <= l, so
    f(gamma) = f_k(a) t^s mod t^(s + 1), f_k the initial form: the terms of
    least degree s = <k, p>.  The k with s <= m are a down-set of
    [1, l + 1]^d; E(k) = 0 off it.  A one-term f_k has no zero on the torus,
    so E(k) = 0 when s < m, and when s = m E(k) counts the roots of f_k = 1
    on the torus times the free coefficients.  Any other E(k) is sum over T
    of (-1)^|T| N(k + 1_T).
    """
    d = len(terms[0][1])
    cells: dict[tuple[int, ...], int] = {}
    todo = [((1,) * d, 0)]
    while todo:  # each k once: from k - 1_c, c the last coordinate with k_c > 1
        k, low = todo.pop()
        degrees = [sum(map(operator.mul, k, exps)) for _, exps in terms]
        s = min(degrees)
        if s > m or k[low] > l + 1:
            continue
        initial = [term for term, j in zip(terms, degrees) if j == s]
        if len(initial) > 1:
            steps = itertools.product((0, 1), repeat=d)
            cells[k] = sum((-1) ** sum(T) * at_least(tuple(map(operator.add, k, T))) for T in steps)
        elif s == m:
            ((v, e),) = initial
            torus = [n for n in k if n <= l]
            cells[k] = _torus_roots(v, e, len(torus), q) * q ** sum(l - n for n in torus)
        todo += ((k[:c] + (k[c] + 1,) + k[c + 1 :], c) for c in range(low, d))
    return {k: n for k, n in cells.items() if n}


class CountReport(NamedTuple):
    poly: SparsePolynomial
    m: int
    level: int
    q: int
    total: int
    strata: tuple[tuple[tuple[int, ...], int], ...] = ()
    elapsed: float = 0.0
    # residues taken one by one (see the module docstring)
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

    The cap bounds q as well as the residues, so the trial division never
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
    budget = _Budget(node_cap)
    f, terms = _prepare(f, m, l, q, budget.cap)
    total, cells = 0, {}
    if terms is not None:
        # R nests one frame per singular lift, at most m - mu + 1 deep;
        # leave room for the frames of its callers
        depth = m - min(sum(exps) for _, exps in terms) + 1
        if depth > sys.getrecursionlimit() - 100:
            raise ResourceLimitError(
                f"the jet recursion would nest {depth} = m - mu + 1 levels deep, past Python's recursion limit"
            )
        at_least = _at_least(terms, m, l, q, f.nvars, budget)
        if strata:
            cells = _strata(terms, m, l, q, at_least)
            total = sum(cells.values())
        else:
            total = at_least((1,) * f.nvars)
    table = tuple(sorted(cells.items())) if strata else ()
    elapsed = time.perf_counter() - start
    return CountReport(f, m, l, q, total, table, elapsed, budget.nodes)


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
        if _eval_terms(terms, [c[: m + 1] for c in coords], m, q) == target:
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

    Orders are capped at l + 1 (the zero series).  The stratum of orders k
    has a closed form when the initial form f_k is one term, and is
    otherwise E(k) = sum over T of (-1)^|T| N(k + 1_T), N(k) the count with
    least orders k (``_strata``); the total is the sum of the strata.  The
    N(k) share one memo, so ``nodes`` charges each subproblem once for the
    whole table.  The cap bounds the residues taken, not the walk over k:
    the cusp at m = l = 890, q = 3 visits 528 511 k.
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


class ChiFit(NamedTuple):
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


class FibrationReport(NamedTuple):
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

    to_json_dict = to_json_dict


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
    cap = _Budget(node_cap).cap
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
    import csv  # here, not at the top: only oracle-chi --csv writes one

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["q", "count"])
        for q, n in sorted(counts):
            writer.writerow([q, n])
