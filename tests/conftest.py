import itertools
import math
from typing import Sequence

import pytest

from contactloci import cli
from contactloci.curves import point_configuration, resolve_plane_curve
from contactloci.errors import DomainError, ResourceLimitError
from contactloci.jets import _prepare, _ser_mul
from contactloci.model import Divisor, IntersectionCell, SncConfiguration


@pytest.fixture(autouse=True)
def empty_germ_memos():
    """Every test starts with the CLI's germ memos empty, so that what it
    counts or patches does not depend on the test that ran before it."""
    cli._parsed.cache_clear()
    cli._resolved.cache_clear()


@pytest.fixture(scope="session")
def cusp():
    cfg, _ = resolve_plane_curve("x^2 + y^3")
    return cfg


@pytest.fixture(scope="session")
def node():
    cfg, _ = resolve_plane_curve("x*y")
    return cfg


@pytest.fixture(scope="session")
def power_r3():
    return point_configuration(3)


def hand_built_cusp() -> SncConfiguration:
    """The cusp configuration written out by hand, independent of the builder."""
    return SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E1", 2, 2, True, True, 0, -3),
            Divisor(1, "E2", 3, 3, True, True, 0, -2),
            Divisor(2, "E3", 6, 5, True, True, 0, -1),
            Divisor(3, "D", 1, 1, False, False, 0, None),
        ),
        cells=(
            IntersectionCell((0, 2), 1, True),
            IntersectionCell((1, 2), 1, True),
            IntersectionCell((2, 3), 1, True),
        ),
    )


def page_content(page) -> tuple[tuple[int, int, int], ...]:
    """Sorted multiset of (total degree, divisor id, homology degree) of an
    E1 page: with the cover data it pins the page content, whatever valid
    weight vector placed the columns."""
    return tuple(sorted((p + q, i, n) for (p, q), e in page.entries for i, n in e.contributors))


def hand_built_node() -> SncConfiguration:
    return SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, 0, -1),
            Divisor(1, "L1", 1, 1, False, False, 0, None),
            Divisor(2, "L2", 1, 1, False, False, 0, None),
        ),
        cells=(
            IntersectionCell((0, 1), 1, True),
            IntersectionCell((0, 2), 1, True),
        ),
    )


# ---------------------------------------------------------------------------
# germs written as products of multiplicands

# Q-irreducible factors and ways to write each (up to sign and content);
# ids 0-4 pass through the origin with rational centres only, 5-6 are
# units there.
PRODUCT_FACTORS = (
    ("x - y", "y - x", "2*x - 2*y"),
    ("x + 2*y", "-3*x - 6*y"),
    ("y + 3*x^2", "-y - 3*x^2"),
    ("x^2 - y^3", "2*y^3 - 2*x^2"),
    ("x", "-x", "5*x"),
    ("1 + x", "-2 - 2*x"),
    ("2 - y + x",),
)
PRODUCT_EXAMPLES = (
    "(x-y)*(y-x)^2", "(2*x-2*y)*(x-y)", "((x+y)*(x-y))*x", "-(x-y)*(x+2*y)^2", "(x+y)^0*x*(x-y)",
)


def random_product_text(rng):
    """A germ written as a product: (text, [(factor ids, exponent)]), one
    pair per top-level multiplicand; a constant multiplicand has no ids.

    Every product has a multiplicand through the origin; multiplicands of
    two factors are written nested, as ``((a)*(b))``, or expanded."""
    from contactloci.polys import parse_polynomial

    parts = [rng.sample(range(5), rng.choice([1, 1, 2])) for _ in range(rng.randint(1, 3))]
    parts += [[rng.choice([5, 6])] for _ in range(rng.choice([0, 1]))]
    parts += [[] for _ in range(rng.choice([0, 1]))]
    rng.shuffle(parts)
    written = []
    for ids in parts:
        forms = [f"({rng.choice(PRODUCT_FACTORS[i])})" for i in ids]
        if not ids:
            text = str(rng.choice([2, 3, 7])) if rng.random() < 0.5 else f"({rng.choice([-1, -4])})"
        elif len(ids) == 1:
            text = forms[0]
        elif rng.random() < 0.5:
            text = f"({'*'.join(forms)})"
        else:
            text = f"({parse_polynomial('*'.join(forms), ('x', 'y'))[0].render()})"
        written.append((text, rng.choice([1, 1, 2]) if len(ids) < 2 else 1))
    text = "*".join(t if e == 1 else f"{t}^{e}" for t, e in written)
    sign = "-" if rng.random() < 0.25 else ""
    return sign + text, [(ids, e) for ids, (_, e) in zip(parts, written)]


def closed_form_power_count(r: int, m: int, q: int, l: int | None = None) -> int:
    """Contact count for f = x^r in one variable.

    The locus is mu_r x C^(m - m/r) when r | m and empty otherwise, so the
    count is gcd(r, q - 1) * q^(l - m/r) for jets of level l >= m.
    """
    if l is None:
        l = m
    if m % r:
        return 0
    return math.gcd(r, q - 1) * q ** (l - m // r)


def milnor_betti_homogeneous_isolated(m: int, d: int) -> tuple[int, ...]:
    """Betti numbers of the Milnor fiber of a homogeneous polynomial of
    degree m in d variables with an isolated singularity: b_0 = 1 and
    b_{d-1} = (m - 1)^d (they add up in dimension one)."""
    if m < 1 or d < 1:
        raise DomainError("need positive degree and dimension")
    betti = [0] * d
    betti[0] = 1
    betti[d - 1] += (m - 1) ** d
    return tuple(betti)


# ---------------------------------------------------------------------------
# the naive jet count, the reference the oracle tests compare against

NAIVE_CAP = 2_000_000  # jets that naive_contact_count enumerates at most


def _ser_pow(a: Sequence[int], e: int, level: int, q: int) -> tuple[int, ...]:
    out = (1,) + (0,) * level
    for _ in range(e):
        out = _ser_mul(out, a, level, q)
    return tuple(out)


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


def naive_contact_count(f, m: int, l: int, q: int) -> int:
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
