"""Seeded job generator for the contactloci benchmark.

A job is a list of ``contactloci`` command lines (argv without the program
name) plus what its outputs must satisfy.  The program only ever sees the
generated polynomial strings and options; the seed changes coefficients,
never the structure that decides how much work a job is, so every seed
gives the same amount of work per workload.

Workloads:

* ``ladder``: six germ families of the paper, each reported at every m
  from 1 up to a top rung.  Loads the weight solver; the same germ recurs
  at many m, so work that could be shared across m shows here.
* ``wide``: 120 distinct germs, products of one to three branches
  ``(x - s*y)^a + c*y^b`` (or the mirror form) with integer tangent
  shears s, each reported once at one m in 1..6.  Loads the resolver
  (sympy factorisation plus point blowups); no two jobs share work.
* ``oracle``: ``report --primes`` followed by ``oracle-count --strata`` at
  each prime of the pool.  Loads the jet oracle; one job visits more
  than a million nodes so that peak memory measures survivor lists.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ladder", "wide", "oracle")

# ---------------------------------------------------------------------------
# rendering

def _monomial(a: int, b: int) -> str:
    parts = []
    for var, e in (("x", a), ("y", b)):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return "*".join(parts)


def render_sum(terms: list[tuple[int, str]]) -> str:
    """Render sum(c * text) with explicit signs; coefficients are nonzero."""
    out = ""
    for c, text in terms:
        mag = "" if abs(c) == 1 and text else f"{abs(c)}"
        body = f"{mag}*{text}" if mag and text else (mag or text)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _nonzero(rng: random.Random, bound: int = 9) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _report(poly: str, m: int) -> list[str]:
    return ["report", f"--poly={poly}", "--m", str(m), "--format", "json"]


# ---------------------------------------------------------------------------
# ladder: (family, coefficient template, top rung)
#
# Tops keep every rung well below the weight solver's step cap and the
# total at 100 jobs; above about m = 20 a single rung costs seconds.

LADDER = (
    ("x^2+y^3", lambda c: render_sum([(c[0], "x^2"), (c[1], "y^3")]), 17),
    ("x^2+y^5", lambda c: render_sum([(c[0], "x^2"), (c[1], "y^5")]), 17),
    ("x*y", lambda c: render_sum([(c[0], "x*y")]), 10),
    ("x^3+y^4", lambda c: render_sum([(c[0], "x^3"), (c[1], "y^4")]), 23),
    ("x^2*y+y^4", lambda c: render_sum([(c[0], "x^2*y"), (c[1], "y^4")]), 13),
    (
        "(x^2-y^3)*(x^3-y^2)",
        lambda c: "(" + render_sum([(c[0], "x^2"), (c[1], "y^3")]) + ")*("
        + render_sum([(c[2], "x^3"), (c[3], "y^2")]) + ")",
        20,
    ),
)


def ladder_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for family, template, top in LADDER:
        poly = template([_nonzero(rng) for _ in range(4)])
        for m in range(1, top + 1):
            jobs.append({"id": f"ladder/{family}/m{m}", "calls": [_report(poly, m)]})
    return jobs


# ---------------------------------------------------------------------------
# wide: branch shapes (a, b, tangent group, mirrored)
#
# Branches in one tangent group share the tangent line; distinct groups get
# distinct lines, and branches of one germ get distinct c, so every germ is
# reduced and every blowup centre is a rational point.  Exponent pairs are
# coprime: a pair with a common factor can need a blowup at a conjugate
# point cluster, which the resolver refuses.

WIDE_SHAPES = (
    ((2, 3, 0, False),),
    ((2, 5, 0, False),),
    ((3, 4, 0, False),),
    ((3, 5, 0, False),),
    ((2, 7, 0, True),),
    ((1, 1, 0, False), (1, 1, 1, False)),
    ((1, 1, 0, False), (1, 1, 1, False), (1, 1, 2, True)),
    ((2, 3, 0, False), (1, 1, 1, False)),
    ((2, 3, 0, False), (2, 3, 0, False)),
    ((2, 3, 0, False), (2, 3, 1, True)),
    ((1, 2, 0, False), (1, 2, 0, False)),
    ((2, 3, 0, False), (1, 2, 0, False)),
    ((3, 4, 0, False), (1, 1, 1, True)),
    ((2, 5, 0, False), (2, 3, 0, False)),
    ((1, 3, 0, False), (1, 1, 1, False), (2, 3, 2, True)),
    ((2, 3, 0, False), (3, 4, 1, True)),
    ((1, 2, 0, False), (1, 1, 1, False), (1, 1, 2, False)),
    ((2, 5, 0, True), (1, 1, 1, False)),
    ((3, 5, 0, False), (1, 2, 1, True)),
    ((1, 2, 0, False), (1, 3, 0, False), (1, 1, 1, True)),
)
WIDE_MS = range(1, 7)

# Tangent x = s*y for plain groups, y = s*x for mirrored ones.  With plain
# shears in -4..4 and mirrored shears in {0, +-2, +-3, +-4} no plain line
# equals a mirrored one (that needs s * s' = 1).
_PLAIN_SHEARS = tuple(range(-4, 5))
_MIRROR_SHEARS = (0, 2, -2, 3, -3, 4, -4)


def _branch(a: int, b: int, shear: int, c: int, mirrored: bool) -> str:
    u, v = ("y", "x") if mirrored else ("x", "y")
    lin = render_sum([(1, u)] + ([(-shear, v)] if shear else []))
    if (a, b) == (1, 1):
        return f"({lin})"
    if a == 1:
        head = lin
    elif shear:
        head = f"({lin})^{a}"
    else:
        head = f"{u}^{a}"
    return "(" + render_sum([(1, head), (c, f"{v}^{b}")]) + ")"


def wide_germ(rng: random.Random, shape) -> str:
    groups = sorted({(g, mir) for _, _, g, mir in shape})
    pools = {False: list(_PLAIN_SHEARS), True: list(_MIRROR_SHEARS)}
    shears = {}
    for g, mir in groups:
        s = rng.choice(pools[mir])
        pools[mir].remove(s)
        shears[(g, mir)] = s
    coeffs = rng.sample([c for c in range(-9, 10) if c], len(shape))
    return "*".join(
        _branch(a, b, shears[(g, mir)], c, mir) for (a, b, g, mir), c in zip(shape, coeffs)
    )


def wide_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    seen = set()
    for n, shape in enumerate(WIDE_SHAPES):
        for m in WIDE_MS:
            poly = wide_germ(rng, shape)
            while poly in seen:
                poly = wide_germ(rng, shape)
            seen.add(poly)
            jobs.append({"id": f"wide/shape{n}/m{m}", "calls": [_report(poly, m)]})
    return jobs


# ---------------------------------------------------------------------------
# oracle: (family, Newton polygon vertices, monomials above the boundary)

ORACLE_FAMILIES = {
    "x^2+y^3": (((2, 0), (0, 3)), ((1, 2), (2, 1), (0, 4), (3, 0), (1, 3))),
    "x*y": (((1, 1),), ((2, 1), (1, 2), (2, 2), (3, 1), (1, 3))),
    "x^3+y^4": (((3, 0), (0, 4)), ((2, 2), (1, 3), (3, 1), (0, 5), (2, 3))),
    "x^2+y^5": (((2, 0), (0, 5)), ((1, 3), (2, 1), (0, 6), (1, 4), (2, 2))),
}

# (family, m, lower limit of the pool's primes); each small kind gets
# ORACLE_VARIANTS seeded germs.  ORACLE_LARGE is one more job, 1.08 M nodes
# over its three counts and three stratified counts.
ORACLE_KINDS = (
    [("x^2+y^3", m, 3) for m in range(1, 5)]
    + [("x*y", m, 3) for m in range(1, 5)]
    + [("x^3+y^4", m, 3) for m in range(1, 6)]
    + [("x^2+y^5", m, 3) for m in range(1, 4)]
)
ORACLE_VARIANTS = 7
ORACLE_LARGE = ("x*y", 5, 11)
POOL_SIZE = 3

# Vertex coefficients are s^a * t^b for the vertex x^a*y^b, with s and t in
# +-1, +-2: the substitution x -> x/s, y -> y/t makes every vertex
# coefficient 1 over every F_q with q odd, so the seed moves neither the
# Newton polygon nor the count's dependence on q, only the terms above it.
_VERTEX_SCALES = (1, -1, 2, -2)
# The oracle evaluates f term by term at every node, so its cost grows with
# the number of terms modulo q: every germ gets the same number of terms
# above the boundary, with coefficients no odd prime divides.
ORACLE_EXTRA_TERMS = 2
_UNIT_COEFFS = (1, -1, 2, -2, 4, -4)


def _primes_from(start: int):
    q = max(start, 3)
    while True:
        if all(q % p for p in range(2, math.isqrt(q) + 1)):
            yield q
        q += 1


def oracle_congruence(family: str, m: int) -> tuple[int, int]:
    """Residue class (r, mod) the pool's primes are drawn from.

    Roots of unity of order dividing both m and the edge exponents of the
    Newton polygon enter the covers that contribute at m; on primes with
    q = 1 mod that order the count is a polynomial in q, which is what the
    q = 1 fit needs.  Off that class a fit can look conclusive and still be
    wrong, which would fail a correct program.
    """
    vertices, _ = ORACLE_FAMILIES[family]
    edge = 1
    for a, b in vertices:
        for e in (a, b):
            if e:
                edge = math.lcm(edge, e)
    return 1, math.gcd(m, edge)


def oracle_pool(family: str, m: int, start: int) -> list[int]:
    """The POOL_SIZE smallest primes >= start in the family's class at m that
    exceed every vertex exponent (so no exponent vanishes mod q)."""
    vertices, _ = ORACLE_FAMILIES[family]
    r, mod = oracle_congruence(family, m)
    floor = max(max(v) for v in vertices) + 1
    pool = []
    for q in _primes_from(max(start, floor)):
        if q % mod == r % mod:
            pool.append(q)
            if len(pool) == POOL_SIZE:
                return pool


def oracle_germ(rng: random.Random, family: str) -> str:
    vertices, above = ORACLE_FAMILIES[family]
    sx, sy = rng.choice(_VERTEX_SCALES), rng.choice(_VERTEX_SCALES)
    terms = [(sx ** a * sy ** b, _monomial(a, b)) for a, b in vertices]
    for a, b in rng.sample(above, ORACLE_EXTRA_TERMS):
        terms.append((rng.choice(_UNIT_COEFFS), _monomial(a, b)))
    return render_sum(terms)


def _oracle_job(job_id: str, family: str, poly: str, m: int, start: int) -> dict:
    pool = oracle_pool(family, m, start)
    primes = ",".join(str(q) for q in pool)
    calls = [["report", f"--poly={poly}", "--m", str(m), "--primes", primes, "--format", "json"]]
    calls += [
        ["oracle-count", f"--poly={poly}", "--m", str(m), "--q", str(q), "--strata", "--format", "json"]
        for q in pool
    ]
    return {"id": job_id, "calls": calls, "pool": pool, "congruence": list(oracle_congruence(family, m))}


def oracle_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for family, m, start in ORACLE_KINDS:
        for v in range(ORACLE_VARIANTS):
            poly = oracle_germ(rng, family)
            jobs.append(_oracle_job(f"oracle/{family}/m{m}/v{v}", family, poly, m, start))
    family, m, start = ORACLE_LARGE
    jobs.append(_oracle_job(f"oracle/{family}/m{m}/large", family, oracle_germ(rng, family), m, start))
    return jobs


GENERATORS = {"ladder": ladder_jobs, "wide": wide_jobs, "oracle": oracle_jobs}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of a workload; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    for job in jobs:
        job["expect"] = {"exit": 0, "verdict": "PASS"}
    return jobs
