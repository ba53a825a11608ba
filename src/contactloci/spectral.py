"""Assembly and analysis of the first page converging to H_c of contact loci.

For an m-separating configuration, the divisors contributing to the m-th
contact locus are S_m = {i : h(E_i) inside Sigma and m_i | m}, with
contact orders k_i = m / m_i.  Each contributor places the homology of
the cyclic cover of its open stratum on the page at column p = -w_i k_i:

    H_n(cover of E_i°)  sits at  p + q = 2 (d (m + 1) - k_i nu_i - 1) - n,

the even shift being twice the dimension of the corresponding smooth
stratum of the contact locus.  Differentials d_r move (p, q) to
(p + r, q - r + 1); after tensoring with Q only the pages r <= d can
carry nonzero differentials, and a differential on a later page has
finite image, so rational rank bounds only ever involve arrows with
1 <= r <= d.  A total degree touched by no arrow at all is therefore
known integrally; one where every arrow with r <= d has cap
min(source rank, target rank) = 0 is known rationally; anything else
gets rank bounds that subtract those caps.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .covers import CoverHomology, covers_for
from .errors import DomainError, MissingCoverDataError, NotMSeparatingError
from .model import Divisor, SncConfiguration, require_valid, to_json_dict
from .separation import first_offending_pair, is_m_separating
from .weights import WeightVector


class ContributingSet(NamedTuple):
    """S_m with contact orders and filtration columns."""

    m: int
    members: tuple[tuple[int, int, int], ...]  # (divisor id, k_i, column p)

    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _, _ in self.members)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "members": [{"id": i, "k": k, "p": p} for i, k, p in self.members],
        }


class PageEntry(NamedTuple):
    rank: int
    torsion: tuple[int, ...] = ()
    contributors: tuple[tuple[int, int], ...] = ()  # (divisor id, homology degree)


class E1Page(NamedTuple):
    m: int
    ambient_dim: int
    entries: tuple[tuple[tuple[int, int], PageEntry], ...]  # ((p, q), entry), sorted
    total_shift: int = 0  # bookkeeping for relabelled pages

    def entry(self, p: int, q: int) -> PageEntry | None:
        return next((e for pos, e in self.entries if pos == (p, q)), None)

    def nonzero(self) -> list[tuple[int, int, PageEntry]]:
        return [(p, q, e) for (p, q), e in self.entries if e.rank or e.torsion]

    def ranks_by_total_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (p, q), e in self.entries:
            out[p + q] = out.get(p + q, 0) + e.rank
        return {n: r for n, r in sorted(out.items()) if r}

    def euler_characteristic(self) -> int:
        return sum((-1) ** (p + q) * e.rank for (p, q), e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "ambient_dim": self.ambient_dim,
            "total_shift": self.total_shift,
            "entries": [
                {
                    "p": p,
                    "q": q,
                    "rank": e.rank,
                    "torsion": list(e.torsion),
                    "contributors": [[i, n] for i, n in e.contributors],
                }
                for (p, q), e in self.entries
            ],
        }


class DegreeStatus(NamedTuple):
    """What is known about H_c in one total degree."""

    degree: int
    kind: str  # "zero" | "exact" | "rational_exact" | "bounds"
    rank: int  # sum of page ranks in this degree (the upper bound)
    lo: int
    hi: int
    torsion: tuple[int, ...] = ()
    graded_only: bool = False  # exactness holds only for the associated graded

    to_json_dict = to_json_dict


class HcReport(NamedTuple):
    m: int
    ambient_dim: int
    statuses: tuple[DegreeStatus, ...]
    euler: int
    integral_forced: bool  # no arrows at all: the page is the abutment
    rational_window_forced: bool  # no arrows within the first d pages

    def status(self, degree: int) -> DegreeStatus:
        for s in self.statuses:
            if s.degree == degree:
                return s
        return DegreeStatus(degree, "zero", 0, 0, 0)

    to_json_dict = to_json_dict


def _contact_order(div: Divisor, m: int) -> int | None:
    """k_i = m / m_i when E_i is in S_m (over Sigma with m_i | m), else None."""
    return m // div.mult if div.over_sigma and m % div.mult == 0 else None


def contributing_set(cfg: SncConfiguration, w: WeightVector, m: int) -> ContributingSet:
    """S_m with columns; requires the configuration to be m-separating."""
    require_valid(cfg)
    if m < 1:
        raise DomainError("m must be a positive integer")
    if not is_m_separating(cfg, m):
        i, j, pm = first_offending_pair(cfg, m)
        raise NotMSeparatingError(m, (i, j), pm)
    members = []
    for d in cfg.divisors:
        k = _contact_order(d, m)
        if k is not None:
            members.append((d.id, k, -w.get(d.id) * k))
    return ContributingSet(m=m, members=tuple(members))


def stratum_dimension(cfg: SncConfiguration, i: int, m: int, *, jet_level: int | None = None) -> int:
    """Dimension of the smooth stratum of the contact locus over E_i°.

    At jet level l the stratum has dimension d(l+1) - k_i nu_i - 1; the
    contact-level variant substitutes l = m.
    """
    div = cfg.divisor(i)
    k = _contact_order(div, m)
    if k is None:
        raise DomainError(f"divisor {i} does not contribute at m = {m}")
    level = m if jet_level is None else jet_level
    if level < m:
        raise DomainError("jet level must be at least m")
    return cfg.ambient_dim * (level + 1) - k * div.disc - 1


def e1_page(
    cfg: SncConfiguration,
    w: WeightVector,
    m: int,
    covers: Mapping[int, CoverHomology] | None = None,
) -> E1Page:
    """Place the cover homology of every contributor on the page."""
    cset = contributing_set(cfg, w, m)
    if covers is None:
        covers = covers_for(cfg, cset.ids())
    missing = [i for i in cset.ids() if i not in covers]
    if missing:
        raise MissingCoverDataError(f"no cover data for divisors {missing}")
    cells: dict[tuple[int, int], list[tuple]] = {}  # (p, q) -> [(i, n, rank, torsion)]
    for i, _, p in cset.members:
        cover = covers[i]
        dim = stratum_dimension(cfg, i, m)
        for n, b in enumerate(cover.betti):
            tors = cover.torsion_in_degree(n)
            if b or tors:
                cells.setdefault((p, 2 * dim - n - p), []).append((i, n, b, tors))
    entries = tuple(
        (
            key,
            PageEntry(
                rank=sum(b for _, _, b, _ in slot),
                torsion=tuple(sorted(t for *_, tors in slot for t in tors)),
                contributors=tuple(sorted((i, n) for i, n, _, _ in slot)),
            ),
        )
        for key, slot in sorted(cells.items())
    )
    return E1Page(m=m, ambient_dim=cfg.ambient_dim, entries=entries)


def degeneration_analysis(page: E1Page) -> HcReport:
    """Exact values or rank bounds for the abutment, degree by degree.

    One pass over ordered pairs of nonzero entries finds every possible
    arrow, (p, q) -> (p + r, q - r + 1).  It records the total degrees
    that some arrow leaves and, per source degree, the summed caps of the
    arrows with r <= d; each degree reads its status from the two.
    """
    d = page.ambient_dim
    nonzero = page.nonzero()
    rank: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for p, q, e in nonzero:
        rank[p + q] = rank.get(p + q, 0) + e.rank
        torsion.setdefault(p + q, []).extend(e.torsion)
    left: set[int] = set()  # total degrees that some arrow leaves
    caps: dict[int, int] = {}  # source degree -> summed caps of its arrows with r <= d
    for p, q, e in nonzero:
        for pp, qq, f in nonzero:
            r = pp - p
            if r >= 1 and qq == q - r + 1:
                left.add(p + q)
                if r <= d:
                    caps[p + q] = caps.get(p + q, 0) + min(e.rank, f.rank)

    statuses = []
    for n in sorted(rank):
        cut = caps.get(n - 1, 0) + caps.get(n, 0)
        if cut:
            kind = "bounds"
        elif n - 1 in left or n in left:
            kind = "rational_exact"
        else:
            kind = "exact"
        tors = tuple(sorted(torsion[n]))
        statuses.append(
            DegreeStatus(
                degree=n,
                kind=kind,
                rank=rank[n],
                lo=max(0, rank[n] - cut),
                hi=rank[n],
                torsion=tors,
                graded_only=bool(tors) and kind == "exact",
            )
        )
    return HcReport(
        m=page.m,
        ambient_dim=page.ambient_dim,
        statuses=tuple(statuses),
        euler=page.euler_characteristic(),
        integral_forced=not left,
        rational_window_forced=not caps,
    )


def mclean_relabel(page: E1Page) -> E1Page:
    """Shift the total degree by -(2 d m + d - 1), keeping columns fixed.

    This aligns the page with the fixed-point Floer grading of the m-th
    monodromy iterate.
    """
    shift = 2 * page.ambient_dim * page.m + page.ambient_dim - 1
    entries = tuple(((p, q - shift), e) for (p, q), e in page.entries)
    return page._replace(entries=tuple(sorted(entries)), total_shift=page.total_shift - shift)


def multiplicity_case_prediction(d: int, m: int, milnor_betti: Iterable[int]) -> dict[int, int]:
    """H_c of the m-th contact locus when m is the multiplicity at the origin.

    The locus fibers over the Milnor fiber F of the initial form, giving
    H_c^* = H_{2(dm - 1) - *}(F); the prediction maps each homology degree
    n with b_n != 0 to the cohomological degree 2(dm - 1) - n.
    """
    out = {}
    for n, b in enumerate(milnor_betti):
        if b:
            out[2 * (d * m - 1) - n] = b
    return out


def rational_gap_analysis(page: E1Page) -> dict:
    """Rational ranks forced exact by scaling the weights.

    Scaling a valid weight vector multiplies all distinct column gaps, so
    a large enough scale pushes every arrow beyond the first d pages and
    the rational ranks equal the page totals.  The conclusion is
    conditional on the page bound applying to the scaled weight choice.
    """
    d = page.ambient_dim
    columns = sorted({p for p, q, e in page.nonzero()})
    gaps = [b - a for a, b in zip(columns, columns[1:])]
    min_gap = min(gaps) if gaps else None
    scale = 1 if min_gap is None else d // min_gap + 1
    return {
        "scale": scale,
        "rational_ranks": page.ranks_by_total_degree(),
        "note": (
            "conditional on the first-d-pages bound applying to the scaled "
            "weight choice"
        ),
    }


def group_text(rank: int, torsion: Iterable[int], sep: str) -> str:
    """"Z^r" and one "Z/t" per torsion order, joined by ``sep``; "0" when trivial."""
    free = [f"Z^{rank}" if rank != 1 else "Z"] if rank else []
    return sep.join(free + [f"Z/{t}" for t in torsion]) or "0"


def render_page_table(page: E1Page, cfg: SncConfiguration | None = None) -> str:
    """Aligned text table, columns by ascending p and rows by ascending q."""
    nonzero = page.nonzero()
    if not nonzero:
        return "(empty page)"
    ps = sorted({p for p, _, _ in nonzero})
    qs = sorted({q for _, q, _ in nonzero})
    labels = {}
    if cfg is not None:
        labels = {d.id: d.label for d in cfg.divisors}

    def describe(e: PageEntry) -> str:
        group = group_text(e.rank, e.torsion, "+")
        who = ",".join(
            f"{labels.get(i, 'E?' + str(i))}:H{n}" for i, n in e.contributors
        )
        return f"{group} ({who})" if who else group

    grid = {}
    for p, q, e in nonzero:
        grid[(p, q)] = describe(e)
    col_width = {
        p: max(len(f"p={p}"), max((len(grid.get((p, q), "")) for q in qs), default=1))
        for p in ps
    }
    row_head = max(len(str(q)) for q in qs)
    lines = []
    header = " " * (row_head + 2) + "  ".join(f"p={p}".ljust(col_width[p]) for p in ps)
    lines.append(header)
    for q in qs:
        cells = "  ".join(grid.get((p, q), ".").ljust(col_width[p]) for p in ps)
        lines.append(f"q={q}".rjust(row_head + 2) + cells)
    return "\n".join(lines)
