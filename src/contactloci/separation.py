"""m-separation of a configuration by stellar subdivision of dual graph edges.

A configuration is m-separating when every pair of meeting components has
multiplicity sum m_i + m_j > m.  In the curve case each offending
intersection point is blown up, replacing it by a new exceptional curve
with mult = m_i + m_j and disc = nu_i + nu_j; iterating over the cells of
minimal pair multiplicity raises the minimum strictly until it exceeds m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ResourceLimitError, UnsupportedDimensionError
from .model import Divisor, IntersectionCell, SncConfiguration, require_valid


@dataclass(frozen=True)
class SubdivisionRecord:
    """One stellar subdivision: a blowup of one intersection point."""

    pair: tuple[int, int]
    point_index: int  # which of the cell's points, 0-based
    new_id: int
    mult: int
    disc: int
    over_sigma: bool

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "point_index": self.point_index,
            "new_id": self.new_id,
            "mult": self.mult,
            "disc": self.disc,
            "over_sigma": self.over_sigma,
        }

    @classmethod
    def from_json_dict(cls, data) -> "SubdivisionRecord":
        return cls(
            pair=tuple(int(i) for i in data["pair"]),
            point_index=int(data["point_index"]),
            new_id=int(data["new_id"]),
            mult=int(data["mult"]),
            disc=int(data["disc"]),
            over_sigma=bool(data["over_sigma"]),
        )


def pair_multiplicities(cfg: SncConfiguration) -> list[tuple[int, int, int]]:
    """The 1-cells of the dual complex: (i, j, m_i + m_j) for every pair of
    meeting divisors, one per intersection cell (every pair inside a cell
    when d >= 3).  M(Delta) is the least m_i + m_j here."""
    mult = {d.id: d.mult for d in cfg.divisors}
    out = []
    for cell in cfg.cells:
        ids = sorted(cell.ids)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                i, j = ids[a], ids[b]
                out.append((i, j, mult[i] + mult[j]))
    return out


def is_m_separating(cfg: SncConfiguration, m: int) -> bool:
    return all(pm > m for _, _, pm in pair_multiplicities(cfg))


def first_offending_pair(cfg: SncConfiguration, m: int) -> tuple[int, int, int] | None:
    for i, j, pm in sorted(pair_multiplicities(cfg)):
        if pm <= m:
            return (i, j, pm)
    return None


def separate(
    cfg: SncConfiguration, m: int, *, max_subdivisions: int = 10_000
) -> tuple[SncConfiguration, list[SubdivisionRecord]]:
    """Blow up intersection points until the configuration is m-separating.

    Cells of minimal pair multiplicity are processed first, ties broken by
    (min id, max id, point index); a cell of count c is treated as c
    independent points.  Each subdivision adds an exceptional divisor with
    mult m_i + m_j, disc nu_i + nu_j, genus 0 and self-intersection -1,
    drops the endpoints' self-intersections by one, moves one intersection
    point from the old cell onto the two new cells, and inherits the
    over_sigma flag of the subdivided cell.
    """
    require_valid(cfg)
    if cfg.ambient_dim != 2:
        if is_m_separating(cfg, m):
            return cfg, []
        raise UnsupportedDimensionError(
            "separation by stellar subdivision is implemented for curves only; "
            "supply an m-separating configuration for ambient_dim != 2"
        )

    divisors = {d.id: d for d in cfg.divisors}
    # mutable cell multiset: (i, j, over_sigma) -> count
    cells: dict[tuple[int, int, bool], int] = {}
    for cell in cfg.cells:
        key = (cell.ids[0], cell.ids[1], cell.over_sigma)
        cells[key] = cells.get(key, 0) + cell.count

    records: list[SubdivisionRecord] = []
    next_id = max(divisors) + 1
    passes = 0
    last_min = None
    while True:
        if len(records) > max_subdivisions:
            raise ResourceLimitError("separation exceeded the subdivision cap")
        offending = [
            (divisors[i].mult + divisors[j].mult, i, j, flag)
            for (i, j, flag), count in cells.items()
            if count and divisors[i].mult + divisors[j].mult <= m
        ]
        if not offending:
            break
        level = min(pm for pm, _, _, _ in offending)
        # each pass exhausts one minimum level, so the level rises strictly
        assert last_min is None or level > last_min
        batch = sorted((i, j, flag) for pm, i, j, flag in offending if pm == level)
        for i, j, flag in batch:
            count = cells.get((i, j, flag), 0)
            for point_index in range(count):
                di, dj = divisors[i], divisors[j]
                new = Divisor(
                    id=next_id,
                    label=f"S{len(records) + 1}",
                    mult=di.mult + dj.mult,
                    disc=di.disc + dj.disc,
                    exceptional=True,
                    over_sigma=flag,
                    genus=0,
                    self_int=-1,
                )
                divisors[next_id] = new
                for endpoint in (i, j):
                    d = divisors[endpoint]
                    if d.self_int is not None:
                        divisors[endpoint] = replace(d, self_int=d.self_int - 1)
                cells[(i, j, flag)] -= 1
                for endpoint in (i, j):
                    key = (min(endpoint, next_id), max(endpoint, next_id), flag)
                    cells[key] = cells.get(key, 0) + 1
                records.append(
                    SubdivisionRecord(
                        pair=(i, j),
                        point_index=point_index,
                        new_id=next_id,
                        mult=new.mult,
                        disc=new.disc,
                        over_sigma=flag,
                    )
                )
                next_id += 1
        last_min = level
        passes += 1

    new_cells = tuple(
        IntersectionCell(ids=(i, j), count=count, over_sigma=flag)
        for (i, j, flag), count in sorted(cells.items())
        if count
    )
    out = SncConfiguration(
        ambient_dim=2,
        divisors=tuple(divisors.values()),
        cells=new_cells,
        sigma_label=cfg.sigma_label,
    )
    return out, records
