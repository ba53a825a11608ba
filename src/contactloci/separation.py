"""m-separation of a configuration by stellar subdivision of dual graph edges.

A configuration is m-separating when every pair of meeting components has
multiplicity sum m_i + m_j > m.  In the curve case each offending
intersection point is blown up, replacing it by a new exceptional curve
with mult = m_i + m_j and disc = nu_i + nu_j; iterating over the cells of
minimal pair multiplicity raises the minimum strictly until it exceeds m.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import NamedTuple

from .errors import UnsupportedDimensionError
from .model import (
    Divisor,
    IntersectionCell,
    SncConfiguration,
    pair_multiplicities,
    require_valid,
    to_json_dict,
)


class SubdivisionRecord(NamedTuple):
    """One stellar subdivision: a blowup of one intersection point."""

    pair: tuple[int, int]
    point_index: int  # which of the cell's points, 0-based
    new_id: int
    mult: int
    disc: int
    over_sigma: bool

    to_json_dict = to_json_dict


def is_m_separating(cfg: SncConfiguration, m: int) -> bool:
    least = cfg.min_pair_multiplicity
    return least is None or least > m


def first_offending_pair(cfg: SncConfiguration, m: int) -> tuple[int, int, int] | None:
    for i, j, pm in sorted(pair_multiplicities(cfg)):
        if pm <= m:
            return (i, j, pm)
    return None


def separate(cfg: SncConfiguration, m: int) -> tuple[SncConfiguration, list[SubdivisionRecord]]:
    """Blow up intersection points until the configuration is m-separating.

    Cells are processed in the order of their key (pair multiplicity,
    min id, max id, over_sigma); a cell of count c is treated as c
    independent points.  Each subdivision adds an exceptional divisor with
    mult m_i + m_j, disc nu_i + nu_j, genus 0 and self-intersection -1,
    drops the endpoints' self-intersections by one, moves one intersection
    point from the old cell onto the two new cells, and inherits the
    over_sigma flag of the subdivided cell.

    The loop terminates with a known size.  A new cell's pair multiplicity
    exceeds the subdivided one's, so the heap pops cells level by level,
    and only cells of pair multiplicity <= m enter it.  The divisors born
    over a cell between multiplicities a and b are the Stern-Brocot tree of
    that edge, one per coprime (i, j) with mult i*a + j*b, so a cell of
    count c gets c * #{(i, j) coprime, i, j >= 1, i*a + j*b <= m}
    subdivisions.
    """
    require_valid(cfg)
    if cfg.ambient_dim != 2:
        if is_m_separating(cfg, m):
            return cfg, []
        raise UnsupportedDimensionError(
            "separation by stellar subdivision is implemented for curves only; "
            "supply an m-separating configuration for ambient_dim != 2"
        )

    mult = {d.id: d.mult for d in cfg.divisors}
    disc = {d.id: d.disc for d in cfg.divisors}
    # mutable cell multiset: (i, j, over_sigma) -> count
    cells: dict[tuple[int, int, bool], int] = {}
    for cell in cfg.cells:
        key = (cell.ids[0], cell.ids[1], cell.over_sigma)
        cells[key] = cells.get(key, 0) + cell.count
    heap = [(mult[i] + mult[j], i, j, flag) for i, j, flag in cells if mult[i] + mult[j] <= m]
    heapq.heapify(heap)

    records: list[SubdivisionRecord] = []
    drops: Counter[int] = Counter()  # self-intersection drops per divisor id
    new_id = max(mult) + 1
    while heap:
        pm, i, j, flag = heapq.heappop(heap)
        for point_index in range(cells.pop((i, j, flag))):
            mult[new_id] = pm
            disc[new_id] = disc[i] + disc[j]
            for endpoint in (i, j):
                drops[endpoint] += 1
                cells[(endpoint, new_id, flag)] = 1  # new_id exceeds every id so far
                if mult[endpoint] + pm <= m:
                    heapq.heappush(heap, (mult[endpoint] + pm, endpoint, new_id, flag))
            records.append(SubdivisionRecord((i, j), point_index, new_id, pm, disc[new_id], flag))
            new_id += 1

    divisors = [
        d._replace(self_int=d.self_int - drops[d.id]) if d.self_int is not None and drops[d.id] else d
        for d in cfg.divisors
    ]
    divisors += [
        Divisor(r.new_id, f"S{n}", r.mult, r.disc, True, r.over_sigma, 0, -1 - drops[r.new_id])
        for n, r in enumerate(records, start=1)
    ]
    new_cells = tuple(
        IntersectionCell(ids=(i, j), count=count, over_sigma=flag)
        for (i, j, flag), count in sorted(cells.items())
    )
    out = SncConfiguration(
        ambient_dim=2,
        divisors=tuple(divisors),
        cells=new_cells,
        sigma=cfg.sigma,
    )
    return out, records
