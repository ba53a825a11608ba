import functools
import math
import random

import pytest

from contactloci.covers import cover_betti
from contactloci.curves import resolve_plane_curve
from contactloci.errors import UnsupportedDimensionError, ValidationFailedError
from contactloci.lefschetz import lefschetz_number, zeta_factorization
from contactloci.model import (
    Divisor,
    IntersectionCell,
    SncConfiguration,
    validate_configuration,
)
from contactloci.separation import (
    SubdivisionRecord,
    is_m_separating,
    pair_multiplicities,
    separate,
)

from conftest import hand_built_cusp, hand_built_node

SUITE = ("x^2+y^3", "x*y", "x^3+y^4", "x^2+y^5")
LADDER_GERMS = ("x^2+y^3", "x^2+y^5", "x*y", "x^3+y^4", "x^2*y+y^4", "(x^2-y^3)*(x^3-y^2)")


@functools.cache
def resolved(text: str) -> SncConfiguration:
    return resolve_plane_curve(text)[0]


def reference_separate(
    cfg: SncConfiguration, m: int
) -> tuple[SncConfiguration, list[SubdivisionRecord]]:
    """The level-by-level separation loop: rescan every cell for the least
    offending pair multiplicity, then subdivide that level's cells in
    (min id, max id, flag) order.  Curve case only."""
    divisors = {d.id: d for d in cfg.divisors}
    cells: dict[tuple[int, int, bool], int] = {}
    for cell in cfg.cells:
        key = (cell.ids[0], cell.ids[1], cell.over_sigma)
        cells[key] = cells.get(key, 0) + cell.count

    records: list[SubdivisionRecord] = []
    next_id = max(divisors) + 1
    last_min = None
    while True:
        offending = [
            (divisors[i].mult + divisors[j].mult, i, j, flag)
            for (i, j, flag), count in cells.items()
            if count and divisors[i].mult + divisors[j].mult <= m
        ]
        if not offending:
            break
        level = min(pm for pm, _, _, _ in offending)
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
                        divisors[endpoint] = d._replace(self_int=d.self_int - 1)
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

    new_cells = tuple(
        IntersectionCell(ids=(i, j), count=count, over_sigma=flag)
        for (i, j, flag), count in sorted(cells.items())
        if count
    )
    out = SncConfiguration(
        ambient_dim=2,
        divisors=tuple(divisors.values()),
        cells=new_cells,
        sigma=cfg.sigma,
    )
    return out, records


def closed_form_size(cfg: SncConfiguration, m: int) -> int:
    """Subdivisions needed for m-separation: a cell of count c between
    multiplicities a and b gets c * #{(i, j) coprime, i, j >= 1,
    i*a + j*b <= m}."""
    total = 0
    for cell in cfg.cells:
        a, b = (cfg.divisor(k).mult for k in cell.ids)
        total += cell.count * sum(
            1
            for i in range(1, (m - b) // a + 1)
            for j in range(1, (m - i * a) // b + 1)
            if math.gcd(i, j) == 1
        )
    return total


def assert_same_separation(cfg: SncConfiguration, m: int) -> None:
    sep, records = separate(cfg, m)
    ref_sep, ref_records = reference_separate(cfg, m)
    assert sep.to_json_dict() == ref_sep.to_json_dict()
    assert [r.to_json_dict() for r in records] == [r.to_json_dict() for r in ref_records]


@pytest.mark.parametrize("text", LADDER_GERMS)
def test_separate_matches_reference_on_ladder_germs(text):
    for m in range(1, 41):
        assert_same_separation(resolved(text), m)


@pytest.mark.parametrize("m", (96, 192))
@pytest.mark.parametrize("text", ("x^2+y^3", "(x^2-y^3)*(x^3-y^2)"))
def test_separate_matches_reference_at_large_m(text, m):
    assert_same_separation(resolved(text), m)


@pytest.mark.parametrize(
    "text, m", [(text, m) for text in LADDER_GERMS for m in (1, 7, 17, 40)] + [("x*y", 192)]
)
def test_subdivision_count_has_a_closed_form(text, m):
    sep, records = separate(resolved(text), m)
    assert len(records) == closed_form_size(resolved(text), m)
    assert is_m_separating(sep, m)


def min_pair_multiplicity(cfg: SncConfiguration) -> int | None:
    """M(Delta): least m_i + m_j over the 1-cells, None when there are none."""
    return min((pm for _, _, pm in pair_multiplicities(cfg)), default=None)


def test_configuration_caches_its_min_pair_multiplicity(monkeypatch):
    from contactloci import model

    scans = []

    def counting(cfg):
        scans.append(cfg)
        return pair_multiplicities(cfg)

    monkeypatch.setattr(model, "pair_multiplicities", counting)
    rng = random.Random(20194)
    for _ in range(40):
        m = rng.randint(1, 30)
        sep, _ = separate(resolved(rng.choice(LADDER_GERMS)), m)
        scans.clear()
        for probe in (m, m + 1, rng.randint(1, 60)):
            assert is_m_separating(sep, probe) == all(pm > probe for *_, pm in pair_multiplicities(sep))
        assert sep.min_pair_multiplicity == min_pair_multiplicity(sep)
        assert scans == [sep]


def test_min_pair_multiplicity_examples():
    assert min_pair_multiplicity(hand_built_cusp()) == 7
    assert min_pair_multiplicity(hand_built_node()) == 3
    point = SncConfiguration(
        ambient_dim=1, divisors=(Divisor(0, "o", 3, 1, False, True),)
    )
    assert min_pair_multiplicity(point) is None


def test_separate_requires_valid_input():
    cfg = SncConfiguration(
        ambient_dim=2, divisors=(Divisor(0, "E", 1, 0, True, True, 0, -1),)
    )
    with pytest.raises(ValidationFailedError):
        separate(cfg, 1)


def test_is_m_separating_examples():
    cusp = hand_built_cusp()
    assert is_m_separating(cusp, 6)
    assert not is_m_separating(cusp, 7)
    assert is_m_separating(hand_built_node(), 2)


def test_cusp_m7_single_subdivision():
    sep, records = separate(hand_built_cusp(), 7)
    assert len(records) == 1
    rec = records[0]
    assert rec.pair == (2, 3)  # E3 meets the strict transform
    assert (rec.mult, rec.disc) == (7, 6)
    sums = sorted(pm for _, _, pm in pair_multiplicities(sep))
    assert sums == [8, 8, 9, 13]  # (D,S) 8, (E1,E3) 8, (E2,E3) 9, (E3,S) 13
    assert is_m_separating(sep, 7)
    assert min_pair_multiplicity(sep) == 8


def test_cusp_m6_is_identity():
    sep, records = separate(hand_built_cusp(), 6)
    assert records == []
    assert sep == hand_built_cusp()


def test_node_m3_two_subdivisions():
    sep, records = separate(hand_built_node(), 3)
    assert len(records) == 2
    assert all((r.mult, r.disc) == (3, 3) for r in records)
    assert min_pair_multiplicity(sep) == 4


def test_multigraph_cells_subdivide_point_by_point():
    # x^2 + y^4 has a count-2 cell between the last exceptional curve and
    # the strict transform; each point is an independent subdivision
    cfg, _ = resolve_plane_curve("x^2 + y^4")
    cell = next(c for c in cfg.cells if c.count == 2)
    m = sum(cfg.divisor(i).mult for i in cell.ids)  # pair multiplicity 5
    sep, records = separate(cfg, m)
    from_pair = [r for r in records if r.pair == cell.ids]
    assert [r.point_index for r in from_pair[:2]] == [0, 1]
    assert is_m_separating(sep, m)


def test_new_divisor_data_and_flags():
    sep, records = separate(hand_built_cusp(), 9)
    for rec in records:
        new = sep.divisor(rec.new_id)
        assert new.exceptional and new.genus == 0
        assert new.mult == rec.mult and new.disc == rec.disc
    assert validate_configuration(sep) == []


@pytest.mark.parametrize("text", SUITE)
@pytest.mark.parametrize("m", range(1, 13))
def test_separate_properties(text, m):
    cfg, _ = resolve_plane_curve(text)
    sep, records = separate(cfg, m)
    assert is_m_separating(sep, m)
    # additivity of (m, nu) for every new divisor
    lookup = {d.id: d for d in sep.divisors}
    for rec in records:
        di, dj = lookup[rec.pair[0]], lookup[rec.pair[1]]
        assert rec.mult == di.mult + dj.mult
        assert rec.disc == di.disc + dj.disc
    # Lefschetz numbers and the reduced zeta are blowup invariants
    for mm in range(1, 13):
        assert lefschetz_number(sep, mm) == lefschetz_number(cfg, mm)
    assert zeta_factorization(sep) == zeta_factorization(cfg)
    # idempotence
    again, more = separate(sep, m)
    assert more == []
    assert again == sep


def test_contributing_content_stable_under_refinement():
    # divisors created by separating beyond m have mult > m, never enter S_m
    from contactloci.spectral import contributing_set
    from contactloci.weights import solve_weights

    cfg, _ = resolve_plane_curve("x*y")
    m = 3
    sep, _ = separate(cfg, m)
    finer, extra = separate(sep, m + 4)
    assert extra  # the refinement really subdivided
    def content(c):
        out = []
        for i, k, _ in contributing_set(c, solve_weights(c), m).members:
            d = c.divisor(i)
            out.append((d.mult, d.disc, cover_betti(c, i).betti))
        return sorted(out)

    assert content(sep) == content(finer)


def test_over_sigma_flag_propagates_to_new_divisors():
    # a cell away from the center spawns divisors away from the center
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, 0, -2),
            Divisor(1, "F", 1, 1, False, False, 0, None),
            Divisor(2, "G", 2, 1, False, False, 0, None),
        ),
        cells=(
            IntersectionCell((0, 1), 1, True),
            IntersectionCell((1, 2), 1, False),
        ),
    )
    sep, records = separate(cfg, 3)  # both cells have pair multiplicity 3
    flags = {rec.pair: rec.over_sigma for rec in records}
    assert flags == {(0, 1): True, (1, 2): False}
    for rec in records:
        assert sep.divisor(rec.new_id).over_sigma == rec.over_sigma


def test_higher_dimension_checker_works_but_separation_refuses():
    cfg = SncConfiguration(
        ambient_dim=3,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, euler_open=1, cover_betti=(2, 0)),
            Divisor(1, "F", 3, 1, False, True, euler_open=0),
        ),
        cells=(),
    )
    sep, records = separate(cfg, 4)  # already separating: fine
    assert records == []
    cfg2 = SncConfiguration(
        ambient_dim=3,
        divisors=cfg.divisors,
        cells=(IntersectionCell((0, 1), 1, True),),
    )
    assert not is_m_separating(cfg2, 5)
    with pytest.raises(UnsupportedDimensionError):
        separate(cfg2, 5)
