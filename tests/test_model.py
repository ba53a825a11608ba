import json

import pytest

from contactloci import model
from contactloci.curves import resolve_plane_curve
from contactloci.errors import UnsupportedDimensionError, ValidationFailedError
from contactloci.model import (
    Divisor,
    IntersectionCell,
    SncConfiguration,
    euler_open_stratum,
    json_kind,
    require_valid,
    validate_configuration,
)
from contactloci.polys import SparsePolynomial, parse_polynomial
from contactloci.separation import pair_multiplicities, separate
from contactloci.weights import WeightVector

from conftest import hand_built_cusp, hand_built_node


def test_cusp_configuration_is_valid():
    assert validate_configuration(hand_built_cusp()) == []


def test_disc_zero_is_flagged():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(Divisor(0, "E", 1, 0, True, True, 0, -1),),
    )
    messages = [str(i) for i in validate_configuration(cfg)]
    assert any("disc >= 1" in m for m in messages)


def test_non_exceptional_disc_two_is_flagged():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 1, 1, True, True, 0, -1),
            Divisor(1, "D", 1, 2, False, False, 0, None),
        ),
    )
    messages = [str(i) for i in validate_configuration(cfg)]
    assert any("non-exceptional" in m for m in messages)


def test_missing_sigma_divisor_is_flagged():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(Divisor(0, "D", 2, 1, False, False, 0, None),),
    )
    messages = [str(i) for i in validate_configuration(cfg)]
    assert any("Sigma empty" in m for m in messages)


def test_require_valid_scans_each_configuration_once(monkeypatch):
    scans = []
    monkeypatch.setattr(model, "validate_configuration", lambda cfg: scans.append(cfg) or [])
    cfg = hand_built_cusp()
    require_valid(cfg)
    require_valid(cfg)
    assert scans == [cfg]

    monkeypatch.undo()
    broken = SncConfiguration(ambient_dim=2, divisors=(Divisor(0, "D", 2, 1, False, False, 0, None),))
    for _ in range(2):
        with pytest.raises(ValidationFailedError) as info:
            require_valid(broken)
        assert info.value.issues == validate_configuration(broken) != []


def test_positive_self_intersection_is_flagged():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(Divisor(0, "E", 1, 2, True, True, 0, 1),),
    )
    messages = [str(i) for i in validate_configuration(cfg)]
    assert any("self_int < 0" in m for m in messages)


def test_point_case_rejects_cells():
    cfg = SncConfiguration(
        ambient_dim=1,
        divisors=(
            Divisor(0, "a", 1, 1, False, True),
            Divisor(1, "b", 1, 1, False, True),
        ),
        cells=(IntersectionCell((0, 1), 1, True),),
    )
    messages = [str(i) for i in validate_configuration(cfg)]
    assert any("no cells" in m for m in messages)


def test_dual_complex_cusp():
    cfg = hand_built_cusp()
    mults = {d.id: d.mult for d in cfg.divisors}
    assert mults == {0: 2, 1: 3, 2: 6, 3: 1}
    one_cells = pair_multiplicities(cfg)
    assert sorted(pm for _, _, pm in one_cells) == [7, 8, 9]
    for i, j, pm in one_cells:
        assert pm == mults[i] + mults[j]


def test_dual_complex_node():
    assert sorted(pm for _, _, pm in pair_multiplicities(hand_built_node())) == [3, 3]


def test_pair_multiplicity_exceeds_endpoints():
    for cfg in (hand_built_cusp(), hand_built_node()):
        mults = {d.id: d.mult for d in cfg.divisors}
        for i, j, pm in pair_multiplicities(cfg):
            assert pm > max(mults[i], mults[j])


def test_dual_complex_point_case():
    cfg = SncConfiguration(
        ambient_dim=1, divisors=(Divisor(0, "o", 4, 1, False, True),)
    )
    assert pair_multiplicities(cfg) == []


def test_dual_complex_rebuild_is_identical():
    cfg = hand_built_cusp()
    assert pair_multiplicities(cfg) == pair_multiplicities(cfg)


def test_euler_open_stratum_examples():
    cusp = hand_built_cusp()
    assert euler_open_stratum(cusp, 2) == -1  # sphere minus three points
    assert euler_open_stratum(cusp, 0) == 1
    node = hand_built_node()
    assert euler_open_stratum(node, 0) == 0  # twice punctured sphere
    point = SncConfiguration(ambient_dim=1, divisors=(Divisor(0, "o", 5, 1, False, True),))
    assert euler_open_stratum(point, 0) == 1


def test_euler_open_stratum_higher_dim_needs_data():
    cfg = SncConfiguration(
        ambient_dim=3,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, euler_open=4, cover_betti=(2, 0, 2)),
            Divisor(1, "F", 1, 1, False, True),
        ),
    )
    assert euler_open_stratum(cfg, 0) == 4
    with pytest.raises(UnsupportedDimensionError):
        euler_open_stratum(cfg, 1)


def test_puncture_double_counting_identity():
    # each intersection point is removed from exactly two curve strata
    for cfg in (hand_built_cusp(), hand_built_node()):
        chi_sum = sum(euler_open_stratum(cfg, d.id) for d in cfg.divisors)
        points = sum(c.count for c in cfg.cells)
        compact = sum(2 - 2 * d.genus for d in cfg.divisors)
        assert chi_sum + 2 * points == compact


def test_configuration_json_roundtrip():
    for cfg in (hand_built_cusp(), hand_built_node()):
        again = SncConfiguration.from_json_dict(cfg.to_json_dict())
        assert again == cfg


def test_lookups_by_id_match_a_linear_scan():
    from contactloci.errors import DomainError
    from contactloci.spectral import E1Page, PageEntry

    twin = Divisor(1, "E2 twin", 9, 9, True, True, 0, -1)
    cfg = SncConfiguration(2, hand_built_cusp().divisors + (twin,))
    for i in range(-1, 6):
        scan = [d for d in cfg.divisors if d.id == i]  # the first of equal ids wins
        if scan:
            assert cfg.divisor(i) is scan[0]
        else:
            with pytest.raises(DomainError, match=f"no divisor with id {i}"):
                cfg.divisor(i)

    sep, _ = separate(resolve_plane_curve("x^2 + y^4")[0], 12)  # has a count-2 cell
    repeated = SncConfiguration(2, sep.divisors, sep.cells + (IntersectionCell((2, 2)),))
    for c in (sep, repeated):
        for i in range(-1, len(c.divisors) + 1):
            assert c.cells_containing(i) == tuple(cell for cell in c.cells if i in cell.ids)

    w = WeightVector(((0, 3), (2, 5), (2, 7)))
    assert (w.get(0), w.get(2)) == (3, 5)
    with pytest.raises(DomainError, match="no weight for divisor 1"):
        w.get(1)

    a, b = PageEntry(1), PageEntry(2)
    page = E1Page(1, 2, (((0, 1), a), ((0, 1), b), ((-2, 3), b)))
    assert (page.entry(0, 1), page.entry(-2, 3), page.entry(1, 0)) == (a, b, None)


@pytest.mark.parametrize(
    "text,kind",
    [
        ("null", "null"),
        ("true", "a boolean"),
        ("3", "an integer"),
        ("2.5", "a number"),
        ('"w"', "a string"),
        ("[1, 2]", "a list"),
        ("{}", "an object"),
    ],
)
def test_json_kind_names_each_decoded_kind(text, kind):
    assert json_kind(json.loads(text)) == kind


def test_json_kind_names_other_values_by_type():
    assert json_kind((1, 2)) == "tuple"


# The records are NamedTuples; these pin what they kept of the frozen
# dataclasses they replaced, and that _replace normalises as __new__ does.
E0 = Divisor(0, "E0", 2, 2, genus=0, self_int=-2)
E1 = Divisor(1, "E1", 3, 3, genus=0, self_int=-1)


def test_a_cell_sorts_its_ids_when_built_and_when_replaced():
    cell = IntersectionCell((3, 1), 2)
    assert cell.ids == (1, 3) and cell == IntersectionCell([1, 3], 2, True)
    moved = cell._replace(ids=(5, 2))
    assert moved.ids == (2, 5) and type(moved) is IntersectionCell
    assert cell._replace(count=4) == IntersectionCell((1, 3), 4)


def test_a_configuration_sorts_its_divisors_and_stores_tuples_when_built_and_when_replaced():
    cfg = SncConfiguration(2, [E1, E0], [IntersectionCell((1, 0))])
    assert cfg.divisors == (E0, E1) and cfg.cells == (IntersectionCell((0, 1)),)
    assert type(cfg.divisors) is tuple and type(cfg.cells) is tuple
    assert cfg.divisor(1) is E1 and cfg.min_pair_multiplicity == 5
    again = cfg._replace(divisors=[E1, E0._replace(mult=4)], cells=[])
    assert type(again) is SncConfiguration
    assert again.divisors == (E0._replace(mult=4), E1) and again.cells == ()
    assert type(again.divisors) is tuple and type(again.cells) is tuple
    assert again.divisor(0).mult == 4 and again.min_pair_multiplicity is None


def test_a_polynomial_compares_hashes_and_prints_without_its_multiplicands():
    product, _ = parse_polynomial("x*(x+y)")
    plain = SparsePolynomial.from_terms(2, {(2, 0): 1, (1, 1): 1})
    assert product.multiplicands and not plain.multiplicands
    assert product == plain and not product != plain and hash(product) == hash(plain)
    assert repr(product) == repr(plain) == (
        "SparsePolynomial(nvars=2, terms=(((1, 1), Fraction(1, 1)), ((2, 0), Fraction(1, 1))))"
    )
    assert product != SparsePolynomial.from_terms(2, {(2, 0): 1})


@pytest.mark.parametrize(
    "record,name",
    [
        (E0, "mult"),
        (E0, "extra"),
        (IntersectionCell((0, 1)), "ids"),
        (SncConfiguration(2, (E0,)), "divisors"),
        (SncConfiguration(2, (E0,)), "extra"),
        (SncConfiguration(2, (E0,)), "_by_id"),
        (WeightVector(((0, 1),)), "entries"),
        (WeightVector(((0, 1),)), "_by_id"),
        (SparsePolynomial(1, ()), "terms"),
    ],
)
def test_a_record_refuses_an_assignment(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)


def test_a_divisor_prints_as_the_dataclass_did():
    assert repr(E0) == (
        "Divisor(id=0, label='E0', mult=2, disc=2, exceptional=True, over_sigma=True, genus=0, "
        "self_int=-2, euler_open=None, cover_betti=None, cover_torsion=None)"
    )
