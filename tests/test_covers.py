import pytest

from contactloci.covers import cover_betti, covers_for
from contactloci.curves import point_configuration, resolve_plane_curve
from contactloci.errors import InconsistentConfigurationError, MissingCoverDataError
from contactloci.model import Divisor, IntersectionCell, SncConfiguration, euler_open_stratum

from conftest import hand_built_cusp, hand_built_node


def test_component_counts_cusp():
    cusp = hand_built_cusp()
    assert cover_betti(cusp, 0).components == 2  # gcd(2, 6)
    assert cover_betti(cusp, 1).components == 3  # gcd(3, 6)
    assert cover_betti(cusp, 2).components == 1  # gcd(6, 2, 3, 1)


def test_component_count_no_punctures():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(Divisor(0, "E", 5, 2, True, True, 0, -1),),
    )
    assert cover_betti(cfg, 0).components == 5
    assert cover_betti(cfg, 0).betti == (5, 0, 5)


def test_cover_betti_cusp():
    cusp = hand_built_cusp()
    assert cover_betti(cusp, 0).betti == (2, 0)
    assert cover_betti(cusp, 1).betti == (3, 0)
    assert cover_betti(cusp, 2).betti == (1, 7)


def test_cover_betti_node():
    node = hand_built_node()
    cover = cover_betti(node, 0)
    assert cover.components == 1
    assert cover.betti == (1, 1)


def test_euler_multiplicativity():
    for cfg in (hand_built_cusp(), hand_built_node()):
        for d in cfg.divisors:
            if not d.over_sigma:
                continue
            cover = cover_betti(cfg, d.id)
            assert cover.euler() == d.mult * euler_open_stratum(cfg, d.id)
            assert d.mult % cover.components == 0


def test_disconnected_cover_of_twice_punctured_stratum():
    # m = 4 with two punctures of multiplicity 2: the monodromies generate
    # the index-2 subgroup, so the cover has two components, each again a
    # twice punctured sphere
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 4, 3, True, True, 0, -1),
            Divisor(1, "A", 2, 1, False, False, 0, None),
            Divisor(2, "B", 2, 1, False, False, 0, None),
        ),
        cells=(
            IntersectionCell((0, 1), 1, True),
            IntersectionCell((0, 2), 1, True),
        ),
    )
    assert cover_betti(cfg, 0).components == 2
    cover = cover_betti(cfg, 0)
    assert cover.betti == (2, 2)
    assert cover.euler() == 4 * euler_open_stratum(cfg, 0) == 0


def test_point_case_cover():
    cfg = point_configuration(4)
    cover = cover_betti(cfg, 0)
    assert cover.betti == (4,)
    assert cover.euler() == 4


def test_one_puncture_consistency_error():
    # a divisor of multiplicity 2 meeting exactly one divisor of odd
    # multiplicity cannot come from a log resolution (the cover of the
    # affine line would be connected and nontrivial)
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, 0, -1),
            Divisor(1, "D", 3, 1, False, False, 0, None),
        ),
        cells=(IntersectionCell((0, 1), 1, True),),
    )
    with pytest.raises(InconsistentConfigurationError):
        cover_betti(cfg, 0)


def test_genus_needs_supplied_data():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(Divisor(0, "E", 2, 2, True, True, genus=1, self_int=-2),),
    )
    with pytest.raises(MissingCoverDataError):
        cover_betti(cfg, 0)


def test_supplied_data_passthrough_and_consistency():
    good = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, genus=1, self_int=-2,
                    cover_betti=(1, 2, 1), cover_torsion=((), (2,))),
        ),
    )
    cover = cover_betti(good, 0)
    assert cover.source == "supplied"
    assert cover.betti == (1, 2, 1)
    assert cover.torsion_in_degree(1) == (2,)
    # chi(cover) = 0 = 2 * chi(torus), consistent

    bad = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E", 2, 2, True, True, genus=0, self_int=-2, cover_betti=(1, 5)),
        ),
    )
    with pytest.raises(InconsistentConfigurationError):
        cover_betti(bad, 0)


def test_covers_for_resolved_curves():
    for text in ("x^2+y^3", "x*y", "x^3+y^4"):
        cfg, _ = resolve_plane_curve(text)
        over = [d.id for d in cfg.divisors if d.over_sigma]
        data = covers_for(cfg, over)
        assert set(data) == set(over)
