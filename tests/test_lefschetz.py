import pytest

from contactloci.curves import point_configuration, resolve_plane_curve
from contactloci.lefschetz import (
    cross_check_euler,
    lefschetz_number,
    zeta_factorization,
)
from contactloci.separation import separate
from contactloci.spectral import e1_page
from contactloci.weights import solve_weights

from conftest import hand_built_cusp, hand_built_node


def test_cusp_lefschetz_sequence():
    cusp = hand_built_cusp()
    assert [lefschetz_number(cusp, m) for m in range(1, 7)] == [0, 2, 3, 2, 0, -1]


def test_node_lefschetz_vanishes():
    node = hand_built_node()
    assert all(lefschetz_number(node, m) == 0 for m in range(1, 9))


def test_power_lefschetz():
    cfg = point_configuration(3)
    assert [lefschetz_number(cfg, m) for m in range(1, 7)] == [0, 0, 3, 0, 0, 3]


def test_lefschetz_depends_only_on_divisibility():
    cusp = hand_built_cusp()
    assert lefschetz_number(cusp, 2) == lefschetz_number(cusp, 4)
    assert lefschetz_number(cusp, 6) == lefschetz_number(cusp, 12)


def test_zeta_cusp():
    zeta = zeta_factorization(hand_built_cusp())
    assert zeta.factors == ((2, -1), (3, -1), (6, 1))
    assert zeta.render() == "(1 - t^6) / (1 - t^2)(1 - t^3)"


def test_zeta_node_trivial():
    zeta = zeta_factorization(hand_built_node())
    assert zeta.factors == ()
    assert zeta.render() == "1"


def test_zeta_power():
    zeta = zeta_factorization(point_configuration(4))
    assert zeta.factors == ((4, -1),)
    assert zeta.render() == "1 / (1 - t^4)"


def test_zeta_invariant_under_extra_blowups():
    # separation is a composition of extra blowups at simple normal
    # crossing points; the monodromy data cannot change
    cfg, _ = resolve_plane_curve("x^2+y^3")
    for m in (7, 9, 12):
        sep, _ = separate(cfg, m)
        assert zeta_factorization(sep) == zeta_factorization(cfg)
        for mm in range(1, 13):
            assert lefschetz_number(sep, mm) == lefschetz_number(cfg, mm)


@pytest.mark.parametrize("m", range(1, 7))
def test_cross_check_cusp(m):
    cusp = hand_built_cusp()
    sep, _ = separate(cusp, m)
    w = solve_weights(sep)
    check = cross_check_euler(e1_page(sep, w, m), cusp)
    assert check.passed
    expected = [0, 2, 3, 2, 0, -1][m - 1]
    assert check.page_euler == expected


def test_cross_check_node_m2():
    node = hand_built_node()
    w = solve_weights(node)
    check = cross_check_euler(e1_page(node, w, 2), node)
    assert check.passed and check.lefschetz == 0


def test_cross_check_json():
    node = hand_built_node()
    w = solve_weights(node)
    data = cross_check_euler(e1_page(node, w, 2), node).to_json_dict()
    assert data["passed"] is True and data["m"] == 2
