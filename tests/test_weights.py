import heapq
import random
from fractions import Fraction

import pytest

from contactloci.curves import resolve_plane_curve
from contactloci.errors import DomainError, NotNegativeDefiniteError, ResourceLimitError
from contactloci.model import Divisor, IntersectionCell, SncConfiguration
from contactloci.separation import separate
from contactloci.weights import (
    WeightVector,
    _exceptional_rows,
    _solve_positive_definite,
    intersection_matrix,
    is_negative_definite,
    solve_weights,
    validate_weights,
)

from conftest import hand_built_cusp, hand_built_node


def test_intersection_matrix_cusp():
    cfg = hand_built_cusp()
    matrix = intersection_matrix(cfg)
    # id order: E1, E2, E3, D
    assert [matrix[i][i] for i in range(3)] == [-3, -2, -1]
    assert matrix[3][3] is None
    assert matrix[0][2] == matrix[2][0] == 1
    assert matrix[1][2] == 1 and matrix[0][1] == 0
    assert matrix[2][3] == 1


def test_intersection_matrix_node_and_singleton():
    matrix = intersection_matrix(hand_built_node())
    assert matrix[0][0] == -1 and matrix[0][1] == 1 and matrix[0][2] == 1
    single = SncConfiguration(
        ambient_dim=2,
        divisors=(Divisor(0, "E", 2, 2, True, True, 0, -1),),
    )
    assert intersection_matrix(single) == [[-1]]


def test_negative_definiteness():
    assert is_negative_definite([[-1]])
    assert is_negative_definite([[-3, 1], [1, -1]])  # det 2 > 0
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[-1, 2], [2, -1]])  # det -3 < 0


def test_solve_weights_cusp_fixed_point():
    cfg = hand_built_cusp()
    w = solve_weights(cfg)
    assert w.as_dict() == {0: 4, 1: 6, 2: 11, 3: 0}
    assert validate_weights(cfg, w)


def test_solve_weights_node():
    cfg = hand_built_node()
    w = solve_weights(cfg)
    assert w.as_dict() == {0: 1, 1: 0, 2: 0}
    assert validate_weights(cfg, w)


def test_identity_resolution_gets_zero_weights():
    from contactloci.curves import point_configuration

    cfg = point_configuration(4)
    w = solve_weights(cfg)
    assert w.as_dict() == {0: 0}
    assert validate_weights(cfg, w)


def test_validate_weights_examples():
    cfg = hand_built_cusp()
    assert validate_weights(cfg, WeightVector.from_dict({0: 4, 1: 6, 2: 11, 3: 0}))
    # boundary case: 3*2 - 6 = 0 is not strictly positive
    assert not validate_weights(cfg, WeightVector.from_dict({0: 2, 1: 3, 2: 6, 3: 0}))
    assert not validate_weights(cfg, WeightVector.from_dict({0: 0, 1: 0, 2: 0, 3: 0}))
    # nonzero weight on a non-exceptional divisor is rejected
    assert not validate_weights(cfg, WeightVector.from_dict({0: 4, 1: 6, 2: 11, 3: 1}))
    # negative weights are rejected
    assert not validate_weights(cfg, WeightVector.from_dict({0: -4, 1: 6, 2: 11, 3: 0}))


def test_validate_weights_rejects_a_divisor_named_twice():
    # as_dict keeps the last of equal ids and get the first, so a repeated
    # id would let the page read a weight the check never saw
    sep, _ = separate(hand_built_cusp(), 2)
    w = solve_weights(sep)
    twice = WeightVector(((0, -50),) + w.entries)
    assert twice.as_dict() == w.as_dict() and twice.get(0) == -50
    assert validate_weights(sep, w)
    assert not validate_weights(sep, twice)


@pytest.mark.parametrize("c", [2, 3])
def test_scaling_preserves_validity(c):
    for cfg in (hand_built_cusp(), hand_built_node()):
        w = solve_weights(cfg)
        assert validate_weights(cfg, w.scaled(c))


def test_not_negative_definite_raises():
    cfg = SncConfiguration(
        ambient_dim=2,
        divisors=(
            Divisor(0, "E1", 1, 2, True, True, 0, -1),
            Divisor(1, "E2", 1, 2, True, True, 0, -1),
        ),
        cells=(
            # two curves meeting twice: the matrix [[-1, 2], [2, -1]] has det -3
            IntersectionCell((0, 1), 2, True),
        ),
    )
    with pytest.raises(NotNegativeDefiniteError):
        solve_weights(cfg)


@pytest.mark.parametrize("text,m", [("x^2+y^3", 7), ("x*y", 4), ("x^3+y^4", 9), ("x^2+y^5", 12)])
def test_solver_output_validates_on_separated_configurations(text, m):
    cfg, _ = resolve_plane_curve(text)
    sep, _ = separate(cfg, m)
    w = solve_weights(sep)
    assert validate_weights(sep, w)


def test_weight_json_roundtrip():
    w = WeightVector.from_dict({0: 4, 1: 6, 2: 11, 3: 0})
    assert WeightVector.from_json_dict(w.to_json_dict()) == w


def test_weight_json_rejects_malformed_entries():
    for data in ([1], "4", {"0": "a"}, {"a": 1}, {"--1": 1}, {"0": 1.5}, {"0": True}):
        with pytest.raises(DomainError):
            WeightVector.from_json_dict(data)


def test_cusp_m48_solves_without_a_step_cap():
    cfg, _ = resolve_plane_curve("x^2+y^3")
    sep, _ = separate(cfg, 48)
    w = solve_weights(sep)
    assert validate_weights(sep, w)


# References: the Sylvester-minor test and the lowest-violated-first
# fixed-point loop that the elimination-based solver replaced.  Both are
# dense and slow; the tests below pin the solver to them.


def reference_leading_minors(matrix: list[list[int]]) -> list[Fraction]:
    """Determinants of the leading principal minors, by exact elimination."""
    minors = []
    n = len(matrix)
    for k in range(n):
        block = [[Fraction(matrix[a][b]) for b in range(k + 1)] for a in range(k + 1)]
        det = Fraction(1)
        for col in range(k + 1):
            pivot_row = next((r for r in range(col, k + 1) if block[r][col]), None)
            if pivot_row is None:
                det = Fraction(0)
                break
            if pivot_row != col:
                block[col], block[pivot_row] = block[pivot_row], block[col]
                det = -det
            det *= block[col][col]
            for r in range(col + 1, k + 1):
                factor = block[r][col] / block[col][col]
                if factor:
                    block[r] = [x - factor * y for x, y in zip(block[r], block[col])]
        minors.append(det)
    return minors


def reference_is_negative_definite(matrix: list[list[int]]) -> bool:
    """Sylvester's criterion: (-1)^k det_k > 0 for every leading minor."""
    return all((-1) ** k * det > 0 for k, det in enumerate(reference_leading_minors(matrix), start=1))


def reference_solve_weights(cfg: SncConfiguration, *, check_definite: bool = True) -> WeightVector:
    """Start at w = 1 and raise the lowest-id violated constraint to the
    least value satisfying it, until none is violated."""
    if not cfg.exceptional_ids():
        return WeightVector(tuple((d.id, 0) for d in cfg.divisors))
    matrix = intersection_matrix(cfg)
    keep = [n for n, d in enumerate(cfg.divisors) if d.exceptional]
    exc_ids = [cfg.divisors[n].id for n in keep]
    sub = [[int(matrix[a][b]) for b in keep] for a in keep]
    if check_definite and not reference_is_negative_definite(sub):
        raise NotNegativeDefiniteError("reference: not negative definite")
    w = {d.id: (1 if d.exceptional else 0) for d in cfg.divisors}
    pos = {i: n for n, i in enumerate(exc_ids)}
    for _ in range(100_000):
        violated = None
        for j in exc_ids:
            pairing = -sum(sub[pos[i]][pos[j]] * w[i] for i in exc_ids)
            if pairing <= 0:
                violated = j
                break
        if violated is None:
            return WeightVector(tuple(sorted(w.items())))
        j = violated
        self_int = sub[pos[j]][pos[j]]
        off = sum(sub[pos[i]][pos[j]] * w[i] for i in exc_ids if i != j)
        w[j] = off // (-self_int) + 1
    raise ResourceLimitError("reference weight loop did not converge")


LADDER_FAMILIES = ("x^2+y^3", "x^2+y^5", "x*y", "x^3+y^4", "x^2*y+y^4", "(x^2-y^3)*(x^3-y^2)")


@pytest.mark.parametrize("text", LADDER_FAMILIES)
def test_solver_matches_reference_loop_on_germ_families(text):
    cfg, _ = resolve_plane_curve(text)
    for m in range(1, 13):
        sep, _ = separate(cfg, m)
        # every resolution over a point is negative definite; the random
        # cases below compare the definiteness decisions themselves
        assert solve_weights(sep) == reference_solve_weights(sep, check_definite=False), (text, m)
        # point blowups give a unimodular matrix, so x = A^-1 . 1 stays in ints
        x = _solve_positive_definite(_exceptional_rows(sep))
        assert all(type(v) is int for v in x.values()), (text, m)


def random_configuration(rng: random.Random) -> SncConfiguration:
    """Up to six exceptional curves on a random multigraph with count-1 and
    count-2 cells (cycles allowed), plus one strict transform."""
    n = rng.randint(1, 6)
    divisors = [Divisor(i, f"E{i}", 1, 2, True, True, 0, -rng.randint(1, 5)) for i in range(n)]
    divisors.append(Divisor(n, "D", 1, 1, False, False, 0, None))
    cells = [
        IntersectionCell((i, j), rng.choice((1, 1, 2)), True)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    cells.append(IntersectionCell((rng.randrange(n), n), 1, False))
    return SncConfiguration(ambient_dim=2, divisors=tuple(divisors), cells=tuple(cells))


def test_solver_matches_reference_on_random_multigraphs():
    rng = random.Random(20191118)
    solved = rejected = cyclic = 0
    for _ in range(300):
        cfg = random_configuration(rng)
        try:
            expected = reference_solve_weights(cfg)
        except NotNegativeDefiniteError:
            with pytest.raises(NotNegativeDefiniteError):
                solve_weights(cfg)
            rejected += 1
            continue
        assert solve_weights(cfg) == expected, cfg
        solved += 1
        exc_cells = [c for c in cfg.cells if c.over_sigma]
        # at least as many intersection points as curves: the multigraph has a cycle
        cyclic += sum(c.count for c in exc_cells) >= len(cfg.exceptional_ids())
    assert solved >= 100 and rejected >= 50 and cyclic >= 20, (solved, rejected, cyclic)


def test_negative_definiteness_matches_sylvester():
    rng = random.Random(1911)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        matrix = [[0] * n for _ in range(n)]
        for a in range(n):
            matrix[a][a] = rng.randint(-6, 2)
            for b in range(a):
                matrix[a][b] = matrix[b][a] = rng.choice((0, 0, rng.randint(-3, 3)))
        verdict = is_negative_definite(matrix)
        assert verdict == reference_is_negative_definite(matrix), matrix
        verdicts.add(verdict)
    assert verdicts == {True, False}


def reference_solve_positive_definite(rows, fill=None):
    """The elimination in Fractions that the fraction-free one replaced:
    x = A^-1 . 1, or None when a pivot is <= 0.  ``fill``, when given,
    collects the entries the elimination creates."""
    rest = {i: {j: Fraction(v) for j, v in row.items()} for i, row in rows.items()}
    rhs = {i: Fraction(1) for i in rest}
    heap = sorted((len(row) - 1, i) for i, row in rest.items())
    eliminated = []
    while heap:
        degree, k = heapq.heappop(heap)
        if k not in rest or len(rest[k]) - 1 != degree:
            continue
        row = rest.pop(k)
        pivot = row.pop(k)
        if pivot <= 0:
            return None
        for i, a_ik in row.items():
            del rest[i][k]
            factor = a_ik / pivot
            rhs[i] -= factor * rhs[k]
            for j, a_kj in row.items():
                if fill is not None and j not in rest[i]:
                    fill.append((i, j))
                rest[i][j] = rest[i].get(j, 0) - factor * a_kj
            heapq.heappush(heap, (len(rest[i]) - 1, i))
        eliminated.append((k, pivot, row))
    x = {}
    for k, pivot, row in reversed(eliminated):
        x[k] = (rhs[k] - sum(a_kj * x[j] for j, a_kj in row.items())) / pivot
    return x


def random_sparse_rows(rng):
    """A random symmetric n x n matrix, n <= 12, as sparse rows with their
    diagonal: diagonal entries of 1..20 (a few <= 0) and off-diagonal
    entries of -4..4 on a random share of the pairs."""
    n, density = rng.randint(1, 12), rng.uniform(0.1, 0.5)
    rows = {i: {i: rng.choice([rng.randint(1, 20)] * 15 + [rng.randint(-2, 0)])} for i in range(n)}
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return rows


def test_fraction_free_elimination_matches_the_fraction_one():
    rng = random.Random(20191119)
    definite = indefinite = with_fill = 0
    for _ in range(800):
        rows = random_sparse_rows(rng)
        fill = []
        expected = reference_solve_positive_definite(rows, fill)
        got = _solve_positive_definite(rows)
        assert got == expected, rows
        if got is None:
            indefinite += 1
            continue
        assert all(type(v) in (int, Fraction) for v in got.values()), rows
        definite += 1
        with_fill += bool(fill)
    assert definite >= 300 and indefinite >= 300 and with_fill >= 40, (definite, indefinite, with_fill)
