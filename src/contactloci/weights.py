"""Weight vectors making -sum(w_i E_i) relatively ample (curve case).

The filtration columns of the page assembly are p = -w_i k_i, so any
weight tuple with W = -sum w_i E_i relatively ample works.  Ampleness
against every exceptional curve, i.e. strict positivity of -W . E_j for
all exceptional j, is the implementable criterion used here; it is
decided by the dual graph alone, and a suitable positive multiple of any
ample choice is very ample.  Reports produced by the CLI record this
substitution.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import DomainError, NotNegativeDefiniteError, UnsupportedDimensionError
from .model import SncConfiguration, _read_only, json_kind, require_valid

AMPLE_NOTE = (
    "weights certify relative ampleness (strict positivity against every "
    "exceptional curve); very ampleness is obtained by scaling"
)


class _WeightEntries(NamedTuple):
    entries: tuple[tuple[int, int], ...]


class WeightVector(_WeightEntries):
    """Nonnegative integer weights, zero on non-exceptional divisors.  No
    ``__slots__``: ``_by_id`` lives in the instance dict."""

    __setattr__ = _read_only

    @classmethod
    def from_dict(cls, data: Mapping[int, int]) -> "WeightVector":
        return cls(tuple(sorted((int(i), int(w)) for i, w in data.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @cached_property
    def _by_id(self) -> dict[int, int]:
        return dict(reversed(self.entries))  # the first of equal ids wins

    def get(self, i: int) -> int:
        try:
            return self._by_id[i]
        except KeyError:
            raise DomainError(f"no weight for divisor {i}") from None

    def scaled(self, c: int) -> "WeightVector":
        if c < 1:
            raise DomainError("scale factor must be a positive integer")
        return WeightVector(tuple((i, c * w) for i, w in self.entries))

    def to_json_dict(self) -> dict:
        return {str(i): w for i, w in self.entries}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WeightVector":
        if not isinstance(data, Mapping):
            raise DomainError(f"weights must be a JSON object, not {json_kind(data)}")
        seen = set()
        for key, value in data.items():
            if not str(key).removeprefix("-").isdecimal() or type(value) is not int:
                raise DomainError(f"bad weight entry {key!r}: {value!r} (need divisor id: integer)")
            if int(key) in seen:
                raise DomainError(f"weights name divisor {int(key)} twice")
            seen.add(int(key))
        return cls.from_dict(data)


def intersection_matrix(cfg: SncConfiguration) -> list[list[int | None]]:
    """Symmetric intersection matrix over all divisors, indexed by id order.

    Diagonal entries are the self-intersections of exceptional divisors;
    non-exceptional diagonal entries are unknown and left as None (those
    rows enter the ampleness constraints only off-diagonally).  Off
    diagonal entries are the numbers of intersection points.
    """
    require_valid(cfg)
    if cfg.ambient_dim != 2:
        raise UnsupportedDimensionError("intersection matrices are a curve-case notion here")
    ids = [d.id for d in cfg.divisors]
    pos = {i: n for n, i in enumerate(ids)}
    size = len(ids)
    matrix: list[list[int | None]] = [[0] * size for _ in range(size)]
    for d in cfg.divisors:
        matrix[pos[d.id]][pos[d.id]] = d.self_int if d.exceptional else None
    for cell in cfg.cells:
        i, j = cell.ids
        matrix[pos[i]][pos[j]] += cell.count  # type: ignore[operator]
        matrix[pos[j]][pos[i]] += cell.count  # type: ignore[operator]
    return matrix


def _exceptional_rows(cfg: SncConfiguration) -> dict[int, dict[int, int]]:
    """-M on the exceptional divisors as sparse rows {i: {j: -(E_i . E_j)}}."""
    rows = {d.id: {d.id: -d.self_int} for d in cfg.divisors if d.exceptional}
    for cell in cfg.cells:
        i, j = cell.ids
        if i in rows and j in rows:
            rows[i][j] = rows[i].get(j, 0) - cell.count
            rows[j][i] = rows[j].get(i, 0) - cell.count
    return rows


def _solve_positive_definite(rows: Mapping[int, Mapping[int, int]]) -> dict[int, int | Fraction] | None:
    """x = A^-1 . 1 for a symmetric A given as sparse rows with their
    diagonal, or None when A is not positive definite (some pivot <= 0).

    Fraction-free elimination over the integers in minimum-degree order,
    ties broken by id: on a tree this removes leaves first with no
    fill-in.  Eliminating k replaces each neighbour row i (right-hand side
    included) by pivot * row_i - a_ik * row_k and divides it by its
    content.  Each row is then a positive multiple of the row that exact
    rational elimination gives, so the pivots keep their signs.  The
    back-substitution leaves an entry an int when its pivot divides it, as
    it always does on the unimodular matrices of point blowups, and makes
    it a Fraction otherwise."""
    rest = {i: dict(row) for i, row in rows.items()}
    rhs = dict.fromkeys(rest, 1)
    heap = sorted((len(row) - 1, i) for i, row in rest.items())
    eliminated = []
    while heap:
        degree, k = heapq.heappop(heap)
        if k not in rest or len(rest[k]) - 1 != degree:
            continue  # stale entry: k is gone or its degree changed since
        row = rest.pop(k)
        pivot = row.pop(k)
        if pivot <= 0:
            return None
        for i in row:
            row_i = rest[i]
            a_ik = row_i.pop(k)
            for j in row_i:
                row_i[j] *= pivot
            for j, a_kj in row.items():
                row_i[j] = row_i.get(j, 0) - a_ik * a_kj
            rhs_i = pivot * rhs[i] - a_ik * rhs[k]
            content = math.gcd(rhs_i, *row_i.values())
            if content > 1:
                for j in row_i:
                    row_i[j] //= content
                rhs_i //= content
            rhs[i] = rhs_i
            heapq.heappush(heap, (len(row_i) - 1, i))
        eliminated.append((k, pivot, row))
    x: dict[int, int | Fraction] = {}
    for k, pivot, row in reversed(eliminated):
        v = rhs[k] - sum(a_kj * x[j] for j, a_kj in row.items())
        x[k] = v // pivot if type(v) is int and not v % pivot else Fraction(v, pivot)
    return x


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Whether a symmetric matrix is negative definite (every pivot of -matrix > 0)."""
    rows = {a: {b: -v for b, v in enumerate(row) if v or a == b} for a, row in enumerate(matrix)}
    return _solve_positive_definite(rows) is not None


def validate_weights(cfg: SncConfiguration, w: WeightVector) -> bool:
    """One weight per divisor and none elsewhere, nonnegative, zero on
    non-exceptional divisors, and (curve case) strictly positive against
    every exceptional curve."""
    values = w.as_dict()
    if len(values) != len(w.entries):  # a divisor named twice
        return False
    if values.keys() != {d.id for d in cfg.divisors} or any(v < 0 for v in values.values()):
        return False
    if any(values[d.id] != 0 for d in cfg.divisors if not d.exceptional):
        return False
    if cfg.ambient_dim != 2 or not cfg.exceptional_ids():
        return True
    # -sum_i w_i (E_i . E_j) for each exceptional j: the weights vanish off
    # the exceptional divisors, so the rows of -M give the whole pairing
    require_valid(cfg)
    rows = _exceptional_rows(cfg).values()
    return all(sum(a_ji * values[i] for i, a_ji in row.items()) > 0 for row in rows)


def solve_weights(cfg: SncConfiguration) -> WeightVector:
    """The least integers w >= 1 on the exceptional divisors with
    -sum_i w_i (E_i . E_j) > 0 for every exceptional j, and 0 elsewhere.

    One sparse elimination of A = -M, M the exceptional intersection
    matrix, decides that M is negative definite (as over a point cluster)
    and gives x = A^-1 . 1.  A is then a nonsingular M-matrix, so
    A^-1 >= 0 (Berman-Plemmons, Nonnegative Matrices) and every solution
    of A w >= 1 has w = A^-1 (A w) >= x.  Solutions are closed under
    entrywise minimum, so the least one, w*, is >= L = max(1, ceil(x)).
    From L a worklist raises each violated w_j to the least value meeting
    its constraint and requeues its neighbours.  The raises are monotone
    and never pass w*, so they stop at w*, which is also the least fixed
    point of raising violated constraints in any order from w = 1.
    """
    require_valid(cfg)
    if cfg.ambient_dim == 1 or not cfg.exceptional_ids():
        return WeightVector(tuple((d.id, 0) for d in cfg.divisors))
    if cfg.ambient_dim != 2:
        raise UnsupportedDimensionError("weight solving is curve-case; supply weights for ambient_dim >= 3")

    rows = _exceptional_rows(cfg)
    x = _solve_positive_definite(rows)
    if x is None:
        raise NotNegativeDefiniteError(
            "exceptional intersection matrix is not negative definite; "
            "not a resolution over a point cluster"
        )
    w = {i: max(1, math.ceil(v)) for i, v in x.items()}
    work = set(w)
    while work:
        j = work.pop()
        pairing = sum(a_ji * w[i] for i, a_ji in rows[j].items())
        if pairing <= 0:
            w[j] += -pairing // rows[j][j] + 1
            work.update(i for i in rows[j] if i != j)
    return WeightVector(tuple((d.id, w.get(d.id, 0)) for d in cfg.divisors))
