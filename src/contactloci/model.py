"""Combinatorial model of a simple normal crossing resolution configuration.

A configuration records, for each irreducible component E_i of the total
transform of the zero locus under a log resolution h: Y -> X:

* ``mult``  m_i,  the order of vanishing of f along E_i,
* ``disc``  nu_i, one plus the order of the relative canonical divisor,
* whether the component is h-exceptional,
* whether h(E_i) lies inside the chosen center Sigma,
* in the curve case (ambient dimension 2): the genus and, for exceptional
  components, the self-intersection number,

together with the intersection cells of the configuration (pairs of
components in the curve case, with the number of intersection points).
This is all the data the downstream page assembly needs; no actual
geometry is stored.

The records here and in the other stage modules are ``typing.NamedTuple``
classes: read-only, compared and hashed by value, and changed through
``_replace``.  A NamedTuple body may not define ``__new__``, and its
instances have no dict to cache in, so a record that normalises its
fields in ``__new__`` (``IntersectionCell``, ``SncConfiguration``) or
keeps ``cached_property`` values (``SncConfiguration``,
``weights.WeightVector``) is a subclass of a NamedTuple of its fields.

A record's JSON is its fields in sorted order, with None fields left out,
unless the class defines its own ``to_json_dict``: a class whose JSON is
its fields takes the shared ``to_json_dict`` below, and ``cli._write_json``
writes such a record from its fields without building that dict.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import DomainError, UnsupportedDimensionError, ValidationFailedError

_REQUIRED = object()
_JSON_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a boolean": lambda v: type(v) is bool,
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    "a list of integer lists": lambda v: isinstance(v, list)
    and all(isinstance(row, list) and all(type(x) is int for x in row) for row in v),
}


def json_kind(value) -> str:
    """The kind of a decoded JSON value, named as ``_JSON_KINDS`` names them
    (a value that JSON cannot hold is named by its Python type)."""
    if value is None:
        return "null"
    for kind in ("a boolean", "an integer", "a string", "a list"):
        if _JSON_KINDS[kind](value):
            return kind
    if isinstance(value, float):
        return "a number"
    return "an object" if isinstance(value, Mapping) else type(value).__name__


def _json_field(data, key: str, kind: str, what: str, default=_REQUIRED):
    """data[key] if it is of the named JSON kind, else a DomainError naming
    the key; a missing key (or a null one, where the default is None) gives
    the default when there is one."""
    if not isinstance(data, Mapping):
        raise DomainError(f"{what} must be a JSON object, not {json_kind(data)}")
    if key not in data or (data[key] is None and default is None):
        if default is _REQUIRED:
            raise DomainError(f"{what}: missing key {key!r}")
        return default
    value = data[key]
    if not _JSON_KINDS[kind](value):
        raise DomainError(f"{what}: key {key!r} must be {kind}, not {value!r}")
    return value


def to_json_dict(record) -> dict:
    """A record's fields by name as plain JSON data: None fields left out,
    tuples as lists and records as their own ``to_json_dict``."""
    return {name: _plain(value) for name, value in zip(record._fields, record) if value is not None}


def _plain(value):
    if isinstance(value, tuple):
        own = getattr(value, "to_json_dict", None)
        return own() if own is not None else [_plain(item) for item in value]
    return value


class Divisor(NamedTuple):
    """One irreducible component of the resolved zero locus.

    ``cover_betti``/``cover_torsion`` and ``euler_open`` carry user supplied
    topological data for components whose open stratum is not determined by
    the dual graph (genus > 0 or ambient dimension >= 3).
    """

    id: int
    label: str
    mult: int
    disc: int
    exceptional: bool = True
    over_sigma: bool = True
    genus: int | None = None
    self_int: int | None = None
    euler_open: int | None = None
    cover_betti: tuple[int, ...] | None = None
    cover_torsion: tuple[tuple[int, ...], ...] | None = None

    to_json_dict = to_json_dict

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Divisor":
        i = _json_field(data, "id", "an integer", "divisor")
        what = f"divisor {i}"
        betti = _json_field(data, "cover_betti", "a list of integers", what, None)
        torsion = _json_field(data, "cover_torsion", "a list of integer lists", what, None)
        return cls(
            id=i,
            label=_json_field(data, "label", "a string", what),
            mult=_json_field(data, "mult", "an integer", what),
            disc=_json_field(data, "disc", "an integer", what),
            exceptional=_json_field(data, "exceptional", "a boolean", what, True),
            over_sigma=_json_field(data, "over_sigma", "a boolean", what, True),
            genus=_json_field(data, "genus", "an integer", what, None),
            self_int=_json_field(data, "self_int", "an integer", what, None),
            euler_open=_json_field(data, "euler_open", "an integer", what, None),
            cover_betti=None if betti is None else tuple(betti),
            cover_torsion=None if torsion is None else tuple(tuple(row) for row in torsion),
        )


def _read_only(self, name, value):
    """``__setattr__`` of a record whose class keeps an instance dict."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")


class _CellFields(NamedTuple):
    ids: tuple[int, ...]
    count: int
    over_sigma: bool


class IntersectionCell(_CellFields):
    """A connected component of an intersection of distinct divisors.

    In the curve case ``ids`` is a pair, kept sorted, and ``count`` is the
    number of (transverse) intersection points it stands for.
    """

    __slots__ = ()

    def __new__(cls, ids, count: int = 1, over_sigma: bool = True):
        return super().__new__(cls, tuple(sorted(ids)), count, over_sigma)

    def _replace(self, **changes):  # the namedtuple _replace skips __new__
        return IntersectionCell(*super()._replace(**changes))

    to_json_dict = to_json_dict

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IntersectionCell":
        return cls(
            ids=tuple(_json_field(data, "ids", "a list of integers", "cell")),
            count=_json_field(data, "count", "an integer", "cell", 1),
            over_sigma=_json_field(data, "over_sigma", "a boolean", "cell", True),
        )


class _SncFields(NamedTuple):
    ambient_dim: int
    divisors: tuple[Divisor, ...]
    cells: tuple[IntersectionCell, ...]
    sigma: str


class SncConfiguration(_SncFields):
    """A resolution configuration over a center Sigma, its divisors sorted
    by id."""

    __setattr__ = _read_only

    def __new__(cls, ambient_dim: int, divisors, cells=(), sigma: str = "origin"):
        divisors = tuple(sorted(divisors, key=lambda d: d.id))
        return super().__new__(cls, ambient_dim, divisors, tuple(cells), sigma)

    def _replace(self, **changes):  # the namedtuple _replace skips __new__
        return SncConfiguration(*super()._replace(**changes))

    @cached_property
    def _by_id(self) -> dict[int, Divisor]:
        return {d.id: d for d in reversed(self.divisors)}  # the first of equal ids wins

    def divisor(self, i: int) -> Divisor:
        try:
            return self._by_id[i]
        except KeyError:
            raise DomainError(f"no divisor with id {i}") from None

    @cached_property
    def _cells_by_id(self) -> dict[int, tuple[IntersectionCell, ...]]:
        index: dict[int, list[IntersectionCell]] = {}
        for cell in self.cells:
            for i in set(cell.ids):
                index.setdefault(i, []).append(cell)
        return {i: tuple(cells) for i, cells in index.items()}

    def cells_containing(self, i: int) -> tuple[IntersectionCell, ...]:
        return self._cells_by_id.get(i, ())

    @cached_property
    def _issues(self) -> tuple["ValidationIssue", ...]:
        """validate_configuration's report, computed once per configuration."""
        return tuple(validate_configuration(self))

    @cached_property
    def min_pair_multiplicity(self) -> int | None:
        """M(Delta), the least m_i + m_j over ``pair_multiplicities``, None
        when no two divisors meet; computed once per configuration."""
        return min((pm for _, _, pm in pair_multiplicities(self)), default=None)

    def puncture_count(self, i: int) -> int:
        """Number of points removed from E_i by the other components."""
        return sum(c.count for c in self.cells_containing(i))

    def adjacent_multiplicities(self, i: int) -> tuple[int, ...]:
        """Multiplicities m_j of components met by E_i, one per cell partner."""
        mults = []
        for cell in self.cells_containing(i):
            for j in cell.ids:
                if j != i:
                    mults.append(self.divisor(j).mult)
        return tuple(sorted(mults))

    def exceptional_ids(self) -> tuple[int, ...]:
        return tuple(d.id for d in self.divisors if d.exceptional)

    to_json_dict = to_json_dict

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SncConfiguration":
        what = "configuration"
        divisors = _json_field(data, "divisors", "a list", what)
        cells = _json_field(data, "cells", "a list", what, [])
        return cls(
            ambient_dim=_json_field(data, "ambient_dim", "an integer", what),
            divisors=tuple(Divisor.from_json_dict(d) for d in divisors),
            cells=tuple(IntersectionCell.from_json_dict(c) for c in cells),
            sigma=_json_field(data, "sigma", "a string", what, "origin"),
        )


class ValidationIssue(NamedTuple):
    subject: str  # "divisor" | "cell" | "configuration"
    subject_id: int | None
    message: str

    def __str__(self):
        where = f"{self.subject} {self.subject_id}" if self.subject_id is not None else self.subject
        return f"{where}: {self.message}"


def validate_configuration(cfg: SncConfiguration) -> list[ValidationIssue]:
    """Check every structural invariant; an empty report means valid.

    Violations are returned as data rather than raised, so that partially
    built configurations can be inspected.
    """
    issues: list[ValidationIssue] = []
    d = cfg.ambient_dim
    if d < 1:
        issues.append(ValidationIssue("configuration", None, "ambient_dim must be >= 1"))

    seen_ids = set()
    for div in cfg.divisors:
        if div.id in seen_ids:
            issues.append(ValidationIssue("divisor", div.id, "duplicate id"))
        seen_ids.add(div.id)
        if div.mult < 1:
            issues.append(ValidationIssue("divisor", div.id, "mult >= 1 required"))
        if div.disc < 1:
            issues.append(ValidationIssue("divisor", div.id, "disc >= 1 required"))
        if not div.exceptional and div.disc != 1:
            issues.append(ValidationIssue("divisor", div.id, "non-exceptional divisors must have disc = 1"))
        if d == 2:
            if div.genus is None:
                issues.append(ValidationIssue("divisor", div.id, "genus required in the curve case"))
            elif div.genus < 0:
                issues.append(ValidationIssue("divisor", div.id, "genus must be nonnegative"))
            if div.exceptional:
                if div.self_int is None:
                    issues.append(ValidationIssue("divisor", div.id, "exceptional curves need a self-intersection"))
                elif div.self_int >= 0:
                    issues.append(
                        ValidationIssue("divisor", div.id, "exceptional curves over a point have self_int < 0")
                    )
        if div.cover_betti is not None:
            if not div.cover_betti or any(b < 0 for b in div.cover_betti):
                issues.append(ValidationIssue("divisor", div.id, "cover_betti must be nonempty and nonnegative"))

    if not any(div.over_sigma for div in cfg.divisors):
        issues.append(ValidationIssue("configuration", None, "no divisor lies over the center (Sigma empty)"))

    if d == 1 and cfg.cells:
        issues.append(ValidationIssue("configuration", None, "point configurations (d = 1) have no cells"))

    for idx, cell in enumerate(cfg.cells):
        if len(cell.ids) < 2 or len(set(cell.ids)) != len(cell.ids):
            issues.append(ValidationIssue("cell", idx, "cell needs >= 2 distinct divisor ids"))
        if d == 2 and len(cell.ids) != 2:
            issues.append(ValidationIssue("cell", idx, "curve-case cells are pairs"))
        if cell.count < 1:
            issues.append(ValidationIssue("cell", idx, "count must be positive"))
        for i in cell.ids:
            if i not in seen_ids:
                issues.append(ValidationIssue("cell", idx, f"unknown divisor id {i}"))
    return issues


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


def require_valid(cfg: SncConfiguration) -> None:
    """Raise on an invalid configuration; each configuration is scanned once."""
    if cfg._issues:
        raise ValidationFailedError(cfg._issues)


def euler_open_stratum(cfg: SncConfiguration, i: int) -> int:
    """Euler characteristic of E_i minus all the other components.

    d = 1: a point, chi = 1.  d = 2: a genus-g curve with one puncture per
    intersection point, chi = (2 - 2g) - punctures.  d >= 3: the value must
    be supplied on the divisor (``euler_open``).
    """
    div = cfg.divisor(i)
    d = cfg.ambient_dim
    if d == 1:
        return 1
    if d == 2:
        if div.genus is None:
            raise DomainError(f"divisor {i} has no genus")
        return (2 - 2 * div.genus) - cfg.puncture_count(i)
    if div.euler_open is None:
        raise UnsupportedDimensionError(
            f"chi of the open stratum of divisor {i} must be supplied for ambient_dim >= 3"
        )
    return div.euler_open
