"""The JSON writer behind ``--format json``: the stdlib's indented text,
byte for byte, from one direct writer."""

import enum
import gc
import json
import math
import random
from collections import Counter, OrderedDict
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_product_text
from contactloci import cli, covers, curves, jets, lefschetz, model, polys, separation, spectral, weights
from contactloci.covers import covers_for
from contactloci.curves import point_configuration, resolve_plane_curve
from contactloci.jets import verify_chart_fibration
from contactloci.lefschetz import cross_check_euler, zeta_factorization
from contactloci.model import Divisor, SncConfiguration
from contactloci.separation import separate
from contactloci.spectral import contributing_set, degeneration_analysis, e1_page
from contactloci.weights import WeightVector, solve_weights


def write(value) -> str:
    out = []
    cli._write_json(value, out, "\n")
    return "".join(out)


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀'),
    max_size=12,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 300), max_value=10 ** 300)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.inf, -math.inf, math.nan, 5e-324])
    | _TEXT
)
# one key type per dict: the stdlib sorts the keys as they are, before it
# turns them into strings, so mixed str and int keys fail to sort in both
_KEYS = (
    _TEXT,
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        *(st.dictionaries(keys, children, max_size=5) for keys in _KEYS),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_the_writer_matches_the_stdlib_indented_encoding(value):
    assert write(value) == stdlib(value)


@pytest.mark.parametrize("value", [[], {}, (), [[]], {"a": {}}, [(), {}], "", 0, None])
def test_empty_containers_and_bare_scalars(value):
    assert write(value) == stdlib(value)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


class _Items(list):
    pass


# the writer takes a fast path for leaves of exactly int, str, bool and
# None inside a container; subclasses and floats go the stdlib's way
@pytest.mark.parametrize(
    "value",
    [
        _Level.HIGH,
        [_Level.LOW, {"a": _Level.HIGH}],
        {_Level.HIGH: "b", _Level.LOW: "a"},
        _Text("t"),
        [_Text("t\n"), {"a": _Text("é")}],
        {_Text("k"): 1},
        OrderedDict([("b", [1]), ("a", {"c": None})]),
        Counter("abracadabra"),
        _Items([1, "x", None, _Items()]),
        {"a": _Items([_Text("x"), _Level.LOW]), "b": OrderedDict()},
        [True, False, None, [None], [True]],
        {"a": True, "b": False, "c": None, "d": [False]},
        [math.nan, math.inf, -math.inf, -0.0, 0.5],
        {"a": math.nan, "b": math.inf, "c": -math.inf, "d": -0.0},
    ],
    ids=repr,
)
def test_subclasses_literals_and_special_floats(value):
    assert write(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        Fraction(1, 2),
        {1, 2},
        frozenset(),
        b"bytes",
        object(),
        [1, {"a": Fraction(3)}],
        {"a": [{2}]},
        {(1, 2): 3},  # a key the stdlib refuses
        {1: "a", "b": 2},  # keys that do not sort
        {Fraction(1): 0},
    ],
)
def test_values_json_cannot_hold_are_type_errors(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        write(value)


_JSON_CALLS = [
    ["validate", "--poly", "x^2+y^3"],
    ["resolve", "--poly", "x^2+y^3"],
    ["separate", "--poly", "x^2+y^3", "--m", "3"],
    ["weights", "--poly", "x^2+y^3", "--m", "3"],
    ["e1", "--poly", "x^2+y^3", "--m", "3"],
    ["hc", "--poly", "x^2+y^3", "--m", "3", "--gap-analysis"],  # int keys
    ["mclean", "--poly", "x^2+y^3", "--m", "3"],
    ["zeta", "--poly", "x^2+y^3"],
    ["lefschetz", "--poly", "x^2+y^3", "--m", "3"],
    ["check-euler", "--poly", "x^2+y^3", "--m", "3"],
    ["oracle-count", "--poly", "x^2+y^3", "--m", "2", "--q", "5", "--strata"],  # a float
    ["oracle-chi", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7"],
    ["verify-fibration", "--m", "2", "--level", "2", "--q", "3"],
    ["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7,11"],
]


def plain(value):
    """``value`` with every record replaced by its ``to_json_dict()``."""
    if isinstance(value, tuple) and hasattr(value, "to_json_dict"):
        return plain(value.to_json_dict())
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def test_the_calls_cover_every_subcommand():
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv in _JSON_CALLS) == sorted(commands)


@pytest.mark.parametrize("argv", _JSON_CALLS, ids=[argv[0] for argv in _JSON_CALLS])
def test_every_subcommand_prints_the_stdlib_encoding(monkeypatch, capsys, argv):
    # main hands each result to the writer once, at the outermost indent;
    # it may hold records, whose JSON is their to_json_dict()
    emitted = []
    write_json = cli._write_json

    def recording_write_json(value, out, indent):
        if indent == "\n":
            emitted.append(value)
        write_json(value, out, indent)

    monkeypatch.setattr(cli, "_write_json", recording_write_json)
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    (data,) = emitted
    assert out == stdlib(plain(data)) + "\n"


def test_one_emit_leaves_no_reference_cycle(capsys):
    # a writer that recurses through a closure keeps each call's pieces
    # alive in a cycle until the cyclic collector runs
    data = {"a": [1, {"b": [2, 3], "c": ()}], "d": {"e": "f", "g": [[[]]]}}
    command = cli.build_parser().commands["zeta"]
    func = command.get_default("func")
    command.set_defaults(func=lambda args: (data, "", 0))
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["zeta", "--poly", "x", "--format", "json"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
        command.set_defaults(func=func)
    assert capsys.readouterr().out == stdlib(data) + "\n"


# ---------------------------------------------------------------------------
# records written from their fields

FIELD_RECORDS = {
    cls
    for module in (model, covers, jets, lefschetz, separation, spectral, weights, polys, curves)
    for cls in vars(module).values()
    if isinstance(cls, type) and getattr(cls, "to_json_dict", None) is model.to_json_dict
}


def _pipeline_records(cfg, m, w=None):
    """Every record of fields that the pipeline builds for ``cfg`` at
    ``m``, with the solver's weights unless ``w`` is given."""
    sep, subdivisions = separate(cfg, m)
    w = w or solve_weights(sep)
    cover_data = covers_for(sep, contributing_set(sep, w, m).ids())
    page = e1_page(sep, w, m, cover_data)
    hc = degeneration_analysis(page)
    return [
        cfg,
        sep,
        *sep.divisors,
        *sep.cells,
        *subdivisions,
        *(cover_data[i] for i in sorted(cover_data)),
        hc,
        *hc.statuses,
        zeta_factorization(cfg),
        cross_check_euler(page, cfg),
    ]


def _field_records_by_depth(value, depth, seen):
    if type(value) in FIELD_RECORDS:
        seen.add((type(value), depth))
    if isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            _field_records_by_depth(item, depth + 1, seen)


def _is_plain_json(value) -> bool:
    if isinstance(value, dict):
        return all(type(k) is str and _is_plain_json(v) for k, v in value.items())
    if type(value) is list:
        return all(_is_plain_json(item) for item in value)
    return value is None or type(value) in (str, int, bool)


def test_records_of_fields_are_written_as_their_json():
    rng = random.Random(20261021)
    germs = [random_product_text(rng)[0] for _ in range(12)]
    for _ in range(12):
        germs.append(f"x^{rng.randint(2, 6)} {rng.choice('+-')} {rng.randint(1, 3)}*y^{rng.randint(2, 7)}")
    records = []
    for germ in germs:
        cfg, _ = resolve_plane_curve(germ)
        records += _pipeline_records(cfg, rng.randint(1, 8))
    records += _pipeline_records(point_configuration(3), 6)  # genus and self_int None
    records += _pipeline_records(
        SncConfiguration(
            ambient_dim=3,
            divisors=(
                Divisor(0, "E", 2, 3, True, True, euler_open=2, cover_betti=(2, 0, 2),
                        cover_torsion=((), (3,))),
            ),
        ),
        2,
        WeightVector.from_dict({0: 1}),  # the solver is curve-case only
    )
    records += [verify_chart_fibration(m, m, 3) for m in (1, 2)]
    assert {type(r) for r in records} == FIELD_RECORDS
    assert len(FIELD_RECORDS) == 10
    cli._layout.cache_clear()
    for record in records:
        assert _is_plain_json(record.to_json_dict())
        assert write(record) == stdlib(record.to_json_dict())
    nested = {"all": records}
    assert write(nested) == stdlib(plain(nested))
    # one layout per record class and depth, whatever the values written
    seen = set()
    for value in [*records, nested]:
        _field_records_by_depth(value, 0, seen)
    assert cli._layout.cache_info().currsize == len(seen)


class _Optional(NamedTuple):
    first: int | None = None
    second: tuple | None = None

    to_json_dict = model.to_json_dict


@pytest.mark.parametrize("record", [_Optional(), _Optional(second=(1, ())), _Optional(3)], ids=repr)
def test_a_record_leaves_out_its_none_fields(record):
    for value in (record, [record], {"a": [record, _Optional(2)]}):
        assert write(value) == stdlib(plain(value))
