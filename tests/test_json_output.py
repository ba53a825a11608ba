"""The JSON writer behind ``--format json``: the stdlib's indented text,
byte for byte, from one direct writer."""

import enum
import gc
import json
import math
from collections import Counter, OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactloci import cli


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


def test_the_calls_cover_every_subcommand():
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv in _JSON_CALLS) == sorted(commands)


@pytest.mark.parametrize("argv", _JSON_CALLS, ids=[argv[0] for argv in _JSON_CALLS])
def test_every_subcommand_prints_the_stdlib_encoding(monkeypatch, capsys, argv):
    # main hands each result to the writer once, at the outermost indent
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
    assert out == stdlib(data) + "\n"


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
