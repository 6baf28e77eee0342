"""The JSON renderer against ``json.dumps(indent=2, sort_keys=True)``."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gpw.reports import Records, _json, render

_awkward = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", "\ud800"])
_text = st.lists(_awkward | st.characters(), max_size=6).map("".join)
_ints = (
    st.integers(-5, 5)
    | st.integers(-(2**70), 2**70)
    | st.integers(2**63, 2**80)
    | st.integers(-(2**80), -(2**63))
)
_scalars = st.none() | st.booleans() | _ints | _text
_values = st.recursive(
    _scalars | st.lists(_ints | st.booleans(), max_size=5),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    ),
    max_leaves=25,
)


# lists of records that share their keys, each key's values of one kind, so
# that whole columns take the column renderer's ways; now and then a record
# with other keys
_keys = st.sampled_from(["%", "%s", "%%", "%(a)s", "é", 'k"', "a", "b", ""]) | _text
_table_ints = st.integers(0, 1023) | st.integers(1020, 1030) | st.integers(-3, 3) | _ints
_int_lists = st.lists(_table_ints, max_size=4)
_column_kinds = st.sampled_from(
    [
        _table_ints,
        st.integers(0, 1023),
        st.lists(_table_ints, min_size=1, max_size=4),
        st.lists(_table_ints, min_size=1, max_size=4).map(tuple),
        _int_lists | _int_lists.map(tuple),
        st.lists(_int_lists, max_size=3),
        st.booleans() | _table_ints,
        st.none() | _text,
        _text,
        _scalars | _int_lists,
    ]
)


@st.composite
def _records(draw, depth=0):
    keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    kinds = [draw(_column_kinds) for _ in keys]
    if depth < 1 and draw(st.booleans()):
        kinds[0] = _records(depth + 1)
    rows = [{k: draw(kind) for k, kind in zip(keys, kinds)} for _ in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 3)) == 0:
        other = st.dictionaries(_keys, _scalars | _int_lists, max_size=3)
        rows.insert(draw(st.integers(0, len(rows))), draw(other))
    return rows


@st.composite
def _records_as_columns(draw):
    keys = draw(st.lists(_keys, max_size=4, unique=True))
    rows = draw(st.integers(0, 4))
    width = draw(st.integers(1, 3))
    one_width = st.lists(_table_ints, min_size=width, max_size=width)
    kinds = [
        _table_ints,
        st.sampled_from([True, False, -1, 1023, 1024, 2**70]) | _table_ints,
        one_width,
        one_width.map(tuple),
        _int_lists,
        _text,
        st.none() | _text,
        _scalars | _int_lists,
    ]
    columns = [
        draw(st.lists(draw(st.sampled_from(kinds)), min_size=rows, max_size=rows)) for _ in keys
    ]
    return Records(tuple(keys), tuple(columns))


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_renderer_matches_json_dumps(value):
    assert _json(value, "") == _reference(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_text, _values, max_size=4))
def test_render_matches_json_dumps_plus_newline(payload):
    assert render(payload, True) == _reference(payload) + "\n"


@settings(max_examples=400, deadline=None)
@given(_records())
def test_column_renderer_matches_json_dumps_on_shared_key_records(records):
    assert _json(records, "") == _reference(records)
    assert _json({"%s": records}, "    ") == _reference({"%s": records}).replace("\n", "\n    ")


@settings(max_examples=400, deadline=None)
@given(_records_as_columns())
@example(Records((), ()))
@example(Records(("a", "%s"), ([], [])))
@example(Records(("n", 'k"'), ([True, -1, 1023, 1024, 2**70], [[1, 2], [], (3,), [4, 5], [-6]])))
def test_records_render_as_the_list_of_their_rows(records):
    rows = [dict(zip(records.keys, row)) for row in zip(*records.columns)]
    for pad in ("", "    "):
        assert _json(records, pad) == _reference(rows).replace("\n", "\n" + pad)
    if not rows:
        assert _json(records, "") == "[]"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [True, 1, False, 0, None],
        [[1, 2], (3, -4), [], {}],
        {"z": -(2**64), "a": 2**64, "é": "\\\"", "": None},
        # handed to json.dumps: floats and keys that are not str
        {"x": 1.5, "y": [0.25, float("inf")], "n": {2: "two", 1: "one"}},
        {True: 1, False: [1, {"k": 2}]},
        # columns: the small-int table's edges, bools among ints, % in keys
        [0, 1023, 1024, -1, 2**63],
        [[0, 1023], (1024,), [-1, 2**64]],
        [[1], []],
        [{"a": 1}, {"a": True}, {"a": 1024}],
        [{"%": [1, 2], "%s": "x", "é": None, 'k"': (3,)}, {"%": [4], "%s": "%d", "é": 1, 'k"': (5,)}],
        [{"a": 1}, {"b": 1}],
        [{"a": {"b": [1]}}, {"a": {"b": [2, 3]}}],
        [{"a": 1.5}, {"a": 2}],
        [{1: "x"}, {1: "y"}],
    ],
)
def test_renderer_edge_cases(value):
    assert _json(value, "") == _reference(value)


@pytest.mark.parametrize(
    "rows",
    [
        # a report table: every position of one kind but the last row's
        [["list", "grades"], ["pair", "1,g"], ["max", 1]],
        # positions of ints, of strs and None, of lists of several lengths
        [[1, "a", [2]], [3, "b", [4, 5]], [6, None, []]],
    ],
)
def test_rows_of_one_length_render_position_by_position(rows):
    assert _json(rows, "") == _reference(rows)
    records = [{"%s": row} for row in rows]
    assert _json(Records(("%s",), (rows,)), "  ") == _reference(records).replace("\n", "\n  ")


def test_unsupported_values_fail_as_json_does():
    for value in ({"a": Fraction(1, 2)}, [1, object()], {(1, 2): 3}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            _json(value, "")
