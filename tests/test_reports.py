"""The JSON renderer against ``json.dumps(indent=2, sort_keys=True)``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gpw.reports import _json, render

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
    ],
)
def test_renderer_edge_cases(value):
    assert _json(value, "") == _reference(value)


def test_unsupported_values_fail_as_json_does():
    for value in ({"a": Fraction(1, 2)}, [1, object()], {(1, 2): 3}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            _json(value, "")
