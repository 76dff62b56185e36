"""The json writer behind `cli.render`: its text is json.dumps(indent=2, sort_keys=True)."""

import io
import json
from collections import Counter, OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasiflags import cli


def oracle(value):
    return json.dumps(value, indent=2, sort_keys=True)


class Items(list):
    pass


class Count(int):
    pass


# every code point, lone surrogates included, plus the characters json escapes
strings = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "é", " "]),
    st.text(st.characters(exclude_categories=())),
)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.integers().map(Count),
)
scalars = st.one_of(
    strings,
    ints,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)


def containers(children):
    dicts = st.dictionaries(strings, children)
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(children).map(Items),
        # lists of ints, with bools among them, take the writer's int path
        st.lists(st.one_of(ints, st.booleans())),
        dicts,
        dicts.map(OrderedDict),
        dicts.map(Counter),
    )


values = st.recursive(scalars, containers, max_leaves=40)


@given(values)
@settings(max_examples=200, deadline=None)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example([1, True, 2])
@example({"b": [0, 1], "a": {"b": [0, 1]}, "": (False, None, 1.5)})
def test_writer_matches_json_dumps(value):
    assert cli.render(value, "json") == oracle(value)


@pytest.mark.parametrize("depth", [1, 2, 200])
def test_deep_nesting(depth):
    value = [0, "leaf"]
    for level in range(depth):
        value = {"k%d" % level: value, "int": [level]} if level % 2 else [value, []]
    assert cli.render(value, "json") == oracle(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: "a"},
        {None: 1},
        {1.5: 0},
        {(1, 2): 0},
        {"a": 1, 2: 3},
        {"a": {"b": {True: 1}}},
        # an int-keyed dict after an all-int list of the same keys and indent
        [[0, 1], {0: "x", 1: "y"}],
    ],
)
def test_non_str_key_raises_type_error(value):
    with pytest.raises(TypeError):
        cli.render(value, "json")


def test_verify_does_not_render_through_the_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder must not run")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1]}, indent=2)  # the patch reaches json.dumps
    out = io.StringIO()
    argv = ["verify", "--n", "3", "--degree", "12", "--suite", "all"]
    assert cli.main(argv, out=out) == 0
    assert json.loads(out.getvalue())["summary"]["status"] == "PASS"
