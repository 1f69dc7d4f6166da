"""Spec decoding: ``cli._loads`` returns what ``json.loads`` returns, or
raises what it raises, with orjson decoding (when it is installed) and
with the stdlib decoder alone."""
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from treeshift import cli
from test_spec_fuzz import _with_extreme_trees, mutated_specs

GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"


@pytest.fixture(scope="module", params=["as-installed", "stdlib"])
def loads(request):
    """``cli._loads`` as installed, and with its orjson path turned off."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "stdlib":
            mp.setattr(cli, "_orjson_loads", lambda: None)
        yield cli._loads


def _typed(value):
    """``value`` with the type of every scalar, the order of every key
    and the repr of every float (-0.0, nan) part of what compares."""
    if isinstance(value, dict):
        return "dict", [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return "list", [_typed(v) for v in value]
    return type(value).__name__, repr(value)


def _outcome(decode, text):
    try:
        return "value", _typed(decode(text))
    except (ValueError, RecursionError) as exc:
        return "error", type(exc), str(exc)


def _assert_decodes_alike(decode, text):
    assert _outcome(decode, text) == _outcome(json.loads, text)


# integers at the int64 and uint64 edges and of 18 to 22 digits, which
# orjson reads as floats from 2**64 on
INTS = (st.integers()
        | st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1,
                           2 ** 64 - 1, 2 ** 64, -2 ** 64, 10 ** 18 - 1])
        | st.integers(10 ** 17, 10 ** 22).flatmap(
            lambda n: st.sampled_from([n, -n])))
FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e308,
     1.7976931348623157e308])
# every code point, lone surrogates included
STRINGS = st.text(st.characters(exclude_categories=()), max_size=8)
VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | STRINGS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=16)
# json.dumps writes NaN and Infinity, and a lone surrogate escaped or raw
DOCUMENTS = st.builds(json.dumps, VALUES, ensure_ascii=st.booleans())
# number literals json.dumps never writes: long mantissas and fractions,
# exponents past the float range
LITERALS = st.from_regex(
    r"\A-?(0|[1-9][0-9]{0,21})(\.[0-9]{1,21})?([eE][+-]?[0-9]{1,3})?\Z"
).map(lambda lit: f"[{lit}]")


@st.composite
def repeated_keys(draw):
    """An object whose keys repeat, in raw text."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(["a", "b", ""]),
                                    VALUES), max_size=6))
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in pairs) + "}"


@st.composite
def damaged(draw, texts):
    """A document cut short or with one character replaced."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i]
    return text[:i] + draw(st.sampled_from(
        list(' ,:[]{}"\\0129eE.-+ntfNI\ufeff\x00\t'))) + text[i + 1:]


@example("[" * 300 + "]" * 300)       # over the bracket bound
@example("[" * 5000 + "]" * 5000)     # json raises RecursionError
@example("[" + "9" * 5000 + "]")      # past the integer digit limit
@example('{"a": 1, "a": [2], "b": 3, "a": -0.0}')
@example('["\\ud800", "\\udfff\\ud800", "\\ud83d\\ude00", NaN, -Infinity]')
@example("\ufeff{}")
@settings(max_examples=300, derandomize=True, database=None,
          deadline=None)
@given(DOCUMENTS | LITERALS | repeated_keys()
       | damaged(DOCUMENTS | LITERALS | repeated_keys()))
def test_documents_decode_alike(loads, text):
    _assert_decodes_alike(loads, text)


@pytest.mark.parametrize("path", sorted(GOLDEN_SPECS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_golden_specs_decode_alike(loads, path):
    _assert_decodes_alike(loads, path.read_text(encoding="utf-8"))


@_with_extreme_trees
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mutated_specs())
def test_fuzzed_specs_decode_alike(loads, doc):
    _assert_decodes_alike(loads, json.dumps(doc))


def test_orjson_decodes_only_under_the_guards(monkeypatch):
    """The fast path runs on a rule spec, and a run of 19 digits or a
    quarter of the recursion limit in brackets keeps it away."""
    orjson = pytest.importorskip("orjson")
    decoded = []
    monkeypatch.setattr(cli, "_orjson_loads", lambda: lambda text: (
        decoded.append(text) or orjson.loads(text)))
    rule = json.dumps({"tree": {"kind": "generation_rule",
                                "rule": [[2] * 2 ** g for g in range(12)]}})
    bound = sys.getrecursionlimit() // 4
    deep = "[" * (bound - 2) + "{}" + "]" * (bound - 2)
    for text in (rule, deep, "[" + deep + "]",
                 "[" + "9" * 18 + "]", "[" + "9" * 19 + "]"):
        cli._loads(text)
    assert decoded == [rule, deep, "[" + "9" * 18 + "]"]
