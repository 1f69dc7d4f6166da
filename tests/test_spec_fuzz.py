"""Mutated golden specs: every run exits 0, 1 or 2, and an exit 2 prints
one error line with a JSON path, never a traceback."""
import contextlib
import copy
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from treeshift.cli import main

DOCS = {p.stem: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted((Path(__file__).parent / "golden" / "specs")
                        .glob("*.json"))}

# values of other JSON types and numbers at the edges of every range a
# field can have: the int64 and float limits, subnormals, non-finite
# floats (which the JSON decoder accepts as NaN and Infinity)
EXTREMES = [None, True, False, 0, -1, 1, 2, 2 ** 31, 2 ** 63 - 1, 2 ** 63,
            10 ** 30, -10 ** 30, 0.5, -0.0, 1e-320, 1e308, -1e308,
            float("inf"), float("nan"), "", "g1:0", "path", [], [[]], [0],
            {}, {"kind": "path"}]


def _slots(value, path=()):
    """The key path of every value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _slots(item, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_specs(draw):
    """A golden spec with one to three values replaced or deleted."""
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        path = draw(st.sampled_from(slots))
        parent, key = _get(doc, path[:-1]), path[-1]
        if draw(st.booleans()):
            del parent[key]
        else:
            # an extreme value, or a value of the spec moved to another
            # place, which usually has another type
            moved = _get(doc, draw(st.sampled_from(slots)))
            parent[key] = copy.deepcopy(
                draw(st.sampled_from(EXTREMES + [moved])))
    return doc


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutated_specs())
def test_mutated_specs_exit_cleanly(doc):
    """A command error other than a TreeShiftError escapes ``main`` and
    fails the test, as would a traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = Path(tmp) / "run.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["--spec", str(spec), "--quiet"])
    # a run takes about 10 ms; the bound is far above it
    assert time.perf_counter() - start < 5.0
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: $"), lines
    else:
        assert not lines
