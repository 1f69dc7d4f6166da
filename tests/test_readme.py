"""README's "Quick tour" block runs as written, and every expression in
it that a comment gives a value for has that value."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Quick tour.*?^```python\n(.*?)^```", text,
                      re.M | re.S)
    assert match, "README has no Quick tour python block"
    return match[1]


def test_the_quick_tour_states_what_it_computes():
    block = _quick_tour()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    # an expression statement followed by "# <literal>", perhaps with a
    # remark after the literal
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment or not isinstance(ast.parse(code).body[0], ast.Expr):
            continue
        literal = re.match(r'\s*("[^"]*"|True|False)', comment)
        assert literal, f"no value stated in {line!r}"
        expected = ast.literal_eval(literal[1])
        assert eval(code, namespace) == expected, line
        stated.append(expected)
    assert stated == [True, False, True, "not-subnormal", "main2"]
