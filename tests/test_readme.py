"""The README's python examples run, and print what their comments say.

Every ```python block of README.md runs in a fresh namespace.  A
statement that is a bare expression followed by a comment starting with
a Python literal, such as ``satisfies(m, "w", f)  # True: ...`` or
``r.index  # (10, 'world w1, ...')``, must evaluate to that literal.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.M | re.S)

_NO_LITERAL = object()


def _leading_literal(text):
    """The longest prefix of ``text`` that is a Python literal."""
    for end in range(len(text), 0, -1):
        try:
            return ast.literal_eval(text[:end].strip())
        except (ValueError, SyntaxError, TypeError):
            continue
    return _NO_LITERAL


def _checked_block(source):
    """Run ``source``; return the (expression, value) pairs it asserted."""
    comments = {tok.start[0]: tok.string[1:]
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        want = _NO_LITERAL
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            want = _leading_literal(comments[stmt.end_lineno])
        if want is _NO_LITERAL:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        expr = ast.get_source_segment(source, stmt)
        got = eval(compile(ast.Expression(stmt.value), str(README), "eval"),
                   namespace)
        assert got == want, f"README: {expr} gives {got!r}, not {want!r}"
        checked.append((expr, want))
    return checked


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block(source):
    assert _checked_block(source), "the block asserts no value"


def test_leading_literal():
    assert _leading_literal(" True:  ‖p‖ = {w} ∈ N_1(w)") is True
    assert _leading_literal(" '[1]p'  (minimal parentheses)") == "[1]p"
    assert _leading_literal(" (10, 'a, b')") == (10, "a, b")
    assert _leading_literal(" p true exactly at w") is _NO_LITERAL
