"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "sievelab").glob("*.py"))


def _takes_into_out_in_raise_mode(tree: ast.AST) -> list[int]:
    """Lines of take(...) calls that pass out= without a non-raise mode=."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "take":
            continue
        # np.take(a, indices, axis, out, mode); the method a.take drops a
        is_function = isinstance(func, ast.Name) or (
            isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))
        out_at = 3 if is_function else 2
        kw = {k.arg: k.value for k in node.keywords}
        if "out" not in kw and len(node.args) <= out_at:
            continue
        mode = kw.get("mode", node.args[out_at + 1] if len(node.args) > out_at + 1 else None)
        if not (isinstance(mode, ast.Constant) and mode.value in ("clip", "wrap")):
            bad.append(node.lineno)
    return bad


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_take_into_a_workspace_never_raises(path):
    """A take(..., out=buf) must say mode="clip" or "wrap".

    In the default raise mode numpy gathers into a fresh temporary and
    copies it into out, so the call allocates (and may fault in new pages)
    exactly as a plain fancy index would: a workspace passed that way is
    silently undone.  Check the indices yourself and clip.
    """
    assert _takes_into_out_in_raise_mode(ast.parse(path.read_text())) == []


def test_the_take_check_sees_raise_mode():
    src = """
np.take(a, i, axis=0, out=b)
np.take(a, i, axis=0, out=b, mode="raise")
np.take(a, i, 0, b)
a.take(i, axis=0, out=b, mode=m)
np.take(a, i, axis=0, out=b, mode="clip")
np.take(a, i, 0, b, "wrap")
np.take(a, i, axis=0)
a.take(i, 0, b)
a.take(i, 0, b, "clip")
a.take(i, 0)
"""
    assert _takes_into_out_in_raise_mode(ast.parse(src)) == [2, 3, 4, 5, 9]
