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


def _names_the_budget(tree: ast.AST) -> list[int]:
    """Lines that name _BLOCK_FLOATS: as a name, an attribute, an import
    or a getattr string."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if getattr(node, "id", None) == "_BLOCK_FLOATS"
                   or (isinstance(node, ast.Attribute) and node.attr == "_BLOCK_FLOATS")
                   or (isinstance(node, ast.alias) and node.name == "_BLOCK_FLOATS")
                   or (isinstance(node, ast.Constant) and node.value == "_BLOCK_FLOATS")})


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "rpc.py"], ids=lambda p: p.name)
def test_only_rpc_names_the_chunk_budget(path):
    """No module but rpc.py names rpc._BLOCK_FLOATS.

    The filter engine has one budget rule, rpc.spans, and every other
    module cuts its chunks through it: a module that divides the budget
    itself keeps a second copy of the rule, which can drift from the first.
    Tests may still monkeypatch the constant, which spans reads at call time.
    """
    assert _names_the_budget(ast.parse(path.read_text())) == []


def test_the_budget_check_sees_every_form():
    src = """
x = rpc._BLOCK_FLOATS // n
from .rpc import _BLOCK_FLOATS
y = _BLOCK_FLOATS
z = getattr(rpc, "_BLOCK_FLOATS")
w = rpc.spans(weights)
v = _GATHER_FLOATS
"""
    assert _names_the_budget(ast.parse(src)) == [2, 3, 4, 5]


def _defined_twice(sources: dict[str, str]) -> dict[str, list[str]]:
    """Module-level function names defined (def, not imported) in more
    than one of the named sources, with the modules that define each."""
    where: dict[str, list[str]] = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where.setdefault(node.name, []).append(module)
    return {name: mods for name, mods in where.items() if len(mods) > 1}


def test_no_function_is_defined_in_two_modules():
    """One rule lives in one place: no module-level function name is
    defined in two modules of the package.

    Two functions of one name are two copies of a rule, and copies drift
    (two _row_norms once rounded the same norm differently).  A module
    that needs another's helper imports it.
    """
    assert _defined_twice({p.name: p.read_text() for p in SRC}) == {}


def test_the_twice_check_sees_only_module_level_defs():
    sources = {
        "a.py": "def f(): pass\nasync def g(): pass\nclass C:\n    def h(self): pass\n",
        "b.py": "from .a import f\ndef g(): pass\ndef h(): pass\n",
        "c.py": "def g(): pass\ndef k():\n    def f(): pass\n",
    }
    assert _defined_twice(sources) == {"g": ["a.py", "b.py", "c.py"]}
