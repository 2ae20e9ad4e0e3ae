"""Guard against test-only API: every public top-level function or class in
`src/cureonet`, and every public method of its classes, must be named
somewhere other than its own definition, in the package itself (re-exports
in `__init__.py` do not count) or in the benchmark harness under
`perfbench/`. Anything only the tests call belongs in the tests."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names(node) -> Counter:
    """How often a syntax tree refers to each identifier: names, attributes,
    and strings that are identifiers (the benchmark wraps module attributes
    by name)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _public_defs(tree) -> list:
    """(qualified name, node) of the public top-level functions and classes
    and of the public methods of top-level classes."""
    public = lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")
    defs = []
    for node in tree.body:
        if public(node):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                     if isinstance(sub, ast.FunctionDef) and public(sub)]
    return defs


def unused_public_api(root=ROOT) -> list:
    package = root / "src" / "cureonet"
    sources = [p for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((root / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, definition in _public_defs(tree):
            name = definition.name
            # references inside the definition itself do not count
            if everywhere[name] == _names(definition)[name]:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert unused_public_api() == []


def test_the_guard_sees_a_definition_nobody_names(tmp_path):
    (tmp_path / "src" / "cureonet").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return lonely()\n\n\n"
        "class Box:\n"
        "    def called(self):\n        return 1\n\n"
        "    def alone(self):\n        return self.alone()\n\n"
        "    def _hidden(self):\n        return 2\n\n\n"
        "class _Private:\n    pass\n")
    (tmp_path / "src" / "cureonet" / "b.py").write_text(
        "from .a import Box, used\n\nVALUE = used() + Box().called()\n")
    (tmp_path / "src" / "cureonet" / "__init__.py").write_text(
        "from .a import lonely\n\n__all__ = ['lonely']\n")
    assert unused_public_api(tmp_path) == ["a.lonely", "a.Box.alone"]


def test_every_name_in_all_exists_on_the_package():
    # `import cureonet` succeeds with a stale __all__ entry; only
    # `from cureonet import *` would fail on it
    import cureonet
    assert [n for n in cureonet.__all__ if not hasattr(cureonet, n)] == []
