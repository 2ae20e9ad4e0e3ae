"""Guard against test-only API: every public top-level function or class in
`src/cureonet` must be named somewhere other than its own definition, in
the package itself (re-exports in `__init__.py` do not count) or in the
benchmark harness under `perfbench/`. Anything only the tests call belongs
in the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names(node) -> set:
    """Identifiers a syntax tree refers to: names, attributes, and strings
    that are identifiers (the benchmark wraps module attributes by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _public_defs(tree) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unused_public_api(root=ROOT) -> list:
    package = root / "src" / "cureonet"
    sources = [p for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((root / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for definition in _public_defs(tree):
            named = any(
                definition.name in _names(node)
                for other, other_tree in trees.items()
                for node in other_tree.body
                if not (other == path and node is definition))
            if not named:
                unused.append(f"{path.stem}.{definition.name}")
    return unused


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert unused_public_api() == []


def test_the_guard_sees_a_definition_nobody_names(tmp_path):
    (tmp_path / "src" / "cureonet").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return lonely()\n\n\n"
        "class _Private:\n    pass\n")
    (tmp_path / "src" / "cureonet" / "b.py").write_text(
        "from .a import used\n\nVALUE = used()\n")
    (tmp_path / "src" / "cureonet" / "__init__.py").write_text(
        "from .a import lonely\n\n__all__ = ['lonely']\n")
    assert unused_public_api(tmp_path) == ["a.lonely"]
