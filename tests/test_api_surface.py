"""Guard against test-only API and dead helpers: every top-level function
or class in `src/cureonet`, private or public, and every public method of
its classes, must be named somewhere other than its own definition, in the
package itself (re-exports in `__init__.py` do not count) or in the
benchmark harness under `perfbench/`. Anything only the tests call belongs
in the tests, and a helper nothing calls any more goes.

A second guard asks the same of options: every defaulted parameter of a
public function or method must be passed, by keyword or by position, at
some call in the package, the benchmark harness or the tests. A parameter
that only its default reaches is not an option but a constant. A third
asks it of the package and the harness alone: what only the tests pass is
a test seam, and the reviewed seams are listed here, so a new one needs a
deliberate edit.

A fourth guard asks the converse of the package and the harness: a
parameter of a public function that every call there passes as one and
the same literal is a constant, not a parameter. A `*` or `**` argument
counts as a varied one.

A last guard asks it of imports: every name a package module imports must
be used in that module, so that a deletion leaves no stale import
behind."""

import ast
import math
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


def _private_defs(tree) -> list:
    """(name, node) of the private top-level functions and classes."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")]


def unused_definitions(root=ROOT) -> list:
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
        for qualname, definition in _public_defs(tree) + _private_defs(tree):
            name = definition.name
            # references inside the definition itself do not count
            if everywhere[name] == _names(definition)[name]:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def _callee(call) -> str:
    """The name a call calls: `f` of `f(...)` and of `obj.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) \
        else getattr(func, "attr", None)


def _calls(node) -> dict:
    """Per callee name, the (positional count, keyword names) of each call
    in a syntax tree. A starred argument counts as every position, and a
    `**` splat as every keyword (its name is None)."""
    out = {}
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        out.setdefault(_callee(call), []).append(
            (math.inf if starred else len(call.args),
             {k.arg for k in call.keywords}))
    return out


def _parameters(definition, method: bool) -> list:
    """(name, call position, whether defaulted) of each named parameter of
    a function; a method's self is no parameter, and a keyword-only
    parameter has no call position (None)."""
    a = definition.args
    positional = a.posonlyargs + a.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in definition.decorator_list)
    shift = 1 if method and not static else 0
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i - shift, i >= first)
           for i, p in enumerate(positional) if i >= shift]
    out += [(p.arg, None, d is not None)
            for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    return out


def _defaulted(definition, method: bool) -> list:
    """(name, call position) of each defaulted parameter of a function."""
    return [(name, position) for name, position, defaulted
            in _parameters(definition, method) if defaulted]


def _passes(calls, name: str, param: str, position) -> int:
    return sum(param in keywords or None in keywords
               or (position is not None and n_pos > position)
               for n_pos, keywords in calls.get(name, []))


def defaults_never_passed(root=ROOT, callers=("perfbench", "tests")) -> list:
    """Defaulted parameters that no call in the package or in the `callers`
    directories passes."""
    package = root / "src" / "cureonet"
    sources = sorted(package.glob("*.py")) + [
        p for where in callers for p in sorted((root / where).glob("*.py"))]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    everywhere = {}
    for tree in trees.values():
        for name, seen in _calls(tree).items():
            everywhere.setdefault(name, []).extend(seen)
    unused = []
    for path, tree in trees.items():
        if path.parent != package or path.name == "__init__.py":
            continue
        for qualname, definition in _public_defs(tree):
            if not isinstance(definition, ast.FunctionDef):
                continue
            name = definition.name
            # calls inside the definition itself do not count
            inside = _calls(definition)
            for param, position in _defaulted(definition, "." in qualname):
                if _passes(everywhere, name, param, position) \
                        == _passes(inside, name, param, position):
                    unused.append(f"{path.stem}.{qualname}({param})")
    return unused


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert unused_definitions() == []


def test_the_guard_sees_a_definition_nobody_names(tmp_path):
    (tmp_path / "src" / "cureonet").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "def used():\n    return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\n"
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
    # a private method is not looked at; a private class nobody names is
    assert unused_definitions(tmp_path) == ["a.lonely", "a.Box.alone",
                                            "a._Private"]


def test_every_defaulted_parameter_is_passed_somewhere():
    assert defaults_never_passed() == []


def test_the_guard_sees_a_default_nobody_passes(tmp_path):
    for where in ("src/cureonet", "perfbench", "tests"):
        (tmp_path / where).mkdir(parents=True)
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "def f(x, by_keyword=1, by_position=2, never=3, *, only_kw=4):\n"
        "    return f(x, never=never)\n\n\n"
        "class Box:\n"
        "    def m(self, passed=1, alone=2):\n        return passed\n\n"
        "    @staticmethod\n"
        "    def s(passed=1):\n        return passed\n\n"
        "    def _hidden(self, x=1):\n        return x\n\n\n"
        "def g(x=1):\n    return x\n")
    (tmp_path / "perfbench" / "b.py").write_text(
        "from cureonet.a import Box, f\n\n"
        "f(0, 1, 2)\nBox().m(1)\nBox.s(1)\n")
    (tmp_path / "tests" / "test_c.py").write_text(
        "from cureonet.a import f, g\n\nf(0, by_keyword=1)\ng(*[1])\n")
    assert defaults_never_passed(tmp_path) == [
        "a.f(never)", "a.f(only_kw)", "a.Box.m(alone)"]


# defaulted parameters only the tests pass, each reviewed: `main(argv)`
# drives the CLI in-process, and `solve_batch(forcing)` takes the
# manufactured solutions of tests/test_solver.py
TEST_SEAMS = ["cli.main(argv)", "solver.solve_batch(forcing)"]


def test_only_the_reviewed_test_seams_are_passed_by_the_tests_alone():
    assert defaults_never_passed(callers=("perfbench",)) == TEST_SEAMS


def test_the_guard_sees_a_default_only_the_tests_pass(tmp_path):
    for where in ("src/cureonet", "perfbench", "tests"):
        (tmp_path / where).mkdir(parents=True)
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "def f(x, used=1, seam=2, *, bench=3):\n    return x\n\n\n"
        "def g(x=1):\n    return f(x, used=x)\n")
    (tmp_path / "perfbench" / "b.py").write_text(
        "from cureonet.a import f\n\nf(0, bench=1)\n")
    (tmp_path / "tests" / "test_c.py").write_text(
        "from cureonet.a import f, g\n\nf(0, 1, 2)\ng(1)\n")
    assert defaults_never_passed(tmp_path) == []
    assert defaults_never_passed(tmp_path, callers=("perfbench",)) == [
        "a.f(seam)", "a.g(x)"]


def _literal(call, param: str, position):
    """The source of the literal a call passes for a parameter, or None if
    it passes something else, nothing, or a `*` or `**` argument."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return None
    node = next((k.value for k in call.keywords if k.arg == param), None)
    if node is None and position is not None and position < len(call.args):
        node = call.args[position]
    if node is None:
        return None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def constant_arguments(root=ROOT) -> list:
    """Parameters of public functions that every call in the package and
    the benchmark harness passes as one and the same literal."""
    package = root / "src" / "cureonet"
    sources = sorted(package.glob("*.py")) \
        + sorted((root / "perfbench").glob("*.py"))
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sources]
    calls = [c for tree in trees for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    constant = []
    for path, tree in zip(sources, trees):
        if path.parent != package or path.name == "__init__.py":
            continue
        for qualname, definition in _public_defs(tree):
            if not isinstance(definition, ast.FunctionDef):
                continue
            # calls inside the definition itself do not count
            inside = {id(c) for c in ast.walk(definition)}
            mine = [c for c in calls if _callee(c) == definition.name
                    and id(c) not in inside]
            for param, position, _ in _parameters(definition,
                                                  "." in qualname):
                passed = {_literal(c, param, position) for c in mine}
                if len(passed) == 1 and None not in passed:
                    constant.append(f"{path.stem}.{qualname}({param})")
    return constant


def test_no_parameter_is_passed_one_literal_by_every_call():
    assert constant_arguments() == []


def test_the_guard_sees_a_parameter_every_call_fixes(tmp_path):
    for where in ("src/cureonet", "perfbench", "tests"):
        (tmp_path / where).mkdir(parents=True)
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "def f(x, fixed, varied, kw=1, *, only=2):\n"
        "    return f(x, 0, 1, only=3)\n\n\n"
        "class Box:\n"
        "    def m(self, fixed):\n        return fixed\n\n\n"
        "def g(x):\n    return x\n\n\n"
        "def h(x):\n    return x\n\n\n"
        "def k(x):\n    return x\n")
    (tmp_path / "perfbench" / "b.py").write_text(
        "from cureonet.a import Box, f, g, h, k\n\n"
        "f(0, 'a', 1, kw=5, only=1)\nf(y, fixed='a', varied=2, only=1)\n"
        "Box().m(-1.5)\nBox().m(fixed=-1.5)\n"
        "g(*[1])\ng(1)\nh(1)\nh(1.0)\nk(7)\n")
    # the tests do not count: they may pin what the package varies
    (tmp_path / "tests" / "test_c.py").write_text(
        "from cureonet.a import k\n\nk(8)\n")
    assert constant_arguments(tmp_path) == [
        "a.f(fixed)", "a.f(only)", "a.Box.m(fixed)", "a.k(x)"]


def unused_imports(root=ROOT) -> list:
    """`module.name` of each name a package module imports but never reads.
    A read is a name in the code or a string that is an identifier (the
    entries of `__all__`, quoted annotations); `__future__` imports are
    directives, not names."""
    unused = []
    for path in sorted((root / "src" / "cureonet").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        read |= {sub.value for sub in ast.walk(tree)
                 if isinstance(sub, ast.Constant)
                 and isinstance(sub.value, str) and sub.value.isidentifier()}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unused += [f"{path.stem}.{bound}" for bound in
                           ((a.asname or a.name).split(".")[0]
                            for a in node.names) if bound not in read]
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def test_the_guard_sees_an_import_nobody_reads(tmp_path):
    (tmp_path / "src" / "cureonet").mkdir(parents=True)
    (tmp_path / "src" / "cureonet" / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport json\nimport numpy as np\n\n"
        "from .b import Thing, kept, stale as alias\n\n\n"
        "def f() -> 'Thing':\n"
        "    return np.zeros(1), os.path.sep, kept.attr\n")
    (tmp_path / "src" / "cureonet" / "__init__.py").write_text(
        "from .a import f, g\n\n__all__ = ['f']\n")
    assert unused_imports(tmp_path) == ["__init__.g", "a.json", "a.alias"]


def test_every_name_in_all_exists_on_the_package():
    # `import cureonet` succeeds with a stale __all__ entry; only
    # `from cureonet import *` would fail on it
    import cureonet
    assert [n for n in cureonet.__all__ if not hasattr(cureonet, n)] == []
