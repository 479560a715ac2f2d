"""Every function, class, method and constant of the package has a reader in the package.

Code that only tests reach is dead weight for users of the program, so each
definition under ``src/adjfas`` must be referenced there by name: as a bare
name, as an attribute, or in an import. A module-level constant (a name
assigned at module level) counts as referenced only where it is read;
assigning it again does not count. Only dunders (used by Python itself) are
exempt. ``__init__.py`` re-exports names without using them, so its
references do not count: an exported name needs a reader elsewhere in the
package too. The match is by name alone, so a reference anywhere else in the
package clears a definition.

A ``@dataclass`` field is a definition the name match cannot see, since its
generated ``__init__`` and ``asdict`` reach it without naming it. So every
field of a package dataclass must also be read as an attribute
(``obj.field``, not an assignment to it) by package code outside
``__init__.py``.

Since a name match cannot see an option nobody sets, every defaulted parameter
of a package function must also be passed by some call in the package: by
keyword, by position, or through ``*``/``**``. Calls match the function by
name (a class name for ``__init__``), and a method's ``self`` or ``cls`` is
not counted among the positions. The one exemption is ``cli.main``'s
``argv``, the seam through which tests drive the command line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "adjfas"


def _definitions(tree, prefix=""):
    """(qualified name, name) of every function, class and method in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _constants(tree):
    """Every name a module assigns at its top level."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _unused(sources: dict[str, str]) -> list[str]:
    """module:name of every definition and constant no other package code reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = {name for module, tree in trees.items() if module != "__init__.py"
                  for name in _references(tree)}
    defined = [(module, qualname, name) for module, tree in trees.items()
               for qualname, name in [*_definitions(tree), *((c, c) for c in _constants(tree))]]
    return sorted({f"{module}:{qualname}" for module, qualname, name in defined
                   if name not in referenced
                   and not (name.startswith("__") and name.endswith("__"))})


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """module:Class.field of every dataclass field no package code reads as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.attr for module, tree in trees.items() if module != "__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            # @dataclass or @dataclass(...)
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in cls.decorator_list):
                out += [f"{module}:{cls.name}.{node.target.id}" for node in cls.body
                        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in read]
    return sorted(out)


def _functions(tree, prefix="", cls=None):
    """(qualified name, callee name, def, bound leading parameters) of every function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            callee = cls if node.name == "__init__" else node.name
            yield prefix + node.name, callee, node, int(cls is not None and not static)
            yield from _functions(node, prefix + node.name + ".")


def _passes(call, name, position):
    """Whether ``call`` passes parameter ``name``, whose positional index is ``position``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and any(
        i == position or (isinstance(a, ast.Starred) and i <= position)
        for i, a in enumerate(call.args))


def _unpassed(sources: dict[str, str]) -> list[str]:
    """module:function.parameter of every defaulted parameter no package call passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in trees.items():
        for qualname, callee, fn, bound in _functions(tree):
            a = fn.args
            positional = [*a.posonlyargs, *a.args]
            first = len(positional) - len(a.defaults)
            defaulted = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            out += [f"{module}:{qualname}.{name}" for name, position in defaulted
                    if not any(_passes(c, name, position) for c in calls.get(callee, []))]
    return sorted(set(out) - {"cli.py:main.argv"})


def test_every_definition_is_referenced_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    unused = _unused(sources)
    assert not unused, f"defined but never referenced in src/adjfas: {unused}"


def test_unread_constant_is_caught():
    sources = {"a.py": "LIMIT = 3\nUNREAD = 4\nUNREAD = 5\n\ndef f():\n    return LIMIT\n",
               "b.py": "from a import f\nf()\n",
               "__init__.py": "from a import UNREAD\n__all__ = ['UNREAD']\n"}
    assert _unused(sources) == ["a.py:UNREAD"]


def test_every_dataclass_field_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    unread = _unread_fields(sources)
    assert not unread, f"dataclass fields no code in src/adjfas reads: {unread}"


def test_unread_field_is_caught():
    sources = {"a.py": ("from dataclasses import dataclass\n\n"
                        "@dataclass(frozen=True)\n"
                        "class P:\n"
                        "    kept: int\n"
                        "    written: int = 0\n"
                        "    LIMIT = 3\n\n"
                        "@dataclass\n"
                        "class Q:\n"
                        "    only_exported: int\n\n"
                        "class Plain:\n"
                        "    ignored: int\n"),
               "b.py": ("from a import P, Q\n"
                        "p = P(1)\n"
                        "print(p.kept)\n"
                        "p.written = 2\n"),
               "__init__.py": "from a import Q\nQ(0).only_exported\n"}
    assert _unread_fields(sources) == ["a.py:P.written", "a.py:Q.only_exported"]


def test_every_defaulted_parameter_is_passed_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    unpassed = _unpassed(sources)
    assert not unpassed, f"defaulted parameters no call in src/adjfas passes: {unpassed}"


def test_unpassed_default_is_caught():
    sources = {"a.py": ("def f(x, by_position=1, by_keyword=2, *, unset=3, kw_only=4):\n"
                        "    return x\n\n"
                        "class C:\n"
                        "    def __init__(self, first=0, second=0):\n"
                        "        pass\n\n"
                        "    def m(self, unset=0, spread=0):\n"
                        "        pass\n"),
               "b.py": ("from a import C, f\n"
                        "f(0, 1, by_keyword=2, kw_only=4)\n"
                        "C(1).m(*[])\n"
                        "C(second=2)\n"
                        "def g(**kw):\n"
                        "    return C(0).m(unset=0, **kw)\n")}
    assert _unpassed(sources) == ["a.py:f.unset"]
