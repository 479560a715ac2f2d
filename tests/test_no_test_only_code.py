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
