"""Every function, class and method of the package has a caller in the package.

Code that only tests reach is dead weight for users of the program, so each
definition under ``src/adjfas`` must be referenced there by name: as a bare
name, as an attribute, or in an import. Only dunders (called by Python
itself) are exempt. ``__init__.py`` re-exports names without using them, so
its references do not count: an exported name needs a caller elsewhere in
the package too. The match is by name alone, so a reference anywhere else in
the package clears a definition.
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


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_definition_is_referenced_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert len(trees) > 5
    referenced = {name for module, tree in trees.items() if module != "__init__.py"
                  for name in _references(tree)}
    unused = [f"{module}:{qualname}"
              for module, tree in trees.items()
              for qualname, name in _definitions(tree)
              if name not in referenced
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"defined but never referenced in src/adjfas: {unused}"
