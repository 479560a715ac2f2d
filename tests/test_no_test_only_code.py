"""Every function, class and method of the package has a caller in the package.

Code that only tests reach is dead weight for users of the program, so each
definition under ``src/adjfas`` must be referenced there by name: as a bare
name, as an attribute, or in an import. Dunders (called by Python itself) and
the names the package exports in ``adjfas.__all__`` are exempt. The match is
by name alone, so a reference anywhere in the package clears a definition.
"""

import ast
from pathlib import Path

import adjfas

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
    referenced = {name for tree in trees.values() for name in _references(tree)}
    exempt = set(adjfas.__all__)
    unused = [f"{module}:{qualname}"
              for module, tree in trees.items()
              for qualname, name in _definitions(tree)
              if name not in referenced and name not in exempt
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"defined but never referenced in src/adjfas: {unused}"
