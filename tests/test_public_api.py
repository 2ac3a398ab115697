"""Every public name of the package is used by the package itself.

A name in a module's ``__all__`` must be read somewhere in
``src/jxcircuit`` (as a name, an attribute, or an explicit
``from ... import``); a name that only the tests use is not public API
but dead weight.  Only the standard library's ``ast`` is used, so the
check needs no import of the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jxcircuit"


def declared_public(tree: ast.Module) -> list[str]:
    """The string literals of a module-level ``__all__`` list."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            names += [e.value for e in node.value.elts
                      if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    declared = {name: declared_public(tree) for name, tree in trees.items()}
    assert sum(map(len, declared.values())) > 0
    unused = sorted(name for names in declared.values() for name in names
                    if name not in used)
    assert unused == [], f"public names used only outside the package: {unused}"
