"""The package's public surface: its names and its version.

A name in a module's ``__all__`` must be read somewhere in
``src/jxcircuit`` (as a name, an attribute, or an explicit
``from ... import``); a name that only the tests use is not public API
but dead weight.  Only the standard library's ``ast`` is used, so that
check needs no import of the package.  ``jxcircuit.__version__`` must be
the version ``pyproject.toml`` declares.
"""

import ast
import re
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


def test_package_version_matches_pyproject():
    # a regex, since tomllib is missing on Python 3.10
    import jxcircuit

    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == jxcircuit.__version__
