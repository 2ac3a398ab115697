"""The package's public surface: its names and its version.

A name in a module's ``__all__`` must be read somewhere in
``src/jxcircuit`` (as a name, an attribute, or an explicit
``from ... import``); a name that only the tests use is not public API
but dead weight, and so is a method or property of a public class that
no code in the package reads.  Likewise a defaulted parameter of a
public function, or a defaulted field of a public dataclass, must be
passed by some call in the package (by keyword, by position, or through
``*``/``**``); a setting the package never turns is a constant.  Only
the standard library's ``ast`` is used, so these checks need no import
of the package.  ``jxcircuit.__version__`` must be the version
``pyproject.toml`` declares.
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


def unread_members(trees: dict[str, ast.Module]) -> list[str]:
    """Methods and properties (dunders aside) of the classes in a module's
    ``__all__`` whose names the package never reads."""
    used = set().union(*(used_names(tree) for tree in trees.values()))
    unread = []
    for module, tree in trees.items():
        public = set(declared_public(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in public:
                unread += [f"{module}:{node.name}.{member.name}" for member in node.body
                           if isinstance(member, ast.FunctionDef)
                           and not member.name.startswith("__")
                           and member.name not in used]
    return unread


def defaulted_settings(node) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter of a function, or of
    each defaulted field of a dataclass (position None when it can only be
    passed by keyword)."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        return ([(k, a.arg) for k, a in enumerate(positional) if k >= first]
                + [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None])
    if not isinstance(node, ast.ClassDef):
        return []
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        return []
    keyword_only = any(isinstance(d, ast.Call) and any(
        k.arg == "kw_only" and getattr(k.value, "value", False) for k in d.keywords)
        for d in node.decorator_list)
    fields = [s for s in node.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return [(None if keyword_only else k, s.target.id)
            for k, s in enumerate(fields) if s.value is not None]


def calls_by_callee(trees) -> dict[str, list[ast.Call]]:
    """Every call in the package, by the name (or attribute) it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` may set the parameter ``name`` at ``position``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or position < len(call.args))


def unturned_settings(trees: dict[str, ast.Module]) -> list[str]:
    """Defaulted settings of public names that no call in the package passes."""
    calls = calls_by_callee(trees.values())
    unturned = []
    for module, tree in trees.items():
        public = set(declared_public(tree))
        for node in tree.body:
            if getattr(node, "name", None) not in public:
                continue
            unturned += [f"{module}:{node.name}.{name}"
                         for position, name in defaulted_settings(node)
                         if not any(passes(call, position, name)
                                    for call in calls.get(node.name, []))]
    return unturned


def package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_defaulted_setting_of_a_public_name_is_passed_in_the_package():
    unturned = unturned_settings(package_trees())
    assert unturned == [], f"settings the package never passes: {unturned}"


def test_a_setting_counts_as_passed_by_keyword_position_or_unpacking():
    tree = ast.parse(
        "__all__ = ['f', 'Spec']\n"
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    n: int\n"
        "    k: float = 1.0\n"
        "    j: float = 2.0\n"
        "def use(args, kw):\n"
        "    f(0, c=1)\n"
        "    f(*args)\n"
        "    Spec(3, 0.5)\n")
    assert unturned_settings({"m.py": tree}) == ["m.py:f.d", "m.py:Spec.j"]
    tree.body.append(ast.parse("f(0, **kw)").body[0])
    assert unturned_settings({"m.py": tree}) == ["m.py:Spec.j"]


def test_every_public_name_is_used_in_the_package():
    trees = package_trees()
    used = set().union(*(used_names(tree) for tree in trees.values()))
    declared = {name: declared_public(tree) for name, tree in trees.items()}
    assert sum(map(len, declared.values())) > 0
    unused = sorted(name for names in declared.values() for name in names
                    if name not in used)
    assert unused == [], f"public names used only outside the package: {unused}"


def test_every_member_of_a_public_class_is_read_in_the_package():
    unread = unread_members(package_trees())
    assert unread == [], f"class members used only outside the package: {unread}"


def test_a_member_counts_as_read_by_attribute_access():
    tree = ast.parse(
        "__all__ = ['C']\n"
        "class C:\n"
        "    def __post_init__(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @classmethod\n"
        "    def make(cls): return cls()\n"
        "    def stack(self): return self.size\n"
        "class Private:\n"
        "    def hidden(self): pass\n"
        "def use():\n"
        "    return C.make()\n")
    assert unread_members({"m.py": tree}) == ["m.py:C.stack"]
    tree.body.append(ast.parse("def more(c): return c.stack()").body[0])
    assert unread_members({"m.py": tree}) == []


def test_package_version_matches_pyproject():
    # a regex, since tomllib is missing on Python 3.10
    import jxcircuit

    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == jxcircuit.__version__
