"""Every module of the package uses each name it imports, and reads no
private attribute of another object; the package exports exactly the names
its __init__ imports, and each of them is read somewhere else.

A name listed in the module's __all__ counts as used, and so does an import
on a line marked "# noqa: F401", which keeps a name other code reads from
the module. A private name is one that starts with an underscore and is not
a dunder; self and cls may use their own attributes, namedtuple's public
methods (_make, _replace, _asdict, _fields) are not private, and importing a
private name from another module counts as reading it.

An exported name is read when a package module other than __init__, a
bench script or a README example loads it as a name or an attribute,
outside a def or class of that name, or holds it as a string, as getattr()
and setattr() take it: the CLI's dispatch table and bench/spans.py's
targets name their functions so.
"""

import ast
import doctest
from pathlib import Path

import pytest

import pcmine

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcmine"


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from operator import lt, or_\nimport os  # noqa: F401\nimport os.path as p\n"
              "import sys\n__all__ = ['sys']\nprint(or_)\n")
    assert unused_imports(source) == ["lt (line 1)", "p (line 3)"]


NAMEDTUPLE_API = {"_make", "_replace", "_asdict", "_fields"}


def is_private(name):
    return (name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            and name not in NAMEDTUPLE_API)


def private_reads(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom):
            source_module = "." * node.level + (node.module or "")
            found += [(node.lineno, node.col_offset, f"from {source_module} import {alias.name}")
                      for alias in node.names if is_private(alias.name)]
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_reads_no_private_attribute_of_another_object(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_a_private_attribute_read_is_found():
    source = ("class A:\n    def f(self, other):\n        return self._x, cls._y, other._z\n"
              "row._replace(a=1), row._fields, t.__class__, self.index._rows\n"
              "from .codec import encode, _check as check\nfrom . import __version__, _impl\n")
    assert private_reads(source) == ["other._z (line 3)", "self.index._rows (line 4)",
                                     "from .codec import _check (line 5)",
                                     "from . import _impl (line 6)"]


def export_drift(source):
    """(imported but not in __all__, in __all__ but not imported), each sorted."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                for name in ast.literal_eval(node.value)}
    return sorted(imported - exported), sorted(exported - imported)


def test_package_exports_exactly_what_it_imports():
    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert export_drift(source) == ([], [])


def test_an_export_drift_is_found():
    source = ("from .codec import decode, encode as enc\nfrom .tree import build\n"
              "__version__ = '1'\n__all__ = ['build', 'decode', 'gone']\n")
    assert export_drift(source) == (["enc"], ["gone"])


def names_read(source):
    """Names source loads or holds as a string, outside a def or class of that name."""
    found = set()
    pending = [(ast.parse(source), frozenset())]  # node, the defs and classes around it
    while pending:
        node, around = pending.pop()
        if isinstance(node, ast.Assign) and "__all__" in [
                target.id for target in node.targets if isinstance(target, ast.Name)]:
            continue  # an export list names, it does not read
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around |= {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name not in around:
            found.add(name)
        pending += [(child, around) for child in ast.iter_child_nodes(node)]
    return found - {None}


def test_every_export_is_read_outside_its_definition():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    sources += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources.append("".join(example.source
                           for example in doctest.DocTestParser().get_examples(readme)))
    read = set().union(*map(names_read, sources))
    assert sorted(set(pcmine.__all__) - read) == []


def test_an_unread_export_is_found():
    source = ("def solo():\n    return solo()\n"
              "def used(x):\n    return x\n"
              "class Shape:\n    def copy(self):\n        return Shape()\n"
              "__all__ = ['gone', 'named']\n"
              "used(1).attr, getattr(module, 'named')\n")
    read = names_read(source)
    assert {"used", "attr", "named"} <= read
    assert not {"solo", "Shape", "gone"} & read
