"""Every module of the package uses each name it imports, and reads no
private attribute of another object; the package exports exactly the names
its __init__ imports.

A name listed in the module's __all__ counts as used, and so does an import
on a line marked "# noqa: F401", which keeps a name other code reads from
the module. A private name is one that starts with an underscore and is not
a dunder; self and cls may use their own attributes, namedtuple's public
methods (_make, _replace, _asdict, _fields) are not private, and importing a
private name from another module counts as reading it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcmine"


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
