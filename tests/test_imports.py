"""No module of the package imports a name it never reads.

The project ships no linter, so this scan stands in for one: every name
bound by ``import`` or ``from ... import`` (except ``from __future__``)
must be read somewhere in its module, as a name or as the base of an
attribute.  ``__init__`` imports to re-export and is not scanned.
"""

import ast
from pathlib import Path

import pytest

import permutons

MODULES = sorted(p for p in Path(permutons.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})"
                  for name, line in imported.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from typing import Iterable as It, Sequence\n"
              "def f(x: Sequence) -> None:\n    sys.exit(x)\n")
    assert unused_imports(source) == ["It (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
