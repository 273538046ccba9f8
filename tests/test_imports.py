"""Every name a module of epiwave imports is used in that module.

``__init__.py`` is left out: it imports names to re-export them.
"""
import ast
from pathlib import Path

import pytest

import epiwave

MODULES = sorted(p for p in Path(epiwave.__file__).parent.glob("*.py")
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_name():
    source = ("import os\nfrom dataclasses import dataclass, field\n"
              "@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["line 1: os", "line 2: field"]
