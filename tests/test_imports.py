"""Every name a module of epiwave imports is used in that module, and no
module imports or reads a private name of another epiwave module.
``__init__.py`` is left out: it imports names to re-export them.

Only ``cli.main`` prints, and only ``cli.console_main`` exits the process,
and every dataclass is frozen.
"""
import ast
from pathlib import Path

import pytest

import epiwave

SOURCES = sorted(Path(epiwave.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def private_uses(source: str) -> list[str]:
    """Each ``_private`` name that ``source`` imports from an epiwave module or
    reads as an attribute of one; dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "epiwave")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "epiwave"):
            if node.module in (None, "epiwave"):  # from . import calibration
                modules.update(a.asname or a.name for a in node.names)
            found += [(node.lineno, a.name) for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_names(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_private_name():
    source = ("import numpy as np\nfrom . import calibration as cal\n"
              "from .epidemic import _steps_per_day, integrate\n"
              "import epiwave.series\nfrom epiwave import _x\n"
              "cal._score(np._NoValue, cal.__doc__)\nepiwave.series._parse(1)\n")
    assert private_uses(source) == ["line 3: _steps_per_day", "line 5: _x",
                                    "line 6: cal._score",
                                    "line 7: epiwave.series._parse"]


def test_guard_sees_an_unused_name():
    source = ("import os\nfrom dataclasses import dataclass, field\n"
              "@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["line 1: os", "line 2: field"]


def callers(source: str, call: str) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or ``<module>``) of each call of
    ``call``, a name such as ``print`` or ``sys.exit``."""
    found = []

    def visit(node, holder):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) == call:
                found.append((child.lineno, holder))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else holder)

    visit(ast.parse(source), "<module>")
    return found


# The one function of cli.py that may make each call.
ONLY_CALLER = {"print": "main", "sys.exit": "console_main"}


@pytest.mark.parametrize("call", list(ONLY_CALLER))
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_entry_points_print_or_exit(path, call):
    allowed = ONLY_CALLER[call] if path.name == "cli.py" else None
    assert [(line, holder) for line, holder in callers(
        path.read_text(encoding="utf-8"), call) if holder != allowed] == []


def test_guard_sees_a_print_and_an_exit():
    source = ("import sys\ndef main():\n    print(1)\n"
              "    def inner():\n        print(2)\nclass A:\n    def f(self):\n"
              "        sys.exit(print(3))\nsys.exit(0)\n")
    assert callers(source, "print") == [(3, "main"), (5, "inner"), (8, "f")]
    assert callers(source, "sys.exit") == [(8, "f"), (9, "<module>")]


def unfrozen_dataclasses(source: str) -> list[str]:
    """Each class decorated ``@dataclass`` without ``frozen=True``."""
    def frozen(decorator):
        return isinstance(decorator, ast.Call) and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant)
            and k.value.value is True for k in decorator.keywords)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for d in node.decorator_list:
                name = d.func if isinstance(d, ast.Call) else d
                if ast.unparse(name).split(".")[-1] == "dataclass" and not frozen(d):
                    found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    assert unfrozen_dataclasses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unfrozen_dataclass():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A: pass\n@dataclass(order=True)\nclass B: pass\n"
              "@dataclasses.dataclass(frozen=False)\nclass C: pass\n"
              "@dataclass(frozen=True)\nclass D: pass\n")
    assert unfrozen_dataclasses(source) == ["line 4: A", "line 6: B", "line 8: C"]
