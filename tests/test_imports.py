"""No module of the package or of its tests imports a name it never
uses, and only the plant and config parser imports ``fractions``."""

import ast
from pathlib import Path

import pytest

import volback

MODULES = sorted(Path(volback.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_walk_finds_unused_imports():
    source = "import os.path\nimport math\nfrom json import dumps as d, loads\nloads(os.sep)\n"
    assert unused_imports(source) == ["d", "math"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports from."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fractions_only_in_harness(path):
    # Exact values are integer numerators over one denominator
    # (SimplexPolyKernel); harness parses rationals from plant and config text.
    if path.name != "harness.py":
        assert "fractions" not in imported_modules(path.read_text())


PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def defined_names(source: str) -> set[str]:
    """The module-level functions and classes of ``source`` and the
    methods of its classes, dunder methods aside (Python calls those)."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out.update(
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            )
    return out


def named_names(source: str) -> set[str]:
    """The names that ``source`` reads, as a name, as an attribute, or as a
    string that is an identifier (``getattr(module, "name")``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def unreached(sources: list[str], hooks: list[str]) -> list[str]:
    """The names ``sources`` define that neither they nor ``hooks`` name."""
    named = set().union(*map(named_names, sources + hooks))
    return sorted(set().union(*map(defined_names, sources)) - named)


def test_walk_finds_unreached_names():
    source = (
        "class A:\n    def __init__(self): self.used()\n    def used(self): pass\n"
        "    def orphan(self): pass\ndef helper(): return A()\ndef hooked(): pass\n"
        "def alone(): pass\nhelper()\n"
    )
    assert unreached([source], ['wrap(module, "hooked")\n']) == ["alone", "orphan"]


def test_every_name_is_reached():
    # Every name of the package is reached by a program path or wrapped by
    # a benchmark hook; a helper only the tests call does not count.
    sources = [path.read_text() for path in MODULES]
    assert unreached(sources, [path.read_text() for path in PERFBENCH]) == []
