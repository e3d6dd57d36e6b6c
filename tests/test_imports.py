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
