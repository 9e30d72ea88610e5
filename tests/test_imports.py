"""Every imported name in the package and its tests is used."""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src").rglob("*.py")) + sorted(
    (REPO / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never loaded."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(REPO)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nprint(c)\n")
    assert unused_imports(tree) == ["e (line 2)", "os (line 1)"]
