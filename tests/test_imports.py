"""Every imported name in the package and its tests is used, and the
package imports nothing beyond the standard library and numpy."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO / "src").rglob("*.py"))
SOURCES = PACKAGE + sorted((REPO / "tests").glob("*.py"))


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


def foreign_imports(tree: ast.Module) -> list[str]:
    """Absolute imports of modules outside the standard library and
    numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in allowed]


def test_package_imports_only_stdlib_and_numpy():
    found = {str(p.relative_to(REPO)): foreign_imports(ast.parse(p.read_text()))
             for p in PACKAGE}
    assert {path: names for path, names in found.items() if names} == {}


def test_detects_a_foreign_import():
    tree = ast.parse("import os, numpy.fft\nimport scipy.fft\n"
                     "from scipy import special\nfrom . import kernels\n")
    assert foreign_imports(tree) == ["scipy.fft", "scipy"]


def fresh_cli_import(code: str) -> list[str]:
    """Import nlstable.cli in a new interpreter, run code and return
    what it prints."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys, nlstable.cli; " + code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True).stdout.split()


def test_cli_import_loads_no_scipy():
    loaded = fresh_cli_import("print(*sys.modules)")
    assert "nlstable.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_import_builds_no_export_tables():
    """The CSV formatter's power-of-ten table is built on the first
    export, with integer arithmetic alone."""
    loaded = fresh_cli_import(
        "from nlstable import solver; "
        "print(solver._g17_tables.cache_info().currsize); "
        "solver.format_g17([0.1]); "
        "print(solver._g17_tables.cache_info().currsize, *sys.modules)")
    assert loaded[:2] == ["0", "1"]
    assert {"fractions", "decimal", "_pydecimal"} & set(loaded[2:]) == set()
