"""Every imported name in the package and its tests is used, every
public function and class of the package has a user outside the unit
tests, the package imports nothing beyond the standard library and
numpy, only the CLI marches, and only the CLI imports the config."""

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


# what may keep a public name of the package alive: the package itself,
# the scripts, the benchmark and the acceptance tests, not the unit tests
USERS = (PACKAGE + sorted((REPO / "scripts").glob("*.py"))
         + sorted((REPO / "benchmark").glob("*.py"))
         + [REPO / "tests" / "test_acceptance.py"])


def from_package(node: ast.AST, package: str) -> bool:
    """Whether node is a ``from ... import`` out of the package."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or node.module.split(".")[0] == package)


def module_bindings(tree: ast.Module, package: str, modules) -> set[str]:
    """Names the file binds to the package or to one of its modules."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or package for alias in node.names
                         if alias.name.split(".")[0] == package)
        elif from_package(node, package) and node.module in (None, package):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name in modules)
    return bound


def references(node: ast.AST, package: str, bound: set[str]) -> set[str]:
    """Names node takes from the package: names imported from it, and
    attributes read off a name in ``bound`` (through any chain of
    attributes, as in nlstable.cli.main)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.add(sub.attr)
        elif from_package(sub, package):
            found.update(alias.name for alias in sub.names)
    return found


def loads(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def unreferenced_public(modules: dict, users: dict,
                        package: str) -> list[str]:
    """Public top-level functions and classes of the package's parsed
    modules (keyed by module name) that no top-level statement of the
    parsed users references, other than their own definition.  A user
    references a name by taking it from the package (``references``);
    the defining module also by loading it.  A module that is also a
    user is passed as the same tree in both."""
    refs = []
    for user in users.values():
        bound = module_bindings(user, package, modules)
        refs += [(user, stmt, references(stmt, package, bound), loads(stmt))
                 for stmt in user.body]
    return [f"{name}:{stmt.name}" for name, tree in modules.items()
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not any(stmt.name in taken
                        or (user is tree and stmt.name in loaded)
                        for user, other, taken, loaded in refs
                        if other is not stmt)]


def test_every_public_name_has_a_user():
    trees = {str(p.relative_to(REPO)): ast.parse(p.read_text())
             for p in USERS}
    package = {pathlib.Path(name).stem: tree for name, tree in trees.items()
               if name.startswith("src")}
    assert unreferenced_public(package, trees, "nlstable") == []


def test_detects_an_unreferenced_public_name():
    """Neither json.dumps nor a bare name in another file keeps a
    package name alive."""
    lib = ast.parse("def used(): pass\n"
                    "def recursive(n): return recursive(n - 1)\n"
                    "class Dead: x = 1\n"
                    "def _private(): pass\n"
                    "def called(): return used()\n"
                    "def dumps(): pass\n"
                    "def imported(): pass\n"
                    "def via_alias(): pass\n")
    user = ast.parse("import json\nimport pkg.lib\n"
                     "from pkg import lib as other\n"
                     "from pkg.lib import imported\n"
                     "pkg.lib.called()\nother.via_alias()\n"
                     "json.dumps(imported)\nDead()\n")
    assert unreferenced_public({"lib": lib}, {"lib": lib, "user": user},
                               "pkg") \
        == ["lib:recursive", "lib:Dead", "lib:dumps"]


def marching_functions(solver: ast.Module) -> set[str]:
    """``_march_rows`` (the one loop of the march) and every function of
    solver that calls a marching function."""
    bodies = {stmt.name: loads(stmt) for stmt in solver.body
              if isinstance(stmt, ast.FunctionDef)}
    found, grown = set(), {"_march_rows"}
    while grown:
        found |= grown
        grown = {name for name, names in bodies.items()
                 if names & found} - found
    return found


def solver_names(tree: ast.Module) -> set[str]:
    """Names a package module imports from solver or reads off a name
    bound to it."""
    bound = module_bindings(tree, "nlstable", {"solver"})
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[-1] == "solver":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) and node.value.id in bound:
            names.add(node.attr)
    return names


def test_diagnostics_import_no_march():
    """Only the CLI marches: the checker, the engine, the oracle and the
    regularity probes take surfaces and import no marching function."""
    src = REPO / "src" / "nlstable"
    marching = marching_functions(ast.parse((src / "solver.py").read_text()))
    assert {"_march_rows", "solve_forward", "scaling_check",
            "dpp_check"} <= marching
    found = {name: solver_names(ast.parse((src / f"{name}.py").read_text()))
             & marching
             for name in ("checker", "engine", "oracle", "regularity")}
    assert {name: names for name, names in found.items() if names} == {}


def test_detects_a_marching_import():
    solver = ast.parse("def _march_rows(): pass\n"
                       "def dpp_check(): return max(_march_rows())\n"
                       "def solve_forward(): return list(_march_rows())\n"
                       "def check(): return solve_forward()\n"
                       "def evaluate_row(): pass\n")
    user = ast.parse("from .solver import evaluate_row, dpp_check\n"
                     "from .kernels import check\n"
                     "from . import solver as s\n"
                     "s.check()\n")
    assert solver_names(user) & marching_functions(solver) \
        == {"dpp_check", "check"}


def package_imports(tree: ast.Module, package: str) -> set[str]:
    """The package's modules that tree imports by name: ``import
    package.m``, ``from package import m``, ``from package.m import x``
    and their relative forms."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith(package + "."))
        elif from_package(node, package):
            if node.module in (None, package):
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[-1])
    return found


def test_only_the_cli_imports_the_config():
    """The numerical modules take plain arguments and raise failures
    that name a field; only the CLI reads the config and tags the
    failures, and nothing imports the CLI."""
    found = {p.stem: package_imports(ast.parse(p.read_text()), "nlstable")
             & {"config", "cli"} for p in PACKAGE}
    assert {name: mods for name, mods in found.items() if mods} \
        == {"cli": {"config"}}


def test_detects_a_config_import():
    tree = ast.parse("from .config import ConfigError\n"
                     "from . import cli as c, kernels\n"
                     "import nlstable.solver, numpy\n"
                     "from nlstable.engine import run\n"
                     "from nlstable import oracle\n"
                     "from numpy import config\n")
    assert package_imports(tree, "nlstable") \
        == {"config", "cli", "kernels", "solver", "engine", "oracle"}


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
    """Nor the export's thread pool, which only solve's export loads."""
    loaded = fresh_cli_import("print(*sys.modules)")
    assert "nlstable.cli" in loaded
    assert [m for m in loaded
            if m.split(".")[0] in ("scipy", "concurrent")] == []


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
