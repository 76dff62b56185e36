"""The package's layers: route modules compute routes, suites checks them.

Each identity is checked as the agreement of independent routes, so a
route module imports from the package only the ground the routes share
(root data, series arithmetic and the Kostant listing), never another
route, and only suites, which holds every check, builds reports.  The
tests' oracles stay off the code they check: they import from the
package only the root data and the series arithmetic.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quasiflags"
ROUTES = ("kostant", "cohomology", "cells", "modchar", "quiverfilt")
SHARED = {"rootdata", "charseries", "kostant"}


def package_imports(name, folder=SRC):
    """The quasiflags modules that module `name` of `folder` imports."""
    found = set()
    for node in ast.walk(ast.parse((folder / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found.update(parts[1] for parts in names if parts[0] == "quasiflags" and parts[1:])
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        top, _, module = (node.module or "").partition(".")
        if node.level:
            module = node.module or ""
        elif top != "quasiflags":
            continue
        if module:
            found.add(module.partition(".")[0])
        else:  # `from . import x` and `from quasiflags import x` name modules
            found.update(a.name for a in node.names)
    return found


def test_route_modules_import_only_the_shared_layers():
    crossings = [f"{name} -> {dep}" for name in ROUTES for dep in package_imports(name) - SHARED]
    assert sorted(crossings) == []


def test_only_suites_imports_reports():
    importers = sorted(p.stem for p in SRC.glob("*.py") if "reports" in package_imports(p.stem))
    assert importers == ["suites"]


def test_oracles_import_only_root_data_and_series():
    assert package_imports("oracles", TESTS) == {"rootdata", "charseries"}


def test_package_imports_reads_every_import_form():
    assert package_imports("suites") >= {"cells", "cohomology", "modchar", "quiverfilt", "reports"}
    assert package_imports("cli") >= {"cells", "cohomology", "suites", "kostant", "rootdata"}
