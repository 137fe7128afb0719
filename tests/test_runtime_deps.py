"""The package runs on numpy alone: every import under src/shiftlab, at
module level or inside a function, names the standard library, numpy or
the package itself, so a new third-party dependency fails here."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "shiftlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "shiftlab"}


def _import_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = sorted((f.name, root) for f in files
                 for root in _import_roots(ast.parse(f.read_text(), str(f)))
                 if root not in ALLOWED)
    assert not bad, bad
