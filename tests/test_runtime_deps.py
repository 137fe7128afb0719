"""The package runs on numpy alone: every import under src/shiftlab, at
module level or inside a function, names the standard library, numpy or
the package itself, so a new third-party dependency fails here.  The
rule that turns a plan's displacement tables into shift reads has one
owner, ShiftPlan.shifts, and the rule that makes the tables has one,
build_shift_plan.  The reference convolutions import nothing of the
package but .tensor."""

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


# sw_op owns the tables (ShiftPlan.shifts, and the oracle sw_forward);
# analysis.coverage_ratio paints the vertical branch by definition
DISP_READERS = {"sw_op.py", "analysis.py"}


def test_only_sw_op_and_analysis_read_displacement_tables():
    bad = sorted((f.name, node.lineno) for f in sorted(SRC.glob("*.py"))
                 if f.name not in DISP_READERS
                 for node in ast.walk(ast.parse(f.read_text(), str(f)))
                 if isinstance(node, ast.Attribute) and node.attr in ("disp_h", "disp_w"))
    assert not bad, bad


def test_only_sw_op_builds_a_shift_plan():
    bad = sorted((f.name, node.lineno) for f in sorted(SRC.glob("*.py"))
                 if f.name != "sw_op.py"
                 for node in ast.walk(ast.parse(f.read_text(), str(f)))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ShiftPlan")
    assert not bad, bad


def test_conv_ref_imports_only_numpy_and_tensor():
    """The reference convolutions stay an independent oracle: besides the
    standard library, conv_ref imports numpy and, of the package, only
    .tensor, so no rule of bench or sw_op can reach its tap loop."""
    tree = ast.parse((SRC / "conv_ref.py").read_text())
    outside = sorted({root for root in _import_roots(tree)
                      if root not in sys.stdlib_module_names})
    package = sorted({"." * node.level + (node.module or "") for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level > 0})
    assert (outside, package) == (["numpy"], [".tensor"])
