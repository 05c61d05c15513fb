"""The package's public surface is what its commands, tools, demos and
benchmark reach: every public top-level function or class of
src/distortion/*.py must be referenced (as a name, an attribute or an
import) somewhere in the package outside its own definition, or in tools/,
demos/ or perfbench/.  A definition that only tests call fails here; the
few kept on purpose are listed with their reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "distortion"

ALLOWED = {
    "solve_exact": "perfbench/tracing.py wraps it by its dotted name, a string the AST walk does not see",
    "smith_normal_form": "the Smith form's public seam, checked against sympy in the tests",
}


def _referenced(node) -> set[str]:
    """Names, attribute names and imported names used anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


# every top-level statement of the package, with its module's file name
STATEMENTS = [(path.name, stmt) for path in sorted(PACKAGE.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
PUBLIC = [(module, stmt) for module, stmt in STATEMENTS
          if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")]


def test_every_public_definition_is_reached():
    outside = set()
    for folder in ("tools", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _referenced(ast.parse(path.read_text()))
    # references are collected per top-level statement, so that a
    # definition's own body (a recursive call) does not count for it
    refs = [(stmt, _referenced(stmt)) for _, stmt in STATEMENTS]
    unreached = [
        f"{module}:{d.name}"
        for module, d in PUBLIC
        if d.name not in ALLOWED
        and d.name not in outside
        and not any(d.name in names for stmt, names in refs if stmt is not d)
    ]
    assert not unreached, f"public definitions no command, tool, demo or benchmark reaches: {unreached}"


def test_allowed_names_exist():
    assert set(ALLOWED) <= {d.name for _, d in PUBLIC}
