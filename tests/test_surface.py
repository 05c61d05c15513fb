"""The package's public surface is what its commands, tools, demos and
benchmark reach: every public top-level function or class of
src/distortion/*.py, and every public method of a public class, must be
referenced (as a name, an attribute or an import) somewhere in the package
outside its own definition, or in tools/, demos/ or perfbench/.  A
definition that only tests call fails here; the few kept on purpose are
listed with their reason.  The last checks keep a target's coordinates
inside exterior.py and opaque maps out of EquivariantDatum."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "distortion"

ALLOWED = {
    "solve_exact": "perfbench/tracing.py wraps it by its dotted name, a string the AST walk does not see",
    "is_symplectic": "perfbench/tracing.py wraps it by its dotted name, a string the AST walk does not see",
    "SemidirectGroup.multiply": "the group law, an oracle for test_oracle's group-law and ball checks",
    "SemidirectGroup.invert": "the group law's inverse, an oracle for test_oracle's group-law and ball checks",
    "BfsBall.lengths": "the ball as a {state: length} dict, which test_oracle's ball checks read",
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


def _attributes(node) -> set[str]:
    """Attribute names used anywhere under node: a method is reached only so."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


# every top-level statement of the package, with its module's file name
STATEMENTS = [(path.name, stmt) for path in sorted(PACKAGE.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
PUBLIC = [(module, stmt) for module, stmt in STATEMENTS
          if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")]
# every public method of a public class, named Class.method
METHODS = [(module, f"{cls.name}.{stmt.name}", stmt) for module, cls in PUBLIC if isinstance(cls, ast.ClassDef)
           for stmt in cls.body if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]


def test_every_public_definition_is_reached():
    outside, outside_attrs = set(), set()
    for folder in ("tools", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            outside |= _referenced(tree)
            outside_attrs |= _attributes(tree)
    # references are collected per top-level statement, and per statement of
    # a class body, so that a definition's own body (a recursive call) does
    # not count for it
    units = [(stmt, sub) for _, stmt in STATEMENTS
             for sub in ([*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]
                         if isinstance(stmt, ast.ClassDef) else [stmt])]
    refs = [(top, sub, _referenced(sub), _attributes(sub)) for top, sub in units]
    unreached = [
        f"{module}:{d.name}"
        for module, d in PUBLIC
        if d.name not in ALLOWED
        and d.name not in outside
        and not any(d.name in names for top, _, names, _ in refs if top is not d)
    ] + [
        f"{module}:{name}"
        for module, name, m in METHODS
        if name not in ALLOWED
        and m.name not in outside_attrs
        and not any(m.name in attrs for _, sub, _, attrs in refs if sub is not m)
    ]
    assert not unreached, f"public definitions no command, tool, demo or benchmark reaches: {unreached}"


def test_allowed_names_exist():
    assert set(ALLOWED) <= {d.name for _, d in PUBLIC} | {name for _, name, _ in METHODS}
    # an allowance for a traced layer lapses once tracing.py drops the layer
    tracing = (ROOT / "perfbench" / "tracing.py").read_text()
    modules = {d.name: module for module, d in PUBLIC}
    for name, reason in ALLOWED.items():
        if "perfbench/tracing.py" in reason:
            layer = f"{Path(modules[name]).stem}.{name}"
            assert f'"{layer}"' in tracing, f"{name}: tracing.py has no layer {layer!r}"


def test_only_exterior_reads_target_coordinates():
    # a target's coordinates (H/W, the basis triples, the quotient's
    # transforms) are read in exterior.py alone: elsewhere a target is its
    # free_rank, its value() and induced_action
    fields = {"h_quotient", "module", "space"}
    readers = sorted({module for module, stmt in STATEMENTS if module != "exterior.py" and _attributes(stmt) & fields})
    assert not readers, f"modules that read a target's coordinates: {readers}"


def test_datum_holds_no_callable():
    # a datum names its functor (a target, or None for H itself) and values
    # its symbols from that target: a field holding an opaque map would
    # bring back the run-time shape check on rho
    datum = next(stmt for module, stmt in STATEMENTS
                 if module == "engine.py" and isinstance(stmt, ast.ClassDef) and stmt.name == "EquivariantDatum")
    fields = {ast.unparse(s.target): ast.unparse(s.annotation) for s in datum.body if isinstance(s, ast.AnnAssign)}
    assert "genus" in fields and "target" in fields
    opaque = [name for name, annotation in fields.items() if "Callable" in annotation]
    assert not opaque, f"EquivariantDatum fields annotated Callable: {opaque}"
