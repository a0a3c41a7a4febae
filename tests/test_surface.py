"""Every public name of the package is used by the package or the benchmark.

A public name is a top-level function or class of ``src/psl2cd/*.py``
whose name has no leading underscore.  It is used when some top-level
statement other than its own definition, in ``src/psl2cd/*.py`` or
``perfbench/*.py``, names it: as a name, an attribute or an imported
name.  A name that only the tests reach fails here, and is deleted or
made private.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "psl2cd").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _named(node: ast.AST) -> set[str]:
    """Every identifier that node and its children name."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def _statements() -> list[tuple[Path, ast.stmt, set[str]]]:
    return [
        (path, stmt, _named(stmt))
        for path in USERS
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]


def test_every_public_definition_is_used_outside_itself():
    statements = _statements()
    public = [
        (path, stmt)
        for path, stmt, _ in statements
        if path in SOURCES
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
    ]
    assert len(public) > 30  # the scan sees the package
    unused = [
        f"{path.stem}.{stmt.name}"
        for path, stmt in public
        if not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []
