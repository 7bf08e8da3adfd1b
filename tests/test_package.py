"""Boundaries between the modules of the toolsmith package."""

import ast
from pathlib import Path

import toolsmith

PACKAGE = Path(toolsmith.__file__).parent


def private_imports(path: Path) -> list:
    """Each underscore name that the module at path imports from a toolsmith
    module, as "module:line name"; dunders such as __version__ are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "toolsmith":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    """A toolsmith module reaches another only through its public names, so
    an underscore name can change without breaking its importers."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []
