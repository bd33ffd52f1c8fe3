"""The engine imports nothing outside the standard library.

Every module under ``src/homnambu`` is parsed, not imported, and every
absolute import must name ``homnambu`` itself or a standard-library module;
relative imports stay inside the package by construction.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homnambu"


def imported_top_levels(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_engine_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    foreign = {
        (path.name, name)
        for path in modules
        for name in imported_top_levels(path)
        if name != "homnambu" and name not in sys.stdlib_module_names
    }
    assert not foreign
