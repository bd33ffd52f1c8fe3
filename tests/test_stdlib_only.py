"""The engine imports nothing outside the standard library, and nothing slow.

Every module under ``src/homnambu`` is parsed, not imported, and every
absolute import must name ``homnambu`` itself or a standard-library module;
relative imports stay inside the package by construction.  Every name a
module imports is used in it (the package ``__init__`` re-exports, so it is
exempt).  A clean interpreter that imports the CLI must not load the heavy
start-up modules.
"""

import ast
import subprocess
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


def unused_imports(path: Path) -> set[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 10
    unused = {(path.name, name) for path in modules for name in unused_imports(path)}
    assert not unused


# Standard-library modules each one-shot CLI command would pay for at start-up; json is loaded
# only by the commands that read a document file or print structured output, argparse (and
# gettext, which it imports) only for help, usage errors and argv the command table does not read.
HEAVY_AT_STARTUP = ("dataclasses", "inspect", "ast", "dis", "typing", "json", "argparse", "gettext")


def test_cli_import_loads_no_heavy_module():
    """Run with ``-S``: site's ``.pth`` preloads (often ``typing``) would mask a regression."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import homnambu.cli; "
        f"print(sorted(set({HEAVY_AT_STARTUP!r}) & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_well_formed_commands_load_no_argparse():
    """A well-formed command runs without argparse; a usage error still goes through it (exit 2)."""
    probe = "\n".join([
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); from homnambu import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['check', 'catalog:g1_0_2']), cli.main(['catalog', 'show', 'osp12'])]",
        "loaded = sorted({'argparse', 'gettext'} & set(sys.modules))",
        "with contextlib.redirect_stderr(io.StringIO()):",
        "    try:",
        "        cli.main(['check'])",
        "    except SystemExit as exc:",
        "        codes.append(exc.code)",
        "print(codes, loaded, 'argparse' in sys.modules)",
    ])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[0, 0, 2] [] True"


def test_catalog_documents_are_written_without_json():
    """Catalog entries are read from dicts and emit quotes strings itself, so neither command loads json."""
    probe = "\n".join([
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); from homnambu import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['induce', 'catalog:g3_1_1', '--method', 'iterate', '--n', '3']),",
        "             cli.main(['catalog', 'show', 'osp12'])]",
        "print(codes, 'json' in sys.modules)",
    ])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[0, 0] False"
