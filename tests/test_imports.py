"""Every name that a module of the package imports is used in it, only lti
imports csv, no module rebinds a global, and importing ventrc starts no
process pool's modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ventrc

MODULES = sorted(p for p in Path(ventrc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # the package's imports are its exports


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import csv\nfrom pathlib import Path\nPath()\n") == ["line 1: csv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that source imports from outside itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    source = "from csv import writer\nimport os.path\nfrom .lti import write_table\n"
    assert imported_modules(source) == {"csv", "os"}


def test_only_lti_imports_csv():
    # lti.write_table and lti.read_table are the one CSV writer and reader
    assert [p.name for p in MODULES if "csv" in imported_modules(p.read_text())] == ["lti.py"]


def global_statements(source: str) -> list[str]:
    return [f"line {node.lineno}: global {', '.join(node.names)}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


def test_global_statement_is_found():
    source = "STATE = None\n\ndef reset():\n    global STATE\n    STATE = {}\n"
    assert global_statements(source) == ["line 4: global STATE"]


def test_no_module_rebinds_a_global():
    # state that calls share belongs to an object that the caller creates
    package = Path(ventrc.__file__).parent
    found = {p.name: global_statements(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_importing_ventrc_loads_no_process_pool():
    # run_full_pipeline imports its formatters' modules when it forks them,
    # so that the other commands do not pay for them
    probe = ("import sys, ventrc.cli; print(sorted(m for m in "
             "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    src = Path(ventrc.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"
