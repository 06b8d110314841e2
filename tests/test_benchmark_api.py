"""Every ventrc name that the benchmark under ventbench/ wraps or imports exists.

The benchmark is kept apart from the package, so a rename or deletion in
ventrc would otherwise only show when a traced benchmark run fails.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

VENTBENCH = Path(__file__).resolve().parent.parent / "ventbench"


def traced_targets():
    # spans.py imports only the standard library, so loading it is cheap
    spec = importlib.util.spec_from_file_location("ventbench_spans", VENTBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def worker_imports():
    tree = ast.parse((VENTBENCH / "worker.py").read_text())
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ventrc"
            for alias in node.names]


TARGETS = traced_targets()


@pytest.mark.parametrize("name, module, attr, cls, record", TARGETS,
                         ids=[target[0] for target in TARGETS])
def test_traced_target_resolves(name, module, attr, cls, record):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module, name", worker_imports())
def test_worker_import_exists(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None
