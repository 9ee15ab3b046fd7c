"""The benchmark's contract: every name `perfbench/` imports from edgevad exists.

The benchmark runs the same `perfbench/` scripts against each commit, so an
edgevad name they import must not be renamed or deleted. This test only reads
those scripts.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def edgevad_imports():
    """(script, module, name) for each `from edgevad... import name` and
    (script, module, None) for each `import edgevad...` in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edgevad":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "edgevad"]
    return found


def test_perfbench_imports_edgevad():
    assert any(module == "edgevad.pipeline" for _, module, _ in edgevad_imports())


@pytest.mark.parametrize("script, module, name", edgevad_imports())
def test_imported_name_exists(script, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        # `from edgevad import rtfm` names a submodule, not an attribute set yet
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"perfbench/{script} imports {name} from {module}, which has no such name")
