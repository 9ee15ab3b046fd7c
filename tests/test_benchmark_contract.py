"""The benchmark's contract: every name `perfbench/` imports from edgevad
exists, and the pipeline configs it writes and reads still fit PipelineConfig.

The benchmark runs the same `perfbench/` scripts against each commit, so an
edgevad name they import must not be renamed or deleted, and a config field
its workloads set or its worker reads must not go. This test only reads
those scripts.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from edgevad.pipeline import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


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


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_workload_config_builds_and_validates(workload, tmp_path):
    cfg = PipelineConfig(**WORKLOADS.make_config(workload, 0, tmp_path, smoke=True))
    cfg.validate()


def worker_cfg_fields():
    """Each `cfg.<attr>` that perfbench/worker.py reads."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    return sorted({
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "cfg"
    })


def test_worker_reads_some_config_fields():
    assert "frames_per_snippet" in worker_cfg_fields()


@pytest.mark.parametrize("name", worker_cfg_fields())
def test_worker_config_field_exists(name, tmp_path):
    cfg = PipelineConfig(**WORKLOADS.make_config("desk_default", 0, tmp_path, smoke=True))
    assert hasattr(cfg, name), f"perfbench/worker.py reads cfg.{name}, which PipelineConfig lacks"
