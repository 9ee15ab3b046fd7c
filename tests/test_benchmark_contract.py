"""The benchmark's contract: every name `perfbench/` imports from edgevad
exists, and the pipeline configs it writes and reads still fit PipelineConfig.

The benchmark runs the same `perfbench/` scripts against each commit, so an
edgevad name they import must not be renamed or deleted, and neither may a
config field its workloads set or its worker reads, nor an attribute its
worker reads on a memory plan, a runner or a tensor's meta. This test only
reads those scripts.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from edgevad.extractor import build_extractor, desk_scale_config
from edgevad.graphopt import GraphRunner, optimize
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


def worker_attribute_reads():
    """(owner, attr) for each `plan.<attr>`, `runner.<attr>` and
    `<graph>.meta[...].<attr>` that perfbench/worker.py reads."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    found = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Attribute):
            continue
        if isinstance(n.value, ast.Name) and n.value.id in ("plan", "runner"):
            found.add((n.value.id, n.attr))
        elif isinstance(n.value, ast.Subscript) and isinstance(n.value.value, ast.Attribute) \
                and n.value.value.attr == "meta":
            found.add(("meta", n.attr))
    return sorted(found)


def test_worker_reads_plan_runner_and_meta_attributes():
    owners = {owner for owner, _ in worker_attribute_reads()}
    assert owners == {"plan", "runner", "meta"}


@pytest.fixture(scope="module")
def optimized_desk():
    """A planned desk graph as the worker builds it: (graph, plan, runner)."""
    graph, plan = optimize(build_extractor(desk_scale_config(), seed=0))
    return graph, plan, GraphRunner(graph, plan)


@pytest.mark.parametrize("owner, attr", worker_attribute_reads())
def test_worker_attribute_exists(owner, attr, optimized_desk):
    graph, plan, runner = optimized_desk
    obj = {"plan": plan, "runner": runner, "meta": graph.meta[graph.inputs[0]]}[owner]
    assert hasattr(obj, attr), f"perfbench/worker.py reads {owner}.{attr}, which {type(obj).__name__} lacks"
