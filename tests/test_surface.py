"""Public surface: every exported name exists, and the package imports resolve."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import offset_risk

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(offset_risk.__path__, prefix="offset_risk.")
)
PACKAGES = ["offset_risk", "offset_risk.harness"]


@pytest.mark.parametrize("name", ["offset_risk", *MODULES])
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_exist_in_their_modules(name):
    package = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(package))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports, f"{name} imports nothing"
    for node in imports:
        source = importlib.import_module(
            "." * node.level + (node.module or ""), package=name
        )
        for alias in node.names:
            assert hasattr(source, alias.name), f"{source.__name__}.{alias.name} is gone"
            assert alias.name in source.__all__, (
                f"{name} imports {alias.name}, which {source.__name__}.__all__ does not list"
            )
            assert getattr(package, alias.asname or alias.name) is getattr(source, alias.name)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_workloads_read_existing_names():
    # The benchmark runs perfbench/workloads.py against this package, so a
    # deleted or renamed name it reads must fail here, not in a benchmark run.
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"{node.module}.{alias.name}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("offset_risk")
        for alias in node.names
    }
    assert set("CEIKMR") <= modules.keys()
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    missing = sorted(f"{name}.{attr}" for name, attr in reads if not hasattr(modules[name], attr))
    assert reads and not missing, f"perfbench/workloads.py reads missing names: {missing}"
