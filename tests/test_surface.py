"""Public surface: every exported name exists, and the package imports resolve."""

import ast
import importlib
import inspect
import pkgutil
import re
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


def workloads_and_modules():
    """The AST of perfbench/workloads.py, and the package modules it names by alias."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"{node.module}.{alias.name}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("offset_risk")
        for alias in node.names
    }
    assert set("CEIKMR") <= modules.keys()
    return tree, modules


def test_benchmark_workloads_read_existing_names():
    # The benchmark runs perfbench/workloads.py against this package, so a
    # deleted or renamed name it reads must fail here, not in a benchmark run.
    tree, modules = workloads_and_modules()
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    missing = sorted(f"{name}.{attr}" for name, attr in reads if not hasattr(modules[name], attr))
    assert reads and not missing, f"perfbench/workloads.py reads missing names: {missing}"


def test_benchmark_workloads_pass_arguments_their_callees_take():
    # A renamed keyword would make every task of its workload raise, so the
    # benchmark would read pass_frac 0; each call must bind to its signature.
    tree, modules = workloads_and_modules()
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
    ]
    unbound = []
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)  # no **kwargs to unpack
        callee = getattr(modules[call.func.value.id], call.func.attr)
        try:
            inspect.signature(callee).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
        except TypeError as err:
            unbound.append(f"line {call.lineno}: {call.func.value.id}.{call.func.attr}: {err}")
    assert sum(len(call.keywords) for call in calls) >= 34
    assert not unbound, f"perfbench/workloads.py calls that do not bind: {unbound}"


README = Path(__file__).resolve().parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_example_runs(block):
    # A renamed evaluator or API name then fails here, not for a reader.
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
