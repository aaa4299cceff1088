"""Public surface: every exported name exists, and the package imports resolve."""

import ast
import importlib
import inspect
import pkgutil

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
