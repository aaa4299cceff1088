"""The test configuration itself: a failing test fails alone, and the suite goes on;
and the source itself: every import is used."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report imports libcst, which warns through
    # mypy_extensions; under filterwarnings = error that ended the session in
    # an INTERNALERROR before the second test ran.
    (tmp_path / "test_one_fails.py").write_text(ONE_FAILING_PROPERTY)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_one_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout


SRC = Path(__file__).resolve().parents[1] / "src" / "offset_risk"


def _unused_imports(path):
    """Names a module imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_source_modules_use_every_import():
    # The package __init__ modules are re-export namespaces, so they are exempt.
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 10
    unused = {str(p.relative_to(SRC)): found for p in modules if (found := _unused_imports(p))}
    assert unused == {}
