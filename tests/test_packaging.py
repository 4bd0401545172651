"""What pyproject.toml declares must exist: every dependency imports and
every console-script target resolves. Every name in a src/ package's
__all__ resolves. Every module in src/ and tests/ reads each name it
imports."""

import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

PROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
REQUIREMENTS = PROJECT.get("dependencies", []) + [
    req for group in PROJECT.get("optional-dependencies", {}).values() for req in group]


@pytest.mark.parametrize("requirement", REQUIREMENTS)
def test_declared_dependency_imports(requirement):
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    importlib.import_module(name.replace("-", "_").lower())


def test_script_targets_resolve():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(".".join(init.parent.relative_to(SRC).parts)
                  for init in SRC.rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def _unused_imports(path):
    """Names a module imports and never reads; names in __all__ count as read."""
    tree = ast.parse(path.read_text())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("package", ["src", "tests"])
def test_no_unused_imports(package):
    root = Path(__file__).resolve().parents[1] / package
    unused = [entry for path in sorted(root.rglob("*.py")) for entry in _unused_imports(path)]
    assert unused == []
