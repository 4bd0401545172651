"""What pyproject.toml declares must exist: every dependency imports and
every console-script target resolves."""

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
