"""Packaging: every third-party module the package imports is declared.

Walks every module under ``src/repro``, collects the top-level names of its
absolute imports, and checks that each one outside the standard library and
the package itself appears in ``[project].dependencies`` of
``pyproject.toml`` — so ``pip install`` of the package is enough to run it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def imported_top_level_modules(package_dir):
    names = set()
    for path in package_dir.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def test_every_third_party_import_is_a_declared_dependency():
    third_party = {name for name in imported_top_level_modules(PACKAGE)
                   if name not in sys.stdlib_module_names and name != "repro"}
    assert third_party, "expected at least numpy among the package imports"
    missing = sorted(third_party - declared_dependencies())
    assert not missing, (
        f"imported under src/repro but missing from "
        f"[project].dependencies in pyproject.toml: {missing}")
