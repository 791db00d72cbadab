import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqlalign
import sqlalign.cli

SRC = str(Path(sqlalign.__file__).parents[1])


def test_all_names_resolve_and_are_sorted_once():
    assert [name for name in sqlalign.__all__ if not hasattr(sqlalign, name)] == []
    assert sqlalign.__all__ == sorted(set(sqlalign.__all__))


def _loaded_by_importing_the_cli(names: set[str]) -> str:
    """Which of the named modules ``import sqlalign.cli`` loads, printed by
    a fresh interpreter. Modules that it loaded before the import, as site
    may, do not count."""
    code = ("import sys; before = set(sys.modules); import sqlalign.cli; "
            f"print(sorted({names!r} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_logging():
    # Every CLI process pays for what the import loads.
    assert _loaded_by_importing_the_cli({"dataclasses", "inspect", "logging"}) == "[]\n"


def test_importing_the_cli_loads_none_of_the_modules_only_the_fork_needs():
    # align imports these on its forked path alone, so no other command
    # pays for them.
    assert _loaded_by_importing_the_cli({"pickle", "signal", "traceback"}) == "[]\n"


def test_the_package_imports_only_the_standard_library():
    imported = set()
    for path in Path(sqlalign.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and sorted(imported - sys.stdlib_module_names) == []


def test_every_python_file_parses_as_python_3_10():
    # The package supports Python 3.10; syntax of a later version would
    # break it there even when the tests run on a later interpreter.
    root = Path(__file__).parents[1]
    paths = sorted(path for folder in ("src", "tests", "bench")
                   for path in (root / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_pyproject_names_the_cli_and_the_package_version():
    # The tests run the package from src without installing it, so check
    # what an install reads: the version, the console script and the
    # supported Pythons.
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == sqlalign.__version__
    assert project["scripts"]["sqlalign"] == "sqlalign.cli:main"
    module, name = project["scripts"]["sqlalign"].split(":")
    assert getattr(importlib.import_module(module), name) is sqlalign.cli.main
    # The feature_version that test_every_python_file_parses_as_python_3_10 checks.
    assert project["requires-python"] == ">=3.10"
