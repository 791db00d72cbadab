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


def _loaded_by_importing_the_cli(names: set[str], then: str = "") -> str:
    """Which of the named modules ``import sqlalign.cli`` loads, and the
    statements ``then`` after it, printed by a fresh interpreter. Modules
    that it loaded before the import, as site may, do not count."""
    code = ("import sys\nbefore = set(sys.modules)\nimport sqlalign.cli\n"
            f"{then}\nprint(sorted({names!r} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_logging():
    # Every CLI process pays for what the import loads.
    assert _loaded_by_importing_the_cli({"dataclasses", "inspect", "logging"}) == "[]\n"


_FAILURE_ONLY = {"pickle", "signal", "traceback"}


def test_importing_the_cli_loads_none_of_the_modules_only_the_fork_needs():
    # Every CLI process pays for what the import loads. No command needs
    # pickle or signal, and traceback serves only an error that is not a
    # data error.
    assert _loaded_by_importing_the_cli(_FAILURE_ONLY) == "[]\n"


def test_a_forked_ar_and_align_that_succeed_load_none_of_the_modules_a_failing_fork_needs(
        tmp_path):
    # The name dates from when ar, align and patterns forked. Each now
    # runs in one process, and a success loads none of pickle, signal and
    # traceback.
    paths = []
    for i, sql in enumerate(["SELECT a FROM t", "SELECT COUNT(*) FROM u WHERE b > 1",
                             "SELECT c, SUM(d) FROM v GROUP BY c"]):
        paths.append(str(tmp_path / f"c{i}.jsonl"))
        Path(paths[-1]).write_text(f'{{"sql": "{sql}"}}\n{{"sql": "SELECT broken FROM"}}\n',
                                   encoding="utf-8")
    out = str(tmp_path / "out.json")
    commands = [["ar", "--target", paths[0], "--train", paths[1], "--pred", paths[2],
                 "--c", "1", "-o", out],
                ["align", "--target", paths[0], "--source", paths[1], "--source", paths[2],
                 "-o", out],
                ["patterns", "--before", paths[0], "--after", paths[1], "-o", out]]
    # Without os.fork, a command that still forked would raise.
    then = f"import os\ndel os.fork\nprint([sqlalign.cli.main(argv) for argv in {commands!r}])"
    assert _loaded_by_importing_the_cli(_FAILURE_ONLY, then) == "[0, 0, 0]\n[]\n"


@pytest.mark.parametrize("command", ["templates", "ar"])
def test_a_command_run_as_a_process_loads_none_of_the_modules_only_a_failure_needs(
        tmp_path, command):
    # The process flushes stdio and leaves by os._exit, which needs no
    # module and runs no atexit hook. Here os._exit prints the modules
    # that the program loaded before it ends the process, once.
    path = str(tmp_path / "c.jsonl")
    Path(path).write_text('{"sql": "SELECT a FROM t"}\n{"sql": "SELECT broken FROM"}\n',
                          encoding="utf-8")
    argv = {
        "templates": ["templates", path],
        "ar": ["ar", "--target", path, "--train", path, "--pred", path, "--c", "1"],
    }[command]
    names = _FAILURE_ONLY | {"atexit", "logging"}
    code = ("import os, runpy, sys\nbefore = set(sys.modules)\nexit = os._exit\n"
            "def report(status):\n"
            f"    print(status, sorted({names!r} & (set(sys.modules) - before)), flush=True)\n"
            "    exit(status)\n"
            "os._exit = report\n"
            "runpy.run_module('sqlalign.cli', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "-o", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0 []\n")


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
    # The script ends the process as python -m sqlalign.cli does.
    assert project["scripts"]["sqlalign"] == "sqlalign.cli:run"
    module, name = project["scripts"]["sqlalign"].split(":")
    assert getattr(importlib.import_module(module), name) is sqlalign.cli.run
    # The feature_version that test_every_python_file_parses_as_python_3_10 checks.
    assert project["requires-python"] == ">=3.10"
