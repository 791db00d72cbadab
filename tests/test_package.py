import os
import subprocess
import sys
from pathlib import Path

import sqlalign

SRC = str(Path(sqlalign.__file__).parents[1])


def test_all_names_resolve_and_are_sorted_once():
    assert [name for name in sqlalign.__all__ if not hasattr(sqlalign, name)] == []
    assert sqlalign.__all__ == sorted(set(sqlalign.__all__))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_logging():
    # Every CLI process pays for what the import loads. Modules that the
    # interpreter loaded before the import, as site may, do not count.
    code = ("import sys; before = set(sys.modules); import sqlalign.cli; "
            "print(sorted({'dataclasses', 'inspect', 'logging'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"
