"""The CLI run as separate processes, the way a user runs it: reports,
stderr and exit codes must not depend on the process's string-hash seed,
and no file may be opened in the locale's default encoding."""

import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import sqlalign
from corpusgen import FAR_SKELETONS, make_mixture_corpus

SRC = str(Path(sqlalign.__file__).parents[1])


def _write_corpora(directory: Path) -> dict[str, Path]:
    """Corpora that share strings: the sources and predictions repeat
    queries of the target and of each other, and some rows fail to parse."""
    rng = random.Random(4)
    target = make_mixture_corpus(40, seed=1)
    near = make_mixture_corpus(20, seed=2)
    far = make_mixture_corpus(20, seed=3, skeletons=FAR_SKELETONS)
    broken = ["SELECT broken FROM", "SELECT a FROM t WHERE", "( (", "SELECT COUNT( FROM t",
              "SELECT 'open FROM t", "SELECT a FROM t t2 t3"]
    corpora = {
        "target": target + broken[:2],
        "train": rng.sample(target, 20) + near + broken[2:4],
        "far": far + rng.sample(near, 10),
        "before": rng.sample(target, 15) + near + broken[:3],
        "after": rng.sample(target, 25) + far[:10] + broken[3:],
    }
    paths = {}
    for name, sqls in corpora.items():
        if name in ("before", "after"):  # prediction dumps, as CSV
            paths[name] = directory / f"{name}.csv"
            with open(paths[name], "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["sql"])
                writer.writerows([sql] for sql in sqls)
        else:
            paths[name] = directory / f"{name}.jsonl"
            paths[name].write_text("".join(json.dumps({"sql": sql}) + "\n" for sql in sqls),
                                   encoding="utf-8")
    return paths


def _commands(paths: dict[str, Path]) -> dict[str, tuple[list, list[str]]]:
    """Each command's argv and the options naming the files it writes."""
    align = ["align", "--target", paths["target"], "--source", paths["train"],
             "--source", paths["far"], "--source", paths["before"]]
    return {
        "templates": (["templates", paths["target"]], ["-o", "--report", "--distribution"]),
        "align_json": (align, ["-o"]),
        "align_csv": (align + ["--format", "csv"], ["-o"]),
        "ar": (["ar", "--target", paths["target"], "--train", paths["train"],
                "--pred", paths["before"], "--c", "2.0"], ["-o"]),
        "patterns": (["patterns", "--before", paths["before"], "--after", paths["after"]],
                     ["-o"]),
    }


def _run_all(paths: dict[str, Path], out_dir: Path, hash_seed: str) -> dict:
    out_dir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    results = {}
    for name, (argv, options) in _commands(paths).items():
        outputs = [out_dir / f"{name}{option}" for option in options]
        # An open() that relies on the locale's encoding warns. The CLI
        # prints every warning it raises as a "sqlalign: warning:" line,
        # which the test refuses; -W turns one raised outside it into an
        # error.
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "sqlalign.cli",
                               *map(str, argv),
                               *(str(a) for pair in zip(options, outputs) for a in pair)],
                              capture_output=True, env=env, timeout=120)
        results[name] = (proc.returncode, proc.stderr, [out.read_bytes() for out in outputs])
    return results


def test_reports_are_identical_across_hash_seeds(tmp_path):
    paths = _write_corpora(tmp_path)
    first = _run_all(paths, tmp_path / "seed0", "0")
    second = _run_all(paths, tmp_path / "seed1", "1")
    assert first == second
    assert {name: code for name, (code, _, _) in first.items()} == dict.fromkeys(first, 0)
    assert [name for name, (_, stderr, _) in first.items() if b"warning" in stderr] == []
    assert first["patterns"][1] == b"patterns: before_failures=3 after_failures=3\n"
