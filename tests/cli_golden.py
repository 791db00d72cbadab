"""Golden record of what the command line writes.

``golden_lines()`` writes a few small seeded ``corpusgen`` corpora as
JSON, JSON-lines and CSV into a temporary directory, runs every case of
``CASES`` there as ``python -m sqlalign.cli`` in its own process, under
the caller's ``PYTHONHASHSEED`` or else 0 (the directory is the working
directory, so reports hold relative paths), and returns one JSON line
per case: its argv, exit code, stdout, stderr and the files it wrote. A file over ``MAX_INLINE`` bytes is kept as its
sha256 and size.

Running this module brings ``cli_golden.jsonl`` up to date. Lines already
in the file are kept as they are, so each stays what the code that first
wrote it produced; the code installed now only records the cases appended
to ``CASES`` since:

    PYTHONPATH=src:tests python3 tests/cli_golden.py

A change that alters what a recorded case writes re-records that case,
and no other, by name: its line is rewritten in place with the code
installed now, and every other line stays byte for byte as it was.

    PYTHONPATH=src:tests python3 tests/cli_golden.py --rerecord CASE [CASE ...]

Only run it on purpose: ``test_cli_golden.py`` checks the code against the
committed file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import golden_file
import sqlalign
from corpusgen import FAR_SKELETONS, make_mixture_corpus

GOLDEN_PATH = Path(__file__).with_name("cli_golden.jsonl")
SRC = str(Path(sqlalign.__file__).parents[1])
MAX_INLINE = 4096

# (name, argv, files the case writes). Cases may only be appended.
CASES = (
    ("templates_files", ["templates", "target.jsonl", "-o", "t.txt", "--report", "r.json",
                         "--distribution", "d.json"], ["t.txt", "r.json", "d.json"]),
    ("templates_files_l3", ["templates", "train.json", "-o", "t.txt", "--report", "r.json",
                            "--distribution", "d.json", "--l-max", "3"],
     ["t.txt", "r.json", "d.json"]),
    ("templates_stdout", ["templates", "before.csv"], []),
    ("templates_skip_bad_rows", ["templates", "gaps.jsonl", "--skip-bad-rows",
                                 "--report", "r.json"], ["r.json"]),
    ("align_json", ["align", "--target", "target.jsonl", "--source", "train.json",
                    "--source", "far.jsonl", "--source", "before.csv", "-o", "a.json"],
     ["a.json"]),
    ("align_csv", ["align", "--target", "target.jsonl", "--source", "train.json",
                   "--source", "far.jsonl", "--source", "missing.jsonl", "--format", "csv",
                   "-o", "a.csv"], ["a.csv"]),
    ("align_fixed_c", ["align", "--target", "before.csv", "--source", "after.csv",
                       "--source", "target.jsonl", "--c", "2", "--l-max", "3"], []),
    ("ar", ["ar", "--target", "target.jsonl", "--train", "train.json", "--pred", "before.csv",
            "--c", "2.0", "-o", "ar.json"], ["ar.json"]),
    ("patterns_json", ["patterns", "--before", "before.csv", "--after", "after.csv",
                       "-o", "p.json"], ["p.json"]),
    ("patterns_csv", ["patterns", "--before", "train.json", "--after", "far.jsonl",
                      "--format", "csv"], []),
    ("sample_fraction", ["sample", "target.jsonl", "--fraction", "0.5", "--seed", "3",
                         "--question-field", "question", "--group-field", "db_id"], []),
    ("sample_per_group", ["sample", "train.json", "--per-group", "2", "--group-field", "db_id",
                          "-o", "s.jsonl"], ["s.jsonl"]),
    ("templates_no_record_parses", ["templates", "bad.jsonl", "--report", "r.json"], ["r.json"]),
    ("ar_no_record_parses", ["ar", "--target", "target.jsonl", "--train", "bad.jsonl",
                             "--pred", "before.csv", "--c", "1"], []),
    ("align_single_source", ["align", "--target", "target.jsonl", "--source", "train.json",
                             "--format", "csv"], []),
    ("align_no_record_parses", ["align", "--target", "target.jsonl", "--source", "bad.jsonl",
                                "--source", "far.jsonl"], []),
    ("sample_group_field_no_row_holds", ["sample", "train.json", "--group-field", "nope",
                                         "--per-group", "1"], []),
    ("align_four_sources", ["align", "--target", "target.jsonl", "--source", "train.json",
                            "--source", "far.jsonl", "--source", "before.csv",
                            "--source", "after.csv"], []),
    ("ar_pred_no_record_parses", ["ar", "--target", "target.jsonl", "--train", "train.json",
                                  "--pred", "bad.jsonl", "--c", "1"], []),
    ("ar_skip_bad_rows_warns_before_an_earlier_error",
     ["ar", "--skip-bad-rows", "--target", "bad.jsonl", "--train", "train.json",
      "--pred", "gaps.jsonl", "--c", "1"], []),
    ("patterns_before_no_record_parses", ["patterns", "--before", "bad.jsonl",
                                          "--after", "after.csv"], []),
    ("patterns_skip_bad_rows", ["patterns", "--skip-bad-rows", "--before", "gaps.jsonl",
                                "--after", "after.csv"], []),
)

BROKEN = ["SELECT broken FROM", "SELECT a FROM t WHERE", "( (", "SELECT COUNT( FROM t",
          "SELECT 'open FROM t", "SELECT a FROM t t2 t3"]


def write_corpora(directory: Path) -> None:
    """Corpora that share strings, with broken rows among them."""
    rng = random.Random(9)
    target = make_mixture_corpus(30, seed=11)
    near = make_mixture_corpus(15, seed=12)
    far = make_mixture_corpus(15, seed=13, skeletons=FAR_SKELETONS)

    def rows(sqls):
        return [{"sql": sql, "question": f"q{i}", "db_id": f"db{i % 3}"}
                for i, sql in enumerate(sqls)]

    def write_jsonl(name, records):
        (directory / name).write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    def write_csv(name, sqls):
        with open(directory / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sql"])
            writer.writerows([sql] for sql in sqls)

    write_jsonl("target.jsonl", rows(target + BROKEN[:2]))
    (directory / "train.json").write_text(
        json.dumps(rows(rng.sample(target, 12) + near + BROKEN[2:4])), encoding="utf-8")
    write_jsonl("far.jsonl", rows(far + rng.sample(near, 6)))
    write_csv("before.csv", rng.sample(target, 10) + near + BROKEN[:3])
    write_csv("after.csv", rng.sample(target, 15) + far[:6] + BROKEN[3:])
    write_jsonl("gaps.jsonl", rows(near[:5]) + [{"sql": ""}, {"question": "no sql"}])
    write_jsonl("bad.jsonl", rows(BROKEN))


def _file_entry(data: bytes):
    if len(data) > MAX_INLINE:
        return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
    return data.decode("utf-8")


def run_case(directory: Path, name: str, argv: list[str], outputs: list[str]) -> str:
    env = dict(os.environ, PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"),
               PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "sqlalign.cli", *argv], cwd=directory,
                          capture_output=True, env=env, timeout=120)
    files = {}
    for output in outputs:
        path = directory / output
        files[output] = _file_entry(path.read_bytes()) if path.exists() else None
        path.unlink(missing_ok=True)
    return json.dumps({"case": name, "argv": argv, "exit": proc.returncode,
                       "stdout": proc.stdout.decode("utf-8"),
                       "stderr": proc.stderr.decode("utf-8"), "files": files},
                      ensure_ascii=False)


def golden_lines(cases=CASES) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_corpora(directory)
        return [run_case(directory, *case) for case in cases]


def committed_lines() -> list[str]:
    return golden_file.committed_lines(GOLDEN_PATH)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Append the new cases of CASES to "
                                     f"{GOLDEN_PATH.name}, or re-record named ones.")
    parser.add_argument("--rerecord", nargs="+", default=[], metavar="CASE",
                        help="rewrite these recorded cases' lines in place")
    args = parser.parse_args(argv)
    by_name = {case[0]: case for case in CASES}
    golden_file.append_or_rerecord(
        GOLDEN_PATH, "case", list(by_name),
        lambda names: golden_lines([by_name[name] for name in names]), args.rerecord,
        f"{GOLDEN_PATH.name} does not start with CASES; cases may only be appended",
        lambda unknown: f"not a recorded case of CASES: {', '.join(unknown)}")


if __name__ == "__main__":
    main()
