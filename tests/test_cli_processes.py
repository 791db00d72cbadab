"""The CLI and its processes. Run as separate processes, the way a user
runs it, its reports, stderr and exit codes must not depend on the
process's string-hash seed, and no file may be opened in the locale's
default encoding. Each command runs in one process and forks no child,
whatever its corpora and whether it succeeds or fails. A CLI process
flushes stdout and stderr and ends by os._exit: it must end with what
``cli.main`` writes and returns, with PYTHONUNBUFFERED unset and set, and
no command may leave a file for the interpreter to close."""

import csv
import gc
import json
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import sqlalign
from corpusgen import FAR_SKELETONS, make_mixture_corpus
from sqlalign import cli

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
            paths[name].write_text("".join(
                json.dumps({"sql": sql, "question": f"q{i}", "db_id": f"db{i % 3}"}) + "\n"
                for i, sql in enumerate(sqls)), encoding="utf-8")
    return paths


def _commands(paths: dict[str, Path]) -> dict[str, tuple[list, list[str]]]:
    """Each command's argv and the options naming the files it writes."""
    align = ["align", "--target", paths["target"], "--source", paths["train"],
             "--source", paths["far"], "--source", paths["before"]]
    # sample reads its file a second time, to write the rows it chose.
    sample = ["sample", paths["train"], "--question-field", "question", "--group-field", "db_id"]
    return {
        "templates": (["templates", paths["target"]], ["-o", "--report", "--distribution"]),
        "align_json": (align, ["-o"]),
        "align_csv": (align + ["--format", "csv"], ["-o"]),
        "ar": (["ar", "--target", paths["target"], "--train", paths["train"],
                "--pred", paths["before"], "--c", "2.0"], ["-o"]),
        "patterns": (["patterns", "--before", paths["before"], "--after", paths["after"]],
                     ["-o"]),
        "sample_fraction": (sample + ["--fraction", "0.5", "--seed", "3"], ["-o"]),
        "sample_per_group": (sample + ["--per-group", "2"], ["-o"]),
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
    assert [first[name][2][0].count(b"\n") for name in ("sample_fraction", "sample_per_group")
            ] == [21, 6]


# -- align, ar and patterns in one process ----------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process; no command may add one."""
    returned = []
    fork = os.fork

    def counted():
        pid = fork()
        returned.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return returned


def _main(argv, capsysbinary) -> tuple[int, bytes, bytes]:
    """cli.main's exit code, stdout and stderr; it must leave no child
    process, reaped or not."""
    code = cli.main([str(arg) for arg in argv])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out, err = capsysbinary.readouterr()
    return code, out, err


def _write_bad_files(paths: dict[str, Path], tmp_path: Path) -> None:
    """Adds "bad", where no record parses, "gaps", the train corpus with
    a row without SQL (for --skip-bad-rows), and "missing", no file."""
    paths["bad"] = tmp_path / "bad.jsonl"
    paths["bad"].write_text('{"sql": "SELECT broken FROM"}\n{"sql": "( ("}\n', encoding="utf-8")
    paths["gaps"] = tmp_path / "gaps.jsonl"
    paths["gaps"].write_text(paths["train"].read_text(encoding="utf-8")
                             + '{"question": "none"}\n', encoding="utf-8")
    paths["missing"] = tmp_path / "missing.jsonl"


def _align_cases(paths: dict[str, Path]) -> dict[str, list]:
    shared = ["align", "--target", paths["target"], "--source", paths["train"],
              "--source", paths["far"], "--source", paths["before"], "--source", paths["after"]]
    return {
        "shared_json": shared,
        "shared_csv": shared + ["--format", "csv", "--c", "2", "--l-max", "4"],
        "source_fails": ["align", "--target", paths["target"], "--source", paths["train"],
                         "--source", paths["far"], "--source", paths["bad"],
                         "--source", paths["missing"]],
        "target_fails": ["align", "--target", paths["bad"], "--source", paths["train"],
                         "--source", paths["gaps"], "--source", paths["far"], "--skip-bad-rows"],
    }


def _ar_cases(paths: dict[str, Path]) -> dict[str, list]:
    def ar(target, train, pred, *options):
        return ["ar", "--target", paths[target], "--train", paths[train],
                "--pred", paths[pred], "--c", "2", *options]
    return {
        "shared": ar("target", "train", "before"),
        "skipped_rows": ar("target", "gaps", "before", "--skip-bad-rows", "--l-max", "4"),
        "pred_fails": ar("target", "train", "bad"),
        "train_missing": ar("target", "missing", "before"),
        "target_fails": ar("bad", "train", "gaps", "--skip-bad-rows"),
    }


def _patterns_cases(paths: dict[str, Path]) -> dict[str, list]:
    def patterns(before, after, *options):
        return ["patterns", "--before", paths[before], "--after", paths[after], *options]
    return {
        "shared_json": patterns("before", "after"),
        "shared_csv": patterns("target", "before", "--format", "csv"),
        "skipped_rows": patterns("gaps", "after", "--skip-bad-rows"),
        "before_fails": patterns("bad", "after"),
        "after_missing": patterns("before", "missing"),
    }


def _with_and_without_fork(cases, monkeypatch, capsysbinary, forks) -> dict:
    """What each case writes; none may fork, and without os.fork each
    must write the same."""
    written = {name: _main(argv, capsysbinary) for name, argv in cases.items()}
    assert forks == []
    monkeypatch.delattr(os, "fork")
    assert {name: _main(argv, capsysbinary) for name, argv in cases.items()} == written
    return written


def _skip_warnings(paths: dict[str, Path]) -> str:
    gap_row = paths["train"].read_text(encoding="utf-8").count("\n")
    return (f"sqlalign: warning: {paths['gaps']} row {gap_row}: missing or empty field 'sql', "
            f"skipped\nsqlalign: warning: {paths['gaps']}: skipped 1 bad row(s)\n")


# The three tests' names date from when align, ar and patterns forked a
# child; the bytes each case writes must still not depend on os.fork.


def test_align_writes_the_same_bytes_with_and_without_its_forked_child(
        tmp_path, monkeypatch, capsysbinary, forks):
    # Each report goes to stdout, so the exit code, stdout and stderr are
    # all that a run writes.
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    written = _with_and_without_fork(_align_cases(paths), monkeypatch, capsysbinary, forks)
    assert [code for code, _, _ in written.values()] == [0, 0, 2, 2]
    rows = json.loads(written["source_fails"][1])["rows"]
    assert ["error" in row for row in rows] == [False, False, True, True]
    assert rows[2]["error"] == (
        f"EmptyDistributionError: {paths['bad']}: none of its 2 records parsed")
    assert rows[3]["error"].startswith(f"FormatError: {paths['missing']}: cannot read")
    # The sources load before the target templates, so a source's
    # warnings print before the target's error.
    assert written["target_fails"][2] == (
        _skip_warnings(paths)
        + f"sqlalign: error: {paths['bad']}: none of its 2 records parsed\n").encode()


def test_ar_writes_the_same_bytes_with_and_without_its_forked_child(
        tmp_path, monkeypatch, capsysbinary, forks):
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    written = _with_and_without_fork(_ar_cases(paths), monkeypatch, capsysbinary, forks)
    assert [code for code, _, _ in written.values()] == [0, 0, 2, 2, 2]
    assert json.loads(written["shared"][1])["parse_failures"] == {
        "pred": 3, "target": 2, "train": 2}
    assert written["skipped_rows"][2].startswith(_skip_warnings(paths).encode())
    assert written["pred_fails"][2] == (
        f"sqlalign: error: {paths['bad']}: none of its 2 records parsed\n").encode()
    assert written["train_missing"][2].startswith(
        f"sqlalign: error: {paths['missing']}: cannot read".encode())
    # ar loads all three files before it templatizes any, so the
    # prediction dump's warnings print before the target's error.
    assert written["target_fails"][2] == (
        _skip_warnings(paths)
        + f"sqlalign: error: {paths['bad']}: none of its 2 records parsed\n").encode()


@pytest.mark.parametrize("argv", [
    ["align", "--target", "target", "--source", "train"],
    ["templates", "target"],
], ids=["align", "templates"])
def test_commands_over_fewer_than_three_corpora_stay_in_one_process(
        tmp_path, capsysbinary, forks, argv):
    paths = _write_corpora(tmp_path)
    code, _, _ = _main([paths.get(arg, arg) for arg in argv], capsysbinary)
    assert code == 0
    assert forks == []


def test_patterns_writes_the_same_bytes_with_and_without_its_forked_child(
        tmp_path, monkeypatch, capsysbinary, forks):
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    written = _with_and_without_fork(_patterns_cases(paths), monkeypatch, capsysbinary, forks)
    assert [code for code, _, _ in written.values()] == [0, 0, 0, 0, 2]
    assert json.loads(written["shared_json"][1])["parse_failures"] == {"after": 3, "before": 3}
    assert written["shared_csv"][1].startswith(b"pattern_id,before,after,delta,direction\n")
    assert written["skipped_rows"][2] == (
        _skip_warnings(paths) + "patterns: before_failures=2 after_failures=3\n").encode()
    assert written["before_fails"][2] == b"patterns: before_failures=2 after_failures=3\n"
    assert written["after_missing"][2].startswith(
        f"sqlalign: error: {paths['missing']}: cannot read".encode())


def _run_with_another_thread_alive(argv, capsysbinary, forks) -> None:
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        code, _, err = _main(argv, capsysbinary)
    finally:
        stop.set()
        thread.join()
    assert code == 0
    assert forks == []
    assert b"warning" not in err


def test_align_with_another_thread_alive_stays_in_one_process(tmp_path, capsysbinary, forks):
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    _run_with_another_thread_alive(_align_cases(paths)["shared_json"], capsysbinary, forks)


def test_ar_with_another_thread_alive_stays_in_one_process(tmp_path, capsysbinary, forks):
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    _run_with_another_thread_alive(_ar_cases(paths)["shared"], capsysbinary, forks)


def test_patterns_with_another_thread_alive_stays_in_one_process(tmp_path, capsysbinary, forks):
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    _run_with_another_thread_alive(_patterns_cases(paths)["shared_json"], capsysbinary, forks)


def _fail_in_one_process(argv, monkeypatch, capsysbinary, forks, raised, name,
                         fails_here) -> None:
    """Runs argv with the CLI's function ``name`` raising ``raised`` on the
    call that ``fails_here`` picks. The exception leaves ``cli.main`` as
    it was raised, and the command forked no child and left none."""
    original = getattr(cli, name)

    def failing(corpus, *args, **options):
        if fails_here(corpus):
            raise raised(f"{name} failed")
        return original(corpus, *args, **options)

    monkeypatch.setattr(cli, name, failing)
    with pytest.raises(raised) as caught:
        _main(argv, capsysbinary)
    assert str(caught.value) == f"{name} failed"
    assert forks == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The names of the three tests below date from when a forked child did
# the last half of the work. "parent" fails on a corpus of the first
# half, with an interrupt, and "child" on one of the last half, with an
# error.
_FAILURES = pytest.mark.parametrize("where, raised", [("parent", KeyboardInterrupt),
                                                      ("child", RuntimeError)])


@_FAILURES
def test_align_reaps_its_child_when_either_process_fails(tmp_path, monkeypatch, capsysbinary,
                                                         forks, where, raised):
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    failing = paths["train" if where == "parent" else "far"]
    _fail_in_one_process(_align_cases(paths)["shared_json"], monkeypatch, capsysbinary,
                         forks, raised, "templatize_corpus",
                         lambda corpus: corpus.name == str(failing))


@_FAILURES
def test_ar_reaps_its_child_when_either_process_fails(tmp_path, monkeypatch, capsysbinary,
                                                      forks, where, raised):
    # The prediction dump is the last half.
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    failing = paths["train" if where == "parent" else "before"]
    _fail_in_one_process(_ar_cases(paths)["shared"], monkeypatch, capsysbinary,
                         forks, raised, "templatize_corpus",
                         lambda corpus: corpus.name == str(failing))


@_FAILURES
def test_patterns_reaps_its_child_when_either_process_fails(tmp_path, monkeypatch,
                                                           capsysbinary, forks, where, raised):
    # The before dump is the first half, the after dump the last.
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    failing = paths["before" if where == "parent" else "after"]
    _fail_in_one_process(_patterns_cases(paths)["shared_json"], monkeypatch, capsysbinary,
                         forks, raised, "count_patterns",
                         lambda corpus: corpus.name == str(failing))


# -- how a CLI process ends ------------------------------------------------------


@pytest.fixture(params=[None, "1"], ids=["buffered", "unbuffered"])
def cli_env(request, monkeypatch) -> dict:
    """The environment of a CLI process, once with PYTHONUNBUFFERED unset
    and once set. Set, every write reaches the pipe at once, so only the
    unset run shows a missing flush. COLUMNS makes the help text as wide
    in this process as in the CLI's."""
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if request.param:
        env["PYTHONUNBUFFERED"] = request.param
    return env


def _process(argv, env, program=("-m", "sqlalign.cli"), stdout=subprocess.PIPE,
             **options) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([sys.executable, *program, *map(str, argv)], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120, **options)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsysbinary) -> tuple[int, bytes, bytes]:
    try:
        code = cli.main([str(arg) for arg in argv])
    except SystemExit as exc:  # argparse's exit
        code = exc.code
    out, err = capsysbinary.readouterr()
    return code, out, err


def _exit_cases(paths: dict[str, Path]) -> dict[str, list]:
    return {
        "templates": ["templates", paths["target"]],
        "align_csv": ["align", "--target", paths["target"], "--source", paths["train"],
                      "--source", paths["far"], "--format", "csv"],
        "help": ["--help"],
        "usage_error": ["align", "--target", paths["target"]],
        "missing_input": ["templates", paths["missing"]],
    }


@pytest.mark.parametrize("case", ["templates", "align_csv", "help", "usage_error",
                                  "missing_input"])
def test_a_cli_process_ends_with_what_main_writes_and_returns(tmp_path, capsysbinary, cli_env,
                                                              case):
    # The process flushes stdout and stderr, then leaves by os._exit.
    paths = _write_corpora(tmp_path)
    _write_bad_files(paths, tmp_path)
    argv = _exit_cases(paths)[case]
    ended = _process(argv, cli_env)
    assert ended == _in_process(argv, capsysbinary)
    assert ended[0] == {"usage_error": 1, "missing_input": 2}.get(case, 0)
    assert bool(ended[1]) == (case in ("templates", "align_csv", "help"))


_SYS_EXIT_MAIN = ("-c", "import sys\nfrom sqlalign.cli import main\nsys.exit(main())")


@pytest.mark.parametrize("size", ["small", "large"])
def test_a_closed_stdout_pipe_ends_the_process_as_sys_exit_does(tmp_path, cli_env, size):
    # The report's write fails in the command, a data error, whatever its
    # size and with PYTHONUNBUFFERED unset or set. What stays buffered is
    # dropped, so the flush at exit does not fail again.
    paths = _write_corpora(tmp_path)
    if size == "large":
        paths["target"].write_text("".join(
            json.dumps({"sql": f"SELECT a{i}, b{i}, c{i} FROM t{i} WHERE d{i} > {i}"}) + "\n"
            for i in range(400)), encoding="utf-8")
    ends = []
    for program in [("-m", "sqlalign.cli"), _SYS_EXIT_MAIN]:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            ends.append(_process(["templates", paths["target"]], cli_env, program,
                                 stdout=write_end))
        finally:
            os.close(write_end)
    assert ends[0] == ends[1]
    assert ends[0][0::2] == (2, b"sqlalign: error: [Errno 32] Broken pipe\n")


def test_a_process_without_stdout_ends_with_a_data_error(tmp_path, monkeypatch, capsysbinary,
                                                         cli_env):
    # With file descriptor 1 closed when the process begins, sys.stdout
    # is None.
    paths = _write_corpora(tmp_path)
    argv = ["templates", paths["target"]]
    ended = _process(argv, cli_env, stdout=None, preexec_fn=lambda: os.close(1))
    monkeypatch.setattr(sys, "stdout", None)
    assert ended[0::2] == _in_process(argv, capsysbinary)[0::2] == (
        2, b"sqlalign: error: no standard output\n")


def test_an_error_other_than_a_data_error_prints_its_traceback(tmp_path, cli_env):
    # An error outside the SqlAlignError family, here a RuntimeError
    # from the templating, propagates out of main and the exit path.
    paths = _write_corpora(tmp_path)
    program = ("-c", "from sqlalign import cli\n"
               "def fail(*args, **kwargs):\n    raise RuntimeError('not a data error')\n"
               "cli.templatize_corpus = fail\ncli.run()")
    code, _, err = _process(["templates", paths["target"]], cli_env, program)
    assert code == 1
    assert err.startswith(b"Traceback (most recent call last):\n")
    assert err.endswith(b"RuntimeError: not a data error\n")


@pytest.mark.parametrize("raised", [KeyboardInterrupt, RuntimeError])
def test_the_exit_path_lets_an_interrupt_or_an_error_propagate(monkeypatch, raised):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)

    def failing():
        raise raised("stop")

    monkeypatch.setattr(cli, "main", failing)
    with pytest.raises(raised):
        cli.run()
    assert exits == []


def test_the_commands_leave_no_file_for_the_interpreter_to_close(tmp_path, monkeypatch,
                                                                capsysbinary):
    # os._exit closes no file object, so a file that a command left open
    # would lose its buffered bytes. Freed unclosed, a file warns: inside
    # the command through cli._show_warning, after it when collected.
    paths = _write_corpora(tmp_path)
    shown, unraisable = [], []
    monkeypatch.setattr(cli, "_show_warning", lambda message, category, *rest, **kw:
                        shown.append((category, str(message))))
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, (argv, options) in _commands(paths).items():
            outputs = [tmp_path / f"{name}{option}" for option in options]
            assert _main(argv + [a for pair in zip(options, outputs) for a in pair],
                         capsysbinary)[0] == 0
            assert all(out.stat().st_size > 0 for out in outputs)
        gc.collect()
    assert shown == []
    assert [(w.category, str(w.message)) for w in caught] == []
    assert unraisable == []
