"""End-to-end benchmark of the sqlalign CLI.

    python3 bench/run.py --workload {hirep,lorep,preds} --seed N \
        --seconds S --trace {0,1}

It works in the checkout that holds it, whatever the current directory,
and reads and writes only there (``.bench_work/``). One generator process
(bench/gen.py) writes the workload's corpus files and expected data from
the seed. Then, in a closed loop with one client and one command at a
time, the real CLI runs as separate processes, round after round until
``--seconds`` have passed:

    python -m sqlalign.cli --help                                (setup_s)
    templates IN -o T --report R --distribution D                (templates_s)
    align --target T --source S1 --source S2 --source S3 -o A    (align_s)
    ar --target T --train S1 --pred P --c 1.0 -o AR              (ar_s)
    patterns --before P --after P2 -o PAT                        (patterns_s)

Every output is checked against bench/reference.py.

Each invocation runs right after bench/probe.py, a calibration process of
fixed pure-Python work that uses nothing from sqlalign. A timing is the
median over rounds of (invocation wall time / probe wall time) times
PROBE_REF_S: seconds on a host where the probe takes PROBE_REF_S. Shared
hosts change speed by tens of percent from one minute to the next, and
plain wall-time medians of separate runs move with them; the pairing
cancels most of that. The plain wall-time medians are printed as well.
queries_per_s is the records the four commands read over the sum of their
timings; peak_rss_mb is the largest median ``ru_maxrss`` of one command,
from ``os.wait4``. error_rate is printed with the metrics, and is also
``failed / attempted`` in the JSON line.

With ``--trace 1`` the four commands instead run in this process through
``sqlalign.cli.main``, alternating untraced rounds and rounds with the
spans of bench/spans.py installed, and the per-layer metrics are
reported. The traced reports must be byte-identical to those of the
untraced CLI processes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every command exited as expected and every output matched.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import spans  # noqa: E402
from gen import FILES  # noqa: E402

CLI = [sys.executable, "-m", "sqlalign.cli"]

CHILD_TIMEOUT_S = 60.0
# Timings are reported as seconds on a host where bench/probe.py takes
# this long (about its time on the 2-vCPU host the benchmark was built on).
PROBE_REF_S = 0.2

# The file that each workload's commands read per role. In preds the two
# prediction dumps are also two of the align sources and the templates
# input, so every command reads the CSV dumps.
_NEAR_AND_FAR = {"templates": "near1", "sources": ("near1", "near2", "far"), "train": "near1"}
ROLES = {
    "hirep": _NEAR_AND_FAR,
    "lorep": _NEAR_AND_FAR,
    "preds": {"templates": "pred_before", "sources": ("train", "pred_before", "pred_after"),
              "train": "train"},
}


class Command:
    """One CLI command of a round: its arguments, the corpus files it
    reads, the files it writes and the expected outputs."""

    def __init__(self, name: str, argv: list[str], inputs: list, outputs: list[str],
                 expected: dict):
        self.name = name
        self.argv = argv
        self.inputs = inputs
        self.outputs = outputs
        self.expected = expected
        self.verified: list[bytes] | None = None

    @property
    def records(self) -> int:
        return sum(len(f) for f in self.inputs)

    @property
    def distinct_sql(self) -> int:
        return len({sql for f in self.inputs for sql in f.sqls})

    def redirected(self, out_dir: str) -> list[str]:
        """argv with every output path moved into out_dir."""
        moved = {path: f"{out_dir}/{Path(path).name}" for path in self.outputs}
        return [moved.get(arg, arg) for arg in self.argv]

    def check(self, blobs: list[bytes]) -> list[str]:
        """Mismatches of one invocation's output files. The first output
        that passes the reference check is kept; later invocations must
        reproduce it byte for byte."""
        if self.verified is not None:
            return [] if blobs == self.verified else [f"{self.name}: output differs"]
        problems = self._check_reference(blobs)
        if not problems:
            self.verified = blobs
        return problems

    def _check_reference(self, blobs: list[bytes]) -> list[str]:
        try:
            texts = [b.decode("utf-8") for b in blobs]
            if self.name != "templates":
                return reference.compare(self.expected, json.loads(texts[0]), self.name)
            templates, report, distribution = texts[0], json.loads(texts[1]), json.loads(texts[2])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return [f"{self.name}: unreadable output: {exc}"]
        if not (isinstance(report, dict) and isinstance(distribution, dict)):
            return ["templates: report or distribution is not a JSON object"]
        exp = self.expected
        problems = [] if templates == exp["templates"] else ["templates: template file differs"]
        facts = dict(exp["report"])
        indices = facts.pop("failure_indices")
        problems += reference.compare(facts, report, "templates.report")
        if [f.get("index") for f in report.get("failures", [])] != indices:
            problems.append("templates.report.failures: wrong indices")
        problems += reference.compare(exp["distribution"], distribution, "templates.distribution")
        if len(distribution.get("counts", {})) != len(exp["distribution"]["counts"]):
            problems.append("templates.distribution.counts: extra n-grams")
        return problems


def build_commands(workload: str, facts: dict, out_dir: str) -> list[Command]:
    roles = ROLES[workload]
    target, train = facts["target"], facts[roles["train"]]
    before, after = facts["pred_before"], facts["pred_after"]
    sources = [facts[r] for r in roles["sources"]]
    tin = facts[roles["templates"]]
    t_out = [f"{out_dir}/templates.txt", f"{out_dir}/report.json",
             f"{out_dir}/distribution.json"]
    align_argv = ["align", "--target", target.path]
    for source in sources:
        align_argv += ["--source", source.path]
    return [
        Command("templates",
                ["templates", tin.path, "-o", t_out[0], "--report", t_out[1],
                 "--distribution", t_out[2]],
                [tin], t_out, reference.expected_templates(tin)),
        Command("align", align_argv + ["-o", f"{out_dir}/align.json"],
                [target] + sources, [f"{out_dir}/align.json"],
                reference.expected_align(target, sources)),
        Command("ar",
                ["ar", "--target", target.path, "--train", train.path, "--pred",
                 before.path, "--c", "1.0", "-o", f"{out_dir}/ar.json"],
                [target, train, before], [f"{out_dir}/ar.json"],
                reference.expected_ar(target, train, before)),
        Command("patterns",
                ["patterns", "--before", before.path, "--after", after.path,
                 "-o", f"{out_dir}/patterns.json"],
                [before, after], [f"{out_dir}/patterns.json"],
                reference.expected_patterns(before, after)),
    ]


def read_outputs(paths: list[str]) -> list[bytes]:
    blobs = []
    for path in paths:
        try:
            blobs.append((ROOT / path).read_bytes())
        except FileNotFoundError:
            blobs.append(b"")
    return blobs


def remove_outputs(paths: list[str]) -> None:
    for path in paths:
        (ROOT / path).unlink(missing_ok=True)


class Runner:
    """Starts child processes one at a time and counts every CLI
    invocation."""

    def __init__(self, work: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.log = work / "child.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        """Count one invocation, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def spawn(self, argv: list[str], stdout) -> tuple[float, float, int]:
        """(wall seconds, ru_maxrss in MB, exit code) of one child."""
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def probe(self) -> float:
        """Wall seconds of one calibration process; not a CLI invocation."""
        wall, _, code = self.spawn([sys.executable, str(BENCH / "probe.py")],
                                   subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"bench/probe.py exited {code}")
        return wall

    def setup(self) -> float:
        buf = self.log.with_name("help.txt")
        with open(buf, "wb") as out:
            wall, _, code = self.spawn(CLI + ["--help"], out)
        ok = code == 0 and buf.read_bytes().startswith(b"usage: sqlalign")
        self.record([] if ok else [f"--help: exit {code}"])
        return wall

    def command(self, cmd: Command) -> tuple[float, float]:
        remove_outputs(cmd.outputs)
        wall, rss, code = self.spawn(CLI + cmd.argv, subprocess.DEVNULL)
        self.record([f"{cmd.name}: exit {code}"] if code != 0
                    else cmd.check(read_outputs(cmd.outputs)))
        return wall, rss


def measure_e2e(commands: list[Command], runner: Runner,
                seconds: float) -> tuple[dict, dict, int]:
    """End-to-end metrics and raw wall-time medians (name -> value), and
    the number of rounds.

    Each invocation is paired with a probe run just before it; a timing
    is the median over rounds of wall / probe, times PROBE_REF_S.
    """
    runner.probe()  # warm-up: byte-compiles bench and the package,
    runner.setup()  # fills the page cache
    pairs: dict[str, list[tuple[float, float]]] = {"setup_s": []}
    pairs.update((f"{c.name}_s", []) for c in commands)
    rss = {c.name: [] for c in commands}
    deadline = time.perf_counter() + seconds
    rounds, round_s = 0, 0.0
    while rounds == 0 or time.perf_counter() + round_s <= deadline:
        started = time.perf_counter()
        probe = runner.probe()
        pairs["setup_s"].append((runner.setup(), probe))
        for cmd in commands:
            probe = runner.probe()
            wall, mb = runner.command(cmd)
            pairs[f"{cmd.name}_s"].append((wall, probe))
            rss[cmd.name].append(mb)
        rounds += 1
        round_s = time.perf_counter() - started
    scaled = {name: statistics.median(w / p for w, p in v) * PROBE_REF_S
              for name, v in pairs.items()}
    raw = {name: statistics.median(w for w, _ in v) for name, v in pairs.items()}
    command_s = sum(scaled[f"{c.name}_s"] for c in commands)
    records = sum(c.records for c in commands)
    return {**scaled, "queries_per_s": records / command_s,
            "peak_rss_mb": max(statistics.median(v) for v in rss.values())}, raw, rounds


def measure_traced(commands: list[Command], runner: Runner, work: Path, seconds: float,
                   workload: str) -> tuple[dict, int]:
    """Per-layer metrics (name -> value) and the number of traced rounds.

    The CLI runs once as processes, for the reports; then in process,
    rounds alternate untraced and traced."""
    for cmd in commands:
        runner.command(cmd)
    sys.path.insert(0, str(ROOT / "src"))
    from sqlalign import cli, corpus, metrics, parsing, patterns, templates

    modules = {"cli": cli, "corpus": corpus, "metrics": metrics, "parsing": parsing,
               "patterns": patterns, "templates": templates}
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    walls = {False: [], True: []}
    rel = work.relative_to(ROOT)
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not walls[True] or time.perf_counter() + pair_s <= deadline:
        started = time.perf_counter()
        for traced in (False, True):
            out_dir = f"{rel}/{'traced' if traced else 'inproc'}"
            (ROOT / out_dir).mkdir(exist_ok=True)
            total = 0.0
            for cmd in commands:
                argv = cmd.redirected(out_dir)
                outputs = [f"{out_dir}/{Path(p).name}" for p in cmd.outputs]
                remove_outputs(outputs)
                with contextlib.redirect_stderr(io.StringIO()):
                    if traced:
                        tracer.command += 1
                        with spans.installed(tracer, modules):
                            start = time.perf_counter()
                            code = traced_main(argv)
                            total += time.perf_counter() - start
                    else:
                        start = time.perf_counter()
                        code = cli.main(argv)
                        total += time.perf_counter() - start
                kind = "traced" if traced else "in-process"
                if code != 0:
                    runner.record([f"{kind} {cmd.name}: exit {code}"])
                elif read_outputs(outputs) != cmd.verified:
                    runner.record([f"{kind} {cmd.name}: reports differ from the CLI process"])
                else:
                    runner.record([])
            walls[traced].append(total)
        pair_s = time.perf_counter() - started
    rounds = len(walls[True])
    distinct = sum(c.distinct_sql for c in commands)
    layer = spans.layer_metrics(tracer.spans, rounds, distinct)
    layer["trace.overhead_share"] = (statistics.median(walls[True])
                                     / statistics.median(walls[False]) - 1)
    tracer.write(ROOT / ".bench_work" / f"spans-{workload}.tsv")
    return layer, rounds


E2E_UNITS = {
    "setup_s": "s", "templates_s": "s", "align_s": "s", "ar_s": "s", "patterns_s": "s",
    "queries_per_s": "records/s", "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "parsing.tokenize.us_per_call": "us", "parsing.parse_sql.self_us_per_call": "us",
    "parsing.tokens_per_s": "tokens/s", "parsing.parse_sql.calls": "count",
    "parsing.reparse_ratio": "ratio", "parsing.fail_share": "share",
    "parsing.failed_call_us": "us", "templates.derive_template.us_per_call": "us",
    "templates.distinct_share": "share", "templates.mean_tokens": "tokens",
    "ngrams.build_distribution.us_per_template": "us", "ngrams.windows": "count",
    "ngrams.valid_share": "share", "ngrams.vocab": "count",
    "ngrams.write_distribution.s": "s", "metrics.kl_divergence.ms_per_call": "ms",
    "metrics.kl_divergence.ns_per_vocab": "ns", "metrics.union_vocab": "count",
    "metrics.ovlp_ratio.ms_per_call": "ms",
    "patterns.count_patterns.self_us_per_record": "us", "patterns.parse_share": "share",
    "corpus.load_corpus.us_per_record": "us", "corpus.templatize_corpus.self_s": "s",
    "corpus.distinct_sql_share": "share", "cli.self_s": "s",
    "trace.overhead_share": "share",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqlalign CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(FILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/sqlalign/cli.py", "tests/corpusgen.py"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found under {ROOT}; run inside a sqlalign checkout",
                  file=sys.stderr)
            return 2

    os.chdir(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gen = subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload",
                              args.workload, "--seed", str(args.seed), "--out", str(work)],
                             timeout=CHILD_TIMEOUT_S)
        if gen.returncode != 0:
            print(f"bench: generator exited {gen.returncode}", file=sys.stderr)
            return 2
        facts = reference.load_expected(work, ROOT)
        out_dir = str(work.relative_to(ROOT) / "out")
        (ROOT / out_dir).mkdir()
        commands = build_commands(args.workload, facts, out_dir)
        runner = Runner(work)
        properties = reference.workload_properties(list(facts.values()))
        if args.trace:
            values, rounds = measure_traced(commands, runner, work, args.seconds, args.workload)
            for name in ("corpus.distinct_sql_share", "templates.distinct_share",
                         "templates.mean_tokens", "ngrams.vocab"):
                values[name] = properties[name]
            units = LAYER_UNITS
            heading = f"{rounds} traced + {rounds} untraced in-process rounds"
        else:
            values, raw, rounds = measure_e2e(commands, runner, args.seconds)
            units = E2E_UNITS
            heading = f"{rounds} rounds of CLI processes, each after a probe"
        if runner.problems and (work / "child.log").exists():
            sys.stderr.write((work / "child.log").read_text(errors="replace")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    for problem in runner.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {heading}, {runner.attempted} invocations")
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:14.6f} {unit}")
    if not args.trace:
        print(f"  {'error_rate':45s} {failed / runner.attempted:14.6f} share")
        for name, value in raw.items():
            print(f"  raw wall median {name:29s} {value:14.6f} s")
    for name, value in properties.items():
        print(f"  property {name:36s} {value:14.6f}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
