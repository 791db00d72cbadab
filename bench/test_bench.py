"""Tests of the benchmark's own parts: the generator, the reference and the
span wrappers.

Run with: python3 -m pytest bench
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from sqlalign import cli, corpus, metrics, parsing, patterns, templates  # noqa: E402
from sqlalign.errors import ParseError  # noqa: E402
from sqlalign.patterns import DEFAULT_PATTERNS  # noqa: E402

MODULES = {"cli": cli, "corpus": corpus, "metrics": metrics, "parsing": parsing,
           "patterns": patterns, "templates": templates}


@pytest.mark.parametrize("workload", sorted(gen.FILES))
def test_generator_is_byte_identical_across_hash_seeds(tmp_path, workload):
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, str(ROOT / "bench" / "gen.py"), "--workload",
                        workload, "--seed", "7", "--out", str(out)],
                       env=env, check=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == set(gen.FILES[workload].values()) | {"expected.json"}


def test_other_seed_gives_other_inputs():
    assert gen.generate("lorep", 1)["target"] != gen.generate("lorep", 2)["target"]


def test_hand_written_skeleton_expectations_match_the_parser():
    cg = gen.load_corpusgen()
    skeletons = cg.SKELETONS + cg.FAR_SKELETONS
    assert sorted(gen.SKELETON_EXPECTED) == sorted(skeletons)
    rng = random.Random(5)
    for skeleton in skeletons:
        template, pattern_ids = gen.SKELETON_EXPECTED[skeleton]
        sql = cg.make_query(rng, skeleton=skeleton)
        tree = parsing.parse_sql(sql)
        assert templates.templatize(sql).canonical_text == template, skeleton
        assert tuple(s.id for s in DEFAULT_PATTERNS if s.match(tree)) == tuple(
            p for p in reference.PATTERN_IDS if p in pattern_ids), skeleton


@pytest.mark.parametrize("workload", sorted(gen.FILES))
def test_expected_records_match_the_parser(workload):
    data = gen.generate(workload, 3)
    for records in data.values():
        for sql, template, pattern_ids in records[:150]:
            if template is None:
                with pytest.raises(ParseError):
                    parsing.parse_sql(sql)
                continue
            tree = parsing.parse_sql(sql)
            assert templates.templatize(sql).canonical_text == template, sql
            assert sorted(s.id for s in DEFAULT_PATTERNS if s.match(tree)) == list(pattern_ids)


def test_preds_dumps_repeat_half_and_fail_a_fifth():
    for records in gen.generate("preds", 1).values():
        assert len({r[0] for r in records}) == len(records) // 2
        assert 0.15 <= sum(r[1] is None for r in records) / len(records) <= 0.25


def test_probe_does_the_same_work_every_time():
    assert probe.work() == probe.work()


def test_reference_kl_matches_the_hand_computed_value():
    # p = (1/2, 1/2), q = (1/4, 3/4): 0.5 ln 2 + 0.5 ln(2/3) = 0.14384 nats
    d = reference.kl_divergence({"a": 1, "b": 1}, {"a": 1, "b": 3}, alpha=1e-6)
    assert abs(d - 0.14384) < 1e-3
    assert reference.kl_divergence({"a": 2, "b": 5}, {"a": 2, "b": 5}) == 0.0


def test_reference_ngram_enumerator_applies_the_filter():
    keywords = reference.load_keywords(ROOT)
    counts = reference.ngram_counts(["SELECT COUNT ( * ) FROM"] * 2, keywords, l_max=3)
    assert counts["SELECT"] == 2
    assert counts["SELECT COUNT"] == 2
    assert "( * )" not in counts  # no keyword
    assert "COUNT (" not in counts  # unbalanced parentheses
    assert "*" not in counts
    assert reference.ngram_counts([", SELECT ,"], keywords, l_max=3) == {"SELECT": 1}


def test_reference_scores_max_in_batch_and_ar():
    scores = reference.batch_scores([0.5, 2.0])
    assert scores[1]["c"] == 2.0
    assert scores[1]["a_kl"] == pytest.approx(1 / math.e)
    assert scores[0]["a_kl"] == pytest.approx(math.exp(-0.25))
    assert reference.ovlp(["A", "B", "B"], ["B", "C"]) == 0.5


def test_compare_checks_floats_at_six_decimals():
    assert reference.compare({"x": 0.1234564}, {"x": 0.123456, "extra": 1}) == []
    assert reference.compare({"x": 0.1234574}, {"x": 0.123456}) != []
    assert reference.compare({"n": 3}, {"n": 3.0}) != []
    assert reference.compare({"rows": [{"n": 1}]}, {"rows": []}) != []


def _run_cli(out: Path, argv: list[str], tracer=None) -> tuple[int, bytes]:
    out.mkdir(parents=True)
    argv = argv + ["-o", str(out / "report.json")]
    if tracer is None:
        code = cli.main(argv)
    else:
        with spans.installed(tracer, MODULES):
            code = cli.main(argv)
    return code, (out / "report.json").read_bytes()


def test_wrappers_are_transparent_and_restored(tmp_path):
    d = tmp_path / "in"
    gen.write_workload("preds", 2, d)
    originals = {(m, a): getattr(MODULES[m], a) for m, a in spans.TARGETS}
    commands = {
        "align": ["align", "--target", str(d / "target.csv"), "--source", str(d / "train.csv"),
                  "--source", str(d / "pred_before.csv")],
        "patterns": ["patterns", "--before", str(d / "pred_before.csv"), "--after",
                     str(d / "pred_after.csv")],
    }
    for name, argv in commands.items():
        tracer = spans.Tracer()
        plain = _run_cli(tmp_path / name / "plain", argv)
        traced = _run_cli(tmp_path / name / "traced", argv, tracer)
        assert plain == traced
        assert plain[0] == 0
        names = {s[1] for s in tracer.spans}
        assert "parsing.tokenize" in names
        assert any(s[1].endswith(".parse_sql") and not s[7] for s in tracer.spans)
        assert ("metrics.kl_divergence" in names) == (name == "align")
    assert originals == {(m, a): getattr(MODULES[m], a) for m, a in spans.TARGETS}


def test_wrapper_reraises_and_nests_spans():
    tracer = spans.Tracer()
    with spans.installed(tracer, MODULES):
        with pytest.raises(ParseError):
            templates.templatize("SELECT FROM")
        assert templates.templatize("SELECT a FROM t").canonical_text == "SELECT FROM"
    parses = [s for s in tracer.spans if s[1] == "templates.parse_sql"]
    assert [s[7] for s in parses] == [False, True]
    ok_parse = parses[1]
    (tokenize,) = [s for s in tracer.spans
                   if s[1] == "parsing.tokenize" and s[3] == ok_parse[0]]
    assert tokenize[8] == 4  # SELECT a FROM t
    assert 0 <= spans.self_times(tracer.spans)[ok_parse[0]] <= ok_parse[5] - ok_parse[4]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.FILES)
