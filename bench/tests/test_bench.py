"""Tests of the benchmark itself: the generator is deterministic, and each
independent check passes on the program's real outputs and fails when one
of them is corrupted.

    python3 -m pytest bench/tests -q

The workloads run here at a few hundred documents, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = {"SPLIT_CORPORA": 2, "SPLIT_DOCS": 300, "PAN_CORPORA": 1, "PAN_AUTHORS": 80,
         "PREDICT_TRAIN_DOCS": 400, "PREDICT_BATCHES": 2, "PREDICT_DOCS": 100}


@pytest.fixture(scope="module")
def small_sizes(tmp_path_factory):
    saved = {name: getattr(run, name) for name in list(SMALL) + ["WORK"]}
    for name, value in SMALL.items():
        setattr(run, name, value)
    run.WORK = tmp_path_factory.mktemp("bench_work")
    yield run.WORK
    for name, value in saved.items():
        setattr(run, name, value)


def _pass(workload: str, work_root: Path, seed: int = 3):
    work = run.fresh_dir(work_root / workload)
    inputs = run.make_inputs(workload, seed, work)
    out = run.fresh_dir(work / "plain")
    report = run.run_worker(work, out, 0.0, False)
    return inputs, out, report


@pytest.fixture(scope="module")
def split_pass(small_sizes):
    return _pass("split-gender", small_sizes)


@pytest.fixture(scope="module")
def pan_pass(small_sizes):
    return _pass("pan-age-traits", small_sizes)


@pytest.fixture(scope="module")
def predict_pass(small_sizes):
    return _pass("predict-saved", small_sizes)


def _corrupted(tmp_path: Path, out: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


# ---------------------------------------------------------------------------
# generator

def test_generator_is_deterministic_per_seed():
    lang = gen.build_language()

    def corpus(seed):
        rng = random.Random(seed)
        return gen.gender_corpus(rng, lang, 300, gen.gender_pools(rng, lang))

    a, b, c = corpus(5), corpus(5), corpus(6)
    assert [t.raw for t in a.tweets] == [t.raw for t in b.tweets]
    assert a.genders == b.genders
    assert [t.raw for t in a.tweets] != [t.raw for t in c.tweets]


def test_generator_plants_exactly_what_it_records():
    lang = gen.build_language()
    assert len(lang.words) == gen.N_WORD_TYPES
    assert not any(gen._forbidden(w) for w in lang.words)
    rng = random.Random(9)
    authors = gen.pan_corpus(rng, lang, 16, 8)
    for tweet in (t for a in authors for t in a.tweets):
        assert len(re.findall(r"https?://\S*", tweet.raw)) == tweet.urls
        assert len(re.findall(r"@\w+", tweet.raw)) == tweet.mentions
        plain = [tok for tok in tweet.norm.split() if tok not in ("@us", "htt")]
        assert not any("_" in tok or "htt" in tok or "@us" in tok for tok in plain)
        assert len(tweet.pos) >= 2


# ---------------------------------------------------------------------------
# checks on real outputs, clean and corrupted

def test_clean_outputs_pass(split_pass, pan_pass, predict_pass):
    for inputs, out, report in (split_pass, pan_pass, predict_pass):
        assert report["failed"] == 0
        failures, accuracy = run.check_pass(inputs, out)
        assert failures == []
        assert 0.0 < accuracy <= 1.0


def test_flipped_prediction_fails(split_pass, tmp_path):
    inputs, out, _ = split_pass
    bad = _corrupted(tmp_path, out)

    def flip(data):
        row = data["predictions"][0]
        row[1] = "Male" if row[1] == "Female" else "Female"

    _edit_json(bad / "split0.json", flip)
    failures, _ = run.check_pass(inputs, bad)
    assert any("label" in f for f in failures)
    assert any("accuracy" in f for f in failures)


def test_perturbed_weight_fails(split_pass, tmp_path):
    inputs, out, _ = split_pass
    bad = _corrupted(tmp_path, out)
    path = bad / "split0.model"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("weights\t"))
    weights = lines[i].split("\t")[1].split()
    weights[0] = repr(float(weights[0]) + 0.5)
    lines[i] = "weights\t" + " ".join(weights)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures, _ = run.check_pass(inputs, bad)
    assert any("margin" in f for f in failures)
    assert any("objective" in f for f in failures)


def test_perturbed_objective_fails(pan_pass, tmp_path):
    inputs, out, _ = pan_pass
    bad = _corrupted(tmp_path, out)
    _edit_json(bad / "traits0.json", lambda d: d["objectives"]["E"].__setitem__(-1, d["objectives"]["E"][-1] * 1.001))
    failures, _ = run.check_pass(inputs, bad)
    assert len(failures) == 1 and "traits0/E" in failures[0]


def test_dropped_rewrite_fails(split_pass, tmp_path):
    inputs, out, _ = split_pass
    bad = _corrupted(tmp_path, out)
    log = bad / "rewrites.tsv"
    log.write_text("".join(log.read_text(encoding="utf-8").splitlines(keepends=True)[1:]), encoding="utf-8")
    failures, _ = run.check_pass(inputs, bad)
    assert len(failures) == 1 and "rewrites logged" in failures[0]


def test_miscounted_ngram_fails(split_pass, tmp_path):
    inputs, out, _ = split_pass
    bad = _corrupted(tmp_path, out)

    def bump(data):
        sample = next(iter(data["samples"].values()))
        sample["char"][0][1] += 1

    _edit_json(bad / "counts.json", bump)
    failures, _ = run.check_pass(inputs, bad)
    assert any("char n-gram counts differ" in f for f in failures)
    assert any("sum(3L+1)" in f for f in failures)


def test_wrong_pos_source_fails(pan_pass, tmp_path):
    inputs, out, _ = pan_pass
    bad = _corrupted(tmp_path, out)
    _edit_json(bad / "counts.json", lambda d: d.__setitem__("pos_source", "fallback"))
    failures, _ = run.check_pass(inputs, bad)
    assert any("pos_source" in f for f in failures)


def test_trait_outside_range_fails(pan_pass, tmp_path):
    inputs, out, _ = pan_pass
    bad = _corrupted(tmp_path, out)
    _edit_json(bad / "traits0.json", lambda d: d["predictions"][0][1].__setitem__("O", 0.75))
    failures, _ = run.check_pass(inputs, bad)
    assert any("outside [-0.5, 0.5]" in f for f in failures)
    assert any("trait RMSE" in f for f in failures)


def test_predict_flipped_label_fails(predict_pass, tmp_path):
    inputs, out, _ = predict_pass
    bad = _corrupted(tmp_path, out)
    pred = bad / "batch0.pred.tsv"
    lines = pred.read_text(encoding="utf-8").splitlines()
    sid, label, margin = lines[0].split("\t")
    lines[0] = "\t".join([sid, "Male" if label == "Female" else "Female", margin])
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures, _ = run.check_pass(inputs, bad)
    assert any("label" in f for f in failures)
    assert any("accuracy" in f for f in failures)


def test_rmse_and_majority_baselines():
    assert checks.check_accuracy(["a", "a", "a"], ["a", "a", "b"], 2 / 3)
    truth = [{"E": v} for v in (-0.5, 0.5, -0.5, 0.5)]
    assert checks.check_trait_rmse([{"E": 0.0}] * 4, truth, truth, ["E"], 0.5)


# ---------------------------------------------------------------------------
# tracer and runner

def test_tracer_counts_nested_spans_once():
    tracer = spans.Tracer()
    inner = tracer.wrap("b", lambda: None)
    same = tracer.wrap("a", lambda: inner())
    outer = tracer.wrap("a", lambda: same())
    outer()
    seconds = tracer.layer_seconds()
    assert [s[0] for s in tracer.spans] == ["a", "a", "b"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert seconds["a"] == tracer.spans[0][2] - tracer.spans[0][1]
    assert tracer.covered_seconds() == seconds["a"]


def test_round_estimate_takes_the_fastest_run_of_each_kind():
    ops = [run.Op("a0", "age", 1, {}, ""), run.Op("a1", "age", 1, {}, ""),
           run.Op("t0", "traits", 1, {}, "")]
    inputs = run.Inputs(ops=ops, headline="age", raw_lines=[], norm_lines=[], planted={})
    assert run.round_estimate(inputs, [[0.5, 0.3], [0.4, 0.9], [2.0, 1.5]]) == 0.3 + 0.3 + 1.5


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "split-gender", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
