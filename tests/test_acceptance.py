"""Acceptance gate: one test per shipped guarantee.

Each test registers a PASS/FAIL line through conftest.record_criterion,
so the suite ends with a readable scoreboard next to the pytest summary.
Numbers, tolerances and time budgets are part of the contract and are
asserted, not just printed.
"""

import functools
import os
import random
import time
from collections import Counter

import pytest

from styloprof.corpus import Document, LabelSet, LabeledDocument, group_into_samples
from styloprof.experiment import parse_config_text, run_experiment, strip_timings
from styloprof.features import SparseVector, char_ngrams, pos_ngrams
from styloprof.learner import TrainConfig, hinge_objective, predict_binary, train_binary
from styloprof.metrics import ConfusionMatrix, report, trait_rmse_report
from styloprof.normalize import default_rules, normalize
from styloprof.pos import TaggedToken, relabel
from styloprof.synthetic import write_marker_csv

from conftest import record_criterion, record_criterion_skip
from oracles import random_hinge_instances, random_separable_instance, subgradient_hinge_oracle


def criterion(number: int, description: str):
    """Record the verdict line for an acceptance criterion; the wrapped
    test returns an optional detail string for the scoreboard."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except Exception as exc:
                record_criterion(number, False, description, detail=repr(exc)[:160])
                raise
            record_criterion(number, True, description, detail=detail or "")
        return run
    return wrap


# frozen example data ------------------------------------------------------

WORD = "self-defense"
WORD_UNIGRAMS = list(WORD)
WORD_BIGRAMS = "_s se el lf f- -d de ef fe en ns se e_".split()
WORD_TRIGRAMS = "_se sel elf lf- f-d -de def efe fen ens nse se_".split()

U = "REF@USERNAME"
TAG_STREAM = [U, U, "N", "V", "P", "N", "F", "N", "F"]
TAG_GRAMS = (
    [(t,) for t in TAG_STREAM]
    + [(U, U), (U, "N"), ("N", "V"), ("V", "P"), ("P", "N"), ("N", "F"),
       ("F", "N"), ("N", "F")]
    + [(U, U, "N"), (U, "N", "V"), ("N", "V", "P"), ("V", "P", "N"),
       ("P", "N", "F"), ("N", "F", "N"), ("F", "N", "F")]
)

TWEET_IN = "I was just watching ``update 10.'' @MKBHD http://t.co/P9Dn7t8zSl"
TWEET_OUT = "I was just watching ``update 10.'' @us htt"

GENDER_CONFIG = """\
[experiment]
task = gender

[train_corpus]
format = FlatCsv
path = train.csv
language = es
"""


@criterion(1, "worked n-gram example multisets reproduced exactly, < 1 ms")
def test_ngram_example_fidelity():
    expected_chars = Counter(WORD_UNIGRAMS + WORD_BIGRAMS + WORD_TRIGRAMS)
    expected_tags = Counter(TAG_GRAMS)
    assert len(expected_chars) < 37 and sum(expected_chars.values()) == 37
    assert sum(expected_tags.values()) == 24

    chars = char_ngrams(WORD, 1, 3)
    tags = pos_ngrams(TAG_STREAM, 1, 3)
    assert Counter(dict(chars)) == expected_chars
    assert Counter(dict(tags)) == expected_tags
    per_order = Counter(len(gram) for gram in chars.elements())
    assert per_order == {1: 12, 2: 13, 3: 12}

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        char_ngrams(WORD, 1, 3)
        pos_ngrams(TAG_STREAM, 1, 3)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3
    return f"37 + 24 grams, {best * 1e6:.0f} us"


@criterion(2, "tweet normalization byte-exact; idempotent on 100000 fuzzed strings, < 5 s")
def test_normalization_fidelity_and_idempotence():
    rules = default_rules("en")
    assert normalize(TWEET_IN, rules).text == TWEET_OUT

    pieces = list("abc @#.:/!?áñ\U0001f600 \n\t0123456789") + [
        "http://", "https://", "htt", "@us", "@user", "t.co/xyz", "www", "#tag",
    ]
    rng = random.Random(20260815)
    t0 = time.perf_counter()
    for _ in range(10**5):
        text = "".join(rng.choices(pieces, k=rng.randint(0, 12)))
        once = normalize(text, rules).text
        assert normalize(once, rules).text == once
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    return f"100000 strings in {elapsed:.2f}s"


@criterion(3, "marker-aware tag relabeling matches the worked sequence")
def test_relabel_example_fidelity():
    tokens = [
        TaggedToken("I", "PRP"), TaggedToken("was", "VBD"),
        TaggedToken("just", "RB"), TaggedToken("watching", "VBG"),
        TaggedToken("``update", "NN"), TaggedToken("10.''", "Z"),
        TaggedToken("@us", ""), TaggedToken("htt", ""),
    ]
    assert relabel(tokens) == ["P", "V", "R", "V", "N", "Z", U, "REF#LINK"]


@criterion(4, "solver matches a 1e6-step subgradient oracle (rel 1e-3) and "
              "fits separable data exactly, < 60 s")
def test_solver_objective_against_oracle():
    t0 = time.perf_counter()
    instances = random_hinge_instances(50, seed=20250815)
    oracle_values = subgradient_hinge_oracle(instances, c_param=1.0, steps=10**6)

    cfg = TrainConfig(c_param=1.0, epochs=4000, tolerance=1e-12, seed=7)
    worst = 0.0
    for (rows, labels, dim), target in zip(instances, oracle_values):
        X = [SparseVector(entries, dim) for entries in rows]
        model = train_binary(X, labels, cfg)
        value = hinge_objective(model.weights, model.bias, X, labels, 1.0)
        worst = max(worst, abs(value - target) / max(1.0, abs(target)))
    assert worst <= 1e-3

    rng = random.Random(97)
    sep_cfg = TrainConfig(c_param=1e3, epochs=2000, tolerance=1e-8, seed=1)
    for _ in range(10):
        rows, labels, dim = random_separable_instance(rng)
        X = [SparseVector(entries, dim) for entries in rows]
        model = train_binary(X, labels, sep_cfg)
        assert [predict_binary(model, x)[0] for x in X] == labels

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return f"max rel diff {worst:.2e}, {elapsed:.1f}s"


@criterion(5, "classification report and trait-error numbers match hand-derived values")
def test_metric_reference_values():
    rep = report(ConfusionMatrix(["Female", "Male"], [[9, 1], [2, 8]]))
    assert rep.accuracy == 0.85
    first, second = rep.per_class
    assert (first.precision, first.recall) == (9 / 11, 9 / 10)
    assert abs(first.f_score - 6 / 7) < 1e-15
    assert (second.precision, second.recall) == (8 / 9, 8 / 10)
    assert abs(second.f_score - 16 / 19) < 1e-15

    published = {"E": 0.106, "N": 0.128, "A": 0.158, "C": 0.164, "O": 0.138}
    preds = {name: [value] for name, value in published.items()}
    truths = {name: [0.0] for name in published}
    trait_rep = trait_rmse_report(preds, truths)
    assert abs(trait_rep.mean - 0.139) <= 0.0005
    return f"trait mean {trait_rep.mean:.4f}"


@criterion(6, "planted-marker corpus of 400 reaches accuracy >= 0.95 on a 70/30 split, < 30 s")
def test_end_to_end_synthetic_experiment(tmp_path):
    t0 = time.perf_counter()
    write_marker_csv(tmp_path / "train.csv", n_docs=400, seed=0)
    result = run_experiment(parse_config_text(GENDER_CONFIG, base_dir=str(tmp_path)))
    accuracy = result.outcome.class_report.accuracy
    elapsed = time.perf_counter() - t0
    assert result.outcome.n_train == 280 and result.outcome.n_test == 120
    assert accuracy >= 0.95
    assert elapsed < 30.0
    return f"accuracy {accuracy:.3f}, {elapsed:.1f}s"


PAN_ENV = "STYLOPROF_PAN2015_ES"
PAN_DESCRIPTION = ("licensed Spanish corpus: gender accuracy >= 0.80 "
                   "and trait mean RMSE <= 0.20")


def test_licensed_corpus_benchmarks():
    corpus_dir = os.environ.get(PAN_ENV)
    if not corpus_dir:
        record_criterion_skip(7, PAN_DESCRIPTION,
                              f"set {PAN_ENV} to the corpus directory to enable")
        pytest.skip(f"{PAN_ENV} not set")

    @criterion(7, PAN_DESCRIPTION)
    def run_gated():
        base = os.path.dirname(os.path.abspath(corpus_dir))
        name = os.path.basename(os.path.normpath(corpus_dir))
        template = """\
[experiment]
task = {task}
min_df = 2

[train_corpus]
format = PanTruthDir
path = {name}
language = es
"""
        gender = run_experiment(parse_config_text(
            template.format(task="gender", name=name), base_dir=base))
        accuracy = gender.outcome.class_report.accuracy
        traits = run_experiment(parse_config_text(
            template.format(task="traits", name=name), base_dir=base))
        mean_rmse = traits.outcome.trait_report.mean
        assert accuracy >= 0.80
        assert mean_rmse <= 0.20
        return f"accuracy {accuracy:.3f}, trait mean RMSE {mean_rmse:.3f}"

    run_gated()


@criterion(8, "class counts 2573/3406 pooled at k=50 give exactly 121 samples")
def test_grouping_sample_count():
    docs = [LabeledDocument(Document(f"f{i}", "x"), LabelSet(gender="Female"))
            for i in range(2573)]
    docs += [LabeledDocument(Document(f"m{i}", "x"), LabelSet(gender="Male"))
             for i in range(3406)]
    samples = group_into_samples(docs, 50)
    assert len(samples) == 121
    by_class = Counter(s.labels.gender for s in samples)
    assert by_class == {"Female": 52, "Male": 69}
    return "52 + 69 samples"


@criterion(9, "repeated runs with one config produce identical metrics to full precision")
def test_run_determinism(tmp_path):
    from styloprof.cli import main

    write_marker_csv(tmp_path / "train.csv", n_docs=80, seed=3)
    (tmp_path / "exp.ini").write_text(GENDER_CONFIG, encoding="utf-8")
    outputs = []
    for run_index in range(2):
        out = tmp_path / f"result{run_index}.txt"
        assert main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(out)]) == 0
        outputs.append(strip_timings(out.read_text(encoding="utf-8")))
    assert outputs[0] == outputs[1]
    assert "accuracy\t" in outputs[0]  # full-precision reprs are compared
