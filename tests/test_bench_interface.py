"""The benchmark's traced run still fits the program.

`bench/spans.py` wraps the layer entry points that `experiment` and
`cli` look up by name, and `bench/worker.py` reads `key.gram` off
`experiment.extract_counts`.  These tests install the real tracer on the
live modules, run a small experiment through it, and uninstall it.

The tracer counts `features.nnz` as `len(result.entries)` of each
`vectorize` call, and the worker writes margins with `!r`, so the
matrix keeps its `entries` name and every margin is a Python float.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from styloprof import cli, experiment, features, learner, pos
from styloprof.corpus import AGE_BANDS, TRAIT_NAMES, Document, LabelSet, Sample, save_pan_truth_dir
from styloprof.experiment import parse_config_text
from styloprof.features import Vocabulary
from styloprof.normalize import default_rules
from styloprof.synthetic import write_marker_csv

from oracles import ngram_reference, pos_ngram_reference

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (cli, experiment, features, learner, pos)

CONFIG = """\
[experiment]
task = gender

[train_corpus]
format = FlatCsv
path = train.csv
language = es
grouping_k = 2
"""


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    names = {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}
    names[("Vocabulary", "load")] = vars(Vocabulary)["load"]
    return names


def test_install_trace_uninstall(tmp_path, monkeypatch):
    built, vectorized = [], []

    def recording_vectorize(samples, vocab, policy):
        vectorized.append((list(samples), vocab))
        built.append(features.vectorize(vectorized[-1][0], vocab, policy))
        return built[-1]

    monkeypatch.setattr(experiment, "vectorize", recording_vectorize)
    spans = load_spans()
    before = bindings()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert bindings() != before
        write_marker_csv(tmp_path / "train.csv", n_docs=80)
        cfg = parse_config_text(CONFIG, base_dir=str(tmp_path))
        result = experiment.run_experiment(cfg)
        run_counts = Counter(tracer.counts)
        # what bench/worker.py reads off the counts after the timed part
        prepared = experiment.prepare_corpus(cfg.train_corpus, default_rules("es"), {}, [])
        sample = experiment.as_samples(prepared)[0]
        chars, tags = experiment.extract_counts(sample)
    finally:
        tracer.uninstall()
    assert bindings() == before

    assert result.outcome.class_report.total > 0
    counts = tracer.counts
    for name in ("corpus.docs", "normalize.calls", "pos.tokens", "features.char_grams",
                 "features.pos_grams", "features.vocab_size", "features.nnz",
                 "learner.submodels", "learner.epochs", "experiment.samples"):
        assert counts[name] > 0, name
    assert len(built) == 2  # training and test matrices
    assert counts["features.nnz"] == sum(int(X.indptr[-1]) for X in built)
    margins = [margin for _, _, margin in result.outcome.predictions]
    assert len(margins) == result.outcome.n_test
    for margin in margins:
        assert type(margin) is float
        assert float(repr(margin)) == margin
    seconds = tracer.layer_seconds()
    for name in ("features.char_ngrams", "features.pos_ngrams", "features.vocab",
                 "features.vectorize", "learner.train", "learner.predict"):
        assert seconds[name] > 0, name

    plain_chars, plain_tags = experiment.sample_counts(sample)
    assert {"".join(k.gram): v for k, v in chars.items()} == plain_chars
    assert {tuple(list(k.gram)): v for k, v in tags.items()} == plain_tags

    # the run's layer counts, recomputed without the tracer from the same
    # corpus: every document tagged once, every sample counted once, and
    # one stored entry per in-vocabulary gram with a nonzero count
    prepared = experiment.prepare_corpus(cfg.train_corpus, default_rules("es"), {}, [])
    pooled = [doc for s in experiment.as_samples(prepared) for doc in s.documents]
    docs = {doc.id: doc for doc in pooled}
    assert len(docs) == len(pooled) == 80
    assert run_counts["pos.tokens"] == sum(len(doc.pos_tags) for doc in docs.values())
    assert run_counts["features.char_grams"] == sum(
        sum(ngram_reference(doc.text, 1, 3).values()) for doc in pooled)
    assert run_counts["features.pos_grams"] == sum(
        sum(pos_ngram_reference(list(doc.pos_tags), 1, 3).values()) for doc in pooled)
    assert run_counts["features.nnz"] == sum(
        sum(1 for gram, n in chars.items() if n and gram in vocab.char_index)
        + sum(1 for gram, n in tags.items() if n and gram in vocab.pos_index)
        for pairs, vocab in vectorized for chars, tags in pairs)



PAN_CONFIG = """\
[experiment]
task = {task}
train_fraction = 0.7
split_seed = 3
min_df = 1

[train_corpus]
format = PanTruthDir
path = pan
language = es

[training]
epochs = 60
"""


def write_pan_corpus(root, authors=16, tweets=8, seed=5):
    """Authors with pooled tweets of random syllable words: few samples
    with long rows, as in the benchmark's pan-age-traits workload."""
    rng = random.Random(seed)
    syllables = ["ka", "lo", "mi", "ter", "sun", "bra", "que", "ño", "vel", "dri", "pa", "xo"]
    words = ["".join(rng.choice(syllables) for _ in range(rng.randint(1, 4))) for _ in range(400)]
    samples = []
    for a in range(authors):
        traits = {name: round(rng.uniform(-0.5, 0.5), 1) for name in TRAIT_NAMES}
        documents = [Document(id=f"u{a}:{t}",
                              text=" ".join(rng.choice(words) for _ in range(rng.randint(8, 16))))
                     for t in range(tweets)]
        samples.append(Sample(id=f"u{a:02d}", documents=documents,
                              labels=LabelSet(gender=("Female", "Male")[a % 2],
                                              age_band=AGE_BANDS[a % 4], traits=traits)))
    save_pan_truth_dir(samples, str(root))


def numpy_objective(X, weights, bias, c_param, t, epsilon=None) -> float:
    """The primal objective from saved weights: hinge for labels t = +-1,
    epsilon-insensitive for targets t when epsilon is given."""
    rows = np.repeat(np.arange(len(X)), np.diff(X.indptr))
    m = np.bincount(rows, weights=X.entries * weights[X.indices], minlength=len(X)) + bias
    t = np.asarray(t, dtype=np.float64)
    loss = np.maximum(0.0, 1.0 - t * m) if epsilon is None else np.maximum(0.0, np.abs(m - t) - epsilon)
    return 0.5 * (float(weights @ weights) + bias * bias) + c_param * float(loss.sum())


@pytest.mark.parametrize("task", ["age", "traits"])
def test_traced_gram_regime_objectives(tmp_path, monkeypatch, task):
    """An experiment shaped like pan-age-traits trains on the Gram form
    under the tracer, and every submodel's last epoch objective matches
    the numpy recompute from its saved weights within the 1e-8 bound
    that bench/checks.py applies."""
    trained = []
    fn = "train_ovr" if task == "age" else "train_traits"
    real = getattr(learner, fn)

    def recording_train(X, y, cfg, *args, **kwargs):
        trained.append((X, y, cfg, real(X, y, cfg, *args, **kwargs)))
        return trained[-1][-1]

    monkeypatch.setattr(experiment, fn, recording_train)
    write_pan_corpus(tmp_path / "pan")
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        result = experiment.run_experiment(
            parse_config_text(PAN_CONFIG.format(task=task), base_dir=str(tmp_path)))
    finally:
        tracer.uninstall()

    (X, y, cfg, model), = trained
    assert type(learner._prepare(X, cfg.epochs)) is learner._GramForm
    learner.save_model(result.outcome.bundle, tmp_path / "m.model")
    saved = learner.load_model(tmp_path / "m.model").model
    if task == "age":
        assert model is result.outcome.bundle.model
        checks = [(sub.epoch_objectives, saved_sub.weights, saved_sub.bias,
                   [1 if label == cls else -1 for label in y], None)
                  for cls, sub, saved_sub in zip(model.classes, model.models, saved.models)]
    else:
        checks = [(model.epoch_objectives[name], saved.weights[name], saved.biases[name],
                   [row[name] for row in y], cfg.epsilon) for name in TRAIT_NAMES]
    for history, weights, bias, t, epsilon in checks:
        mine = numpy_objective(X, weights, bias, cfg.c_param, t, epsilon)
        assert abs(history[-1] - mine) <= 1e-8 * max(1.0, abs(mine))
    counts = tracer.counts
    assert counts["learner.submodels"] == len(checks)
    assert counts["learner.epochs"] == sum(len(history) for history, *_ in checks)
    assert counts["learner.final_objective"] == pytest.approx(
        sum(history[-1] for history, *_ in checks), rel=1e-12)
