"""The benchmark's traced run still fits the program.

`bench/spans.py` wraps the layer entry points that `experiment` and
`cli` look up by name, and `bench/worker.py` reads `key.gram` off
`experiment.extract_counts`.  These tests install the real tracer on the
live modules, run a small experiment through it, and uninstall it.
"""

import importlib.util
from pathlib import Path

from styloprof import cli, experiment, features, learner, pos
from styloprof.experiment import parse_config_text
from styloprof.features import Vocabulary
from styloprof.normalize import default_rules
from styloprof.synthetic import write_marker_csv

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


def test_install_trace_uninstall(tmp_path):
    spans = load_spans()
    before = bindings()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert bindings() != before
        write_marker_csv(tmp_path / "train.csv", n_docs=80)
        cfg = parse_config_text(CONFIG, base_dir=str(tmp_path))
        result = experiment.run_experiment(cfg)
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
    seconds = tracer.layer_seconds()
    for name in ("features.char_ngrams", "features.pos_ngrams", "features.vocab",
                 "features.vectorize", "learner.train", "learner.predict"):
        assert seconds[name] > 0, name

    plain_chars, plain_tags = experiment.sample_counts(sample)
    assert {"".join(k.gram): v for k, v in chars.items()} == plain_chars
    assert {tuple(list(k.gram)): v for k, v in tags.items()} == plain_tags

