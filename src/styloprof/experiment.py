"""Config-driven experiment pipeline.

A flat INI config describes a full experiment: corpora, task, scaling,
split, training hyperparameters, and optionally a sample-size sweep.
Every corpus is prepared the same way: its documents are normalized and
POS-tagged (a sidecar file per flat file or per author, else the fallback
tagger) and grouped into samples, a truth dir's by author and a flat
file's by class in chunks of `grouping_k`.  Three protocols are supported:

* split mode   — no [test_corpus] section: a seeded stratified split of
  the samples;
* cross mode   — [test_corpus] present: train on the whole training
  corpus, evaluate on the whole external corpus, no split;
* sweep mode   — [sweep] present: one independent sub-experiment per
  sample size k, each regrouping the documents into samples of k, with
  its own split, vocabulary and model.

Char n-grams are counted through one token -> windows dict
(`features.char_ngrams`) per entry point: `run_experiment` makes one
per call and shares it between training, test and every sweep size;
`train_full`, `predict_samples` and `cli featurize` each make their own
when called alone.  The dict is dropped when that call returns.

Result files carry enough provenance (config text and hash, corpus
fingerprints, seeds, vocabulary hash) to re-run identically; wall-clock
timings sit in the final section so byte comparison can drop them.
"""

from __future__ import annotations

import configparser
import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from .corpus import (CorpusSpec, Document, LabeledDocument, Sample, author_path,
                     group_into_samples, load_flat_csv, load_pan_truth_dir,
                     open_text, split_lines, stratified_split, truth_path, TRAIT_NAMES)
from .errors import ConfigError, DataError
from .features import (CHAR, LINEAR, LOG2, POS, FeatureKey, ScalingPolicy, Vocabulary,
                       build_vocabulary, char_ngrams, default_policy, pos_ngrams, vectorize)
from .learner import ModelBundle, TrainConfig, _heads, predict, train_binary, train_ovr, train_traits
from .metrics import (ClassReport, TraitReport, confusion, render_report,
                      render_trait_report, report, trait_rmse_report)
from .normalize import default_rules, load_rules, normalize
from .pos import TaggedToken, fallback_tag, load_lexicon, relabel, simple_tokenize

TASKS = ("gender", "age", "traits")
RESULT_FORMAT = "styloprof-result-v1"

_REQUIRED = object()


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    task: str
    train_corpus: CorpusSpec
    test_corpus: CorpusSpec | None
    split_fraction: float
    split_seed: int
    min_df: int
    scaling: ScalingPolicy | None  # None means resolve from the train language
    train_config: TrainConfig
    sweep_k: list[int] | None
    rules_path: str | None
    lexicon_path: str | None
    raw_text: str
    base_dir: str

    def resolved_scaling(self) -> ScalingPolicy:
        if self.scaling is not None:
            return self.scaling
        return default_policy(self.train_corpus.language)


class _Section:
    """Tracks consumed keys so leftovers can be reported as unknown."""

    def __init__(self, name: str, items: dict, errors: list):
        self.name = name
        self.items = dict(items)
        self.errors = errors

    def take(self, key: str, conv, default=_REQUIRED):
        if key not in self.items:
            if default is _REQUIRED:
                self.errors.append(f"[{self.name}] missing required key {key!r}")
                return None
            return default
        raw = self.items.pop(key).strip()
        try:
            return conv(raw)
        except (ValueError, ConfigError) as exc:
            self.errors.append(f"[{self.name}] {key} = {raw!r}: {exc}")
            return None

    def finish(self):
        for key in self.items:
            self.errors.append(f"[{self.name}] unknown key {key!r}")


def _parse_scaling(raw: str) -> ScalingPolicy | None:
    if raw == "auto":
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2 or any(p not in (LINEAR, LOG2) for p in parts):
        raise ValueError(f"expected 'auto' or '<char>,<pos>' with values {LINEAR}/{LOG2}")
    return ScalingPolicy(parts[0], parts[1])


def _parse_k_values(raw: str) -> list[int]:
    values = []
    for token in raw.split(","):
        k = int(token.strip())
        if k < 1:
            raise ValueError(f"sample size {k} is not positive")
        values.append(k)
    if not values:
        raise ValueError("empty sample-size list")
    if len(set(values)) != len(values):
        raise ValueError("duplicate sample sizes")
    return values


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _fraction(raw: str) -> float:
    value = float(raw)
    if not (0.0 < value < 1.0):
        raise ValueError("must lie strictly between 0 and 1")
    return value


def _corpus_section(section: _Section, base_dir: str) -> CorpusSpec | None:
    fmt = section.take("format", str)
    path = section.take("path", str)
    language = section.take("language", str)
    grouping_k = section.take("grouping_k", _positive_int, default=None)
    delimiter = section.take("delimiter", str, default=",")
    section.finish()
    if fmt is None or path is None or language is None:
        return None
    if not path:
        section.errors.append(f"[{section.name}] path must not be empty")
        return None
    try:
        return CorpusSpec(format=fmt, path=os.path.join(base_dir, path),
                          language=language, grouping_k=grouping_k, delimiter=delimiter)
    except ConfigError as exc:
        section.errors.append(f"[{section.name}] {exc}")
        return None


def parse_config_text(raw_text: str, base_dir: str = ".") -> ExperimentConfig:
    """Parse and validate an experiment config, reporting every problem at
    once.  Relative corpus paths resolve against `base_dir`."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw_text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    errors: list[str] = []
    known = {"experiment", "train_corpus", "test_corpus", "training", "sweep"}
    for name in parser.sections():
        if name not in known:
            errors.append(f"unknown section [{name}]")
    for required in ("experiment", "train_corpus"):
        if required not in parser:
            errors.append(f"missing required section [{required}]")
    if errors and ("experiment" not in parser or "train_corpus" not in parser):
        raise ConfigError("invalid experiment config:\n  " + "\n  ".join(errors))

    exp = _Section("experiment", parser["experiment"], errors)
    task = exp.take("task", str)
    split_fraction = exp.take("train_fraction", _fraction, default=0.7)
    split_seed = exp.take("split_seed", int, default=0)
    min_df = exp.take("min_df", _positive_int, default=2)
    scaling = exp.take("scaling", _parse_scaling, default=None)
    rules_path = exp.take("rules", str, default=None)
    lexicon_path = exp.take("lexicon", str, default=None)
    exp.finish()
    if task is not None and task not in TASKS:
        errors.append(f"[experiment] task must be one of {TASKS}, got {task!r}")

    train_corpus = _corpus_section(_Section("train_corpus", parser["train_corpus"], errors), base_dir)
    test_corpus = None
    if "test_corpus" in parser:
        test_corpus = _corpus_section(_Section("test_corpus", parser["test_corpus"], errors), base_dir)

    tr = _Section("training", parser["training"] if "training" in parser else {}, errors)
    c_param = tr.take("c_param", float, default=1.0)
    epochs = tr.take("epochs", _positive_int, default=50)
    tolerance = tr.take("tolerance", float, default=1e-4)
    train_seed = tr.take("seed", int, default=0)
    epsilon = tr.take("epsilon", float, default=0.1)
    tr.finish()
    train_config = None
    if None not in (c_param, epochs, tolerance, train_seed, epsilon):
        try:
            train_config = TrainConfig(c_param=c_param, epochs=epochs, tolerance=tolerance,
                                       seed=train_seed, epsilon=epsilon)
        except DataError as exc:
            errors.append(f"[training] {exc}")

    sweep_k = None
    if "sweep" in parser:
        sw = _Section("sweep", parser["sweep"], errors)
        sweep_k = sw.take("k_values", _parse_k_values)
        sw.finish()

    # cross-field rules
    if sweep_k is not None and test_corpus is not None:
        errors.append("a sample-size sweep runs split experiments; remove [test_corpus] or [sweep]")
    if sweep_k is not None and task is not None and task != "gender":
        errors.append("sample-size sweeps support only the gender task")
    if sweep_k is not None and train_corpus is not None and train_corpus.format != "FlatCsv":
        errors.append("sample-size sweeps need a FlatCsv train corpus to regroup")
    for label, spec in (("train_corpus", train_corpus), ("test_corpus", test_corpus)):
        if spec is None:
            continue
        if task in ("age", "traits") and spec.format == "FlatCsv":
            errors.append(f"[{label}] the {task} task needs PanTruthDir corpora (flat files carry gender only)")

    if errors:
        raise ConfigError("invalid experiment config:\n  " + "\n  ".join(errors))
    return ExperimentConfig(
        task=task, train_corpus=train_corpus, test_corpus=test_corpus,
        split_fraction=split_fraction, split_seed=split_seed, min_df=min_df,
        scaling=scaling, train_config=train_config, sweep_k=sweep_k,
        rules_path=os.path.join(base_dir, rules_path) if rules_path else None,
        lexicon_path=os.path.join(base_dir, lexicon_path) if lexicon_path else None,
        raw_text=raw_text, base_dir=base_dir,
    )


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open_text(path) as fh:
            raw_text = fh.read()
    except (OSError, DataError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(raw_text, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# corpus preparation: normalization, POS streams and grouping into samples

def load_rules_and_lexicon(rules_path: str | None, lexicon_path: str | None, language: str):
    """(rules, lexicon): the rules file, else the default rules for
    `language`, and the lexicon file, else an empty lexicon."""
    rules = load_rules(rules_path) if rules_path else default_rules(language)
    return rules, load_lexicon(lexicon_path) if lexicon_path else {}


@dataclass
class PreparedCorpus:
    samples: list[Sample]
    pos_source: str                       # sidecar | fallback | mixed(...)
    fingerprint: str


def _sidecar_path(base: str) -> str | None:
    for candidate in (base + ".pos", base + ".pos.gz"):
        if os.path.exists(candidate):
            return candidate
    return None


def _process_document(doc: Document, rules, lexicon, stream=None) -> Document:
    normalized = normalize(doc.text, rules).text
    tags = stream if stream is not None else relabel(fallback_tag(simple_tokenize(normalized), lexicon))
    return Document(id=doc.id, text=normalized, pos_tags=tuple(tags))


def _corpus_fingerprint(paths) -> str:
    """SHA-256 over the files a corpus was loaded from, in basename order
    (then path order, for files that share a basename), each as its
    basename, a NUL byte and its bytes."""
    h = hashlib.sha256()
    for path in sorted(set(paths), key=lambda path: (os.path.basename(path), path)):
        h.update(os.path.basename(path).encode("utf-8"))
        h.update(b"\x00")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def _sidecar_streams(sidecar: str, n_docs: int, owner: str, rules) -> list[list[str]]:
    """One relabeled POS stream per block of a sidecar file; the block
    count must match the `n_docs` documents that `owner` names."""
    from .pos import ingest_tagged_file

    blocks = ingest_tagged_file(sidecar)
    if len(blocks) != n_docs:
        raise DataError(f"{sidecar}: {len(blocks)} tagged documents but {owner}")
    return [relabel([TaggedToken(normalize(tok.surface, rules).text, tok.fine_tag) for tok in block])
            for block in blocks]


def _layout(spec: CorpusSpec):
    """Everything preparation must know of a corpus's layout: its sidecar
    units, each (source file, sidecar base path, owner named in block-count
    errors, documents), as one flat file or one per author; the files read
    besides the sources; the warning for a corpus with no sidecar; and how
    the units' processed documents group into samples."""
    if spec.format == "FlatCsv":
        if not os.path.exists(spec.path):
            raise DataError(f"corpus file not found: {spec.path}")
        rows = load_flat_csv(spec)
        units = [(spec.path, spec.path, f"the corpus has {len(rows)} rows", [r.document for r in rows])]
        return (units, [], f"no POS sidecar next to {spec.path}; used the fallback tagger",
                lambda unit_docs: group_into_samples(
                    [LabeledDocument(doc, row.labels) for doc, row in zip(unit_docs[0], rows)],
                    spec.grouping_k or 1))
    if not os.path.isdir(spec.path):
        raise DataError(f"corpus directory not found: {spec.path}")
    authors = load_pan_truth_dir(spec)
    units = [(author_path(spec.path, a.id), os.path.join(spec.path, a.id),
              f"author {a.id!r} has {len(a.documents)}", a.documents) for a in authors]
    return (units, [truth_path(spec.path)], f"no POS sidecars in {spec.path}; used the fallback tagger",
            lambda unit_docs: [Sample(a.id, docs, a.labels) for a, docs in zip(authors, unit_docs)])


def prepare_corpus(spec: CorpusSpec, rules, lexicon, warnings: list[str]) -> PreparedCorpus:
    """Load a corpus, attach normalized text and POS streams to every
    document, and group the documents into samples: a truth dir's by
    author, a flat file's by class in chunks of `grouping_k` (default 1).
    Pre-tagged sidecar files win over the fallback tagger."""
    units, loaded, fallback_warning, group = _layout(spec)
    unit_docs, tagged = [], 0
    for source, sidecar_base, owner, docs in units:
        loaded.append(source)
        sidecar = _sidecar_path(sidecar_base)
        if sidecar:
            loaded.append(sidecar)
            streams = _sidecar_streams(sidecar, len(docs), owner, rules)
            tagged += 1
        else:
            streams = [None] * len(docs)
        unit_docs.append([_process_document(doc, rules, lexicon, stream)
                          for doc, stream in zip(docs, streams)])
    if tagged == len(units):
        pos_source = "sidecar"
    elif tagged == 0:
        pos_source = "fallback"
        warnings.append(fallback_warning)
    else:
        pos_source = f"mixed({tagged}/{len(units)} sidecars)"
        warnings.append(f"POS sidecars found for only {tagged} of {len(units)} authors in {spec.path}")
    return PreparedCorpus(samples=group(unit_docs), pos_source=pos_source,
                          fingerprint=_corpus_fingerprint(loaded))


def as_samples(prepared: PreparedCorpus, k: int | None = None) -> list[Sample]:
    """The prepared samples; with `k`, their documents regrouped by class
    in chunks of k.  Grouping keeps the order in which classes first
    appear and the order within each class, so regrouping a flat file's
    samples gives the samples that grouping its rows by k gives."""
    if k is None:
        return prepared.samples
    return group_into_samples([LabeledDocument(doc, s.labels) for s in prepared.samples
                               for doc in s.documents], k)


# ---------------------------------------------------------------------------
# feature extraction and task runners

def sample_counts(sample: Sample, windows: dict | None = None) -> tuple[Counter, Counter]:
    """Char (string-keyed) and POS (tuple-keyed) gram counts pooled over
    every document of a sample.  Tokens never span documents, so the
    char grams of the joined texts are the sum of each document's.
    `windows` is `char_ngrams`'s token -> windows dict, shared by the
    caller across samples."""
    chars = char_ngrams(" ".join(doc.text for doc in sample.documents), windows)
    tags: Counter = Counter()
    for doc in sample.documents:
        # elements() keeps the merge in C; Counter.update merges a mapping
        # key by key in Python
        tags.update(pos_ngrams(list(doc.pos_tags)).elements())
    return chars, tags


def extract_counts(sample: Sample) -> tuple[Counter, Counter]:
    """`sample_counts` re-keyed by `FeatureKey`.

    A benchmark-only view: the benchmark's recount check reads `key.gram`
    off the pooled counts.  Its output is not input for `build_vocabulary`
    or `vectorize`, which take `sample_counts`'s plain keys."""
    chars, tags = sample_counts(sample)
    return (Counter({FeatureKey(CHAR, tuple(gram)): n for gram, n in chars.items()}),
            Counter({FeatureKey(POS, gram): n for gram, n in tags.items()}))


@dataclass
class RunOutcome:
    vocab_hash: str
    n_train: int
    n_test: int
    class_report: ClassReport | None = None
    trait_report: TraitReport | None = None
    predictions: list = field(default_factory=list)
    bundle: ModelBundle | None = None
    warnings: list[str] = field(default_factory=list)


def _first_appearance(values) -> list:
    return list(dict.fromkeys(values))


_MODEL_KIND = {"gender": "binary", "age": "ovr", "traits": "traits"}

# model kind -> the label it learns: LabelSet attribute, name in messages
_LABELS = {"binary": ("gender", "gender"), "ovr": ("age_band", "age band"),
           "traits": ("traits", "traits")}


def _train_task(task: str, X, train_samples: list[Sample], tc: TrainConfig,
                policy: ScalingPolicy, vocab_hash: str, warnings: list[str]) -> ModelBundle:
    """Fit the task's model; warns when submodels stopped at the epoch cap."""
    kind = _MODEL_KIND[task]
    labels = [value for _, value in truth_rows(kind, train_samples)]
    if kind == "binary":
        classes = _first_appearance(labels)
        if len(classes) != 2:
            raise DataError(f"gender task needs exactly two classes in training data, got {classes}")
        y = [1 if lab == classes[0] else -1 for lab in labels]
        model = train_binary(X, y, tc, label_positive=classes[0], label_negative=classes[1])
    elif kind == "ovr":
        model = train_ovr(X, labels, tc)
    else:
        model = train_traits(X, labels, tc)
    converged = [head.converged for head in _heads(model)[2]]
    capped = converged.count(False)
    if capped:
        warnings.append(f"{capped} of {len(converged)} submodels stopped at the epoch cap "
                        f"({tc.epochs} epochs) before reaching tolerance {tc.tolerance!r}")
    return ModelBundle(kind=kind, vocab_hash=vocab_hash, policy=policy, config=tc, model=model)


def predict_one(bundle: ModelBundle, X):
    """Predictions for every row of the matrix X, one per sample: (label,
    margin) for classifiers, a trait->value dict for regressors."""
    return predict(bundle.model, X)


def predict_samples(bundle: ModelBundle, vocab: Vocabulary, samples: list[Sample],
                    windows: dict | None = None) -> list[tuple]:
    """(sample id, label, margin) per sample for classifiers, (sample id,
    trait->value dict) for regressors.  Without `windows`, the samples
    share a token -> windows dict of their own."""
    windows = {} if windows is None else windows
    X = vectorize([sample_counts(s, windows) for s in samples], vocab, bundle.policy)
    predictions = predict_one(bundle, X)
    if bundle.kind == "traits":
        return [(s.id, values) for s, values in zip(samples, predictions)]
    return [(s.id, label, margin) for s, (label, margin) in zip(samples, predictions)]


def truth_rows(kind: str, samples: list[Sample]) -> list[tuple]:
    """(sample id, label) per sample, the label a model of `kind` learns."""
    attribute, name = _LABELS[kind]
    rows = []
    for sample in samples:
        value = getattr(sample.labels, attribute)
        if value is None:
            raise DataError(f"sample {sample.id!r} lacks a {name} label")
        rows.append((sample.id, value))
    return rows


def _fit(task: str, samples: list[Sample], policy: ScalingPolicy, min_df: int, tc: TrainConfig,
         warnings: list[str], windows: dict) -> tuple[Vocabulary, ModelBundle]:
    """Counts, vocabulary, one matrix and the task's model, from training
    samples only."""
    counts = [sample_counts(s, windows) for s in samples]
    vocab = build_vocabulary(counts, min_df=min_df)
    X = vectorize(counts, vocab, policy)
    return vocab, _train_task(task, X, samples, tc, policy, vocab.content_hash(), warnings)


def run_single(task: str, train_samples: list[Sample], test_samples: list[Sample],
               policy: ScalingPolicy, min_df: int, tc: TrainConfig,
               report_classes: list | None = None, windows: dict | None = None) -> RunOutcome:
    """Fit on the training samples and score the test samples, both
    counted through one token -> windows dict (`windows`, else a new one)."""
    warnings: list[str] = []
    windows = {} if windows is None else windows
    vocab, bundle = _fit(task, train_samples, policy, min_df, tc, warnings, windows)
    outcome = RunOutcome(vocab_hash=bundle.vocab_hash, n_train=len(train_samples),
                         n_test=len(test_samples), bundle=bundle, warnings=warnings,
                         predictions=predict_samples(bundle, vocab, test_samples, windows))
    truth = [value for _, value in truth_rows(bundle.kind, test_samples)]

    if task == "traits":
        outcome.trait_report = trait_rmse_report(
            {name: [values[name] for _, values in outcome.predictions] for name in TRAIT_NAMES},
            {name: [values[name] for values in truth] for name in TRAIT_NAMES})
        return outcome

    pred = [label for _, label, _ in outcome.predictions]
    if report_classes is None:
        report_classes = _first_appearance(_heads(bundle.model)[1] + truth)
    outcome.class_report = report(confusion(truth, pred, report_classes))
    return outcome


def train_full(cfg: ExperimentConfig):
    """Train on the whole training corpus, no split.  Returns the fitted
    vocabulary, the model bundle, the sample count and any warnings."""
    warnings: list[str] = []
    rules, lexicon = load_rules_and_lexicon(cfg.rules_path, cfg.lexicon_path, cfg.train_corpus.language)
    prepared = prepare_corpus(cfg.train_corpus, rules, lexicon, warnings)
    samples = as_samples(prepared)
    vocab, bundle = _fit(cfg.task, samples, cfg.resolved_scaling(), cfg.min_df,
                         cfg.train_config, warnings, {})
    return vocab, bundle, len(samples), warnings


_SPLIT_KEY = {"gender": "gender", "age": "age_band", "traits": "gender"}


# ---------------------------------------------------------------------------
# full experiment

@dataclass
class ExperimentResult:
    mode: str  # split | cross | sweep
    task: str
    provenance: dict
    warnings: list[str]
    outcome: RunOutcome | None          # single-run modes
    sweep_rows: list[dict] | None       # sweep mode
    sweep_classes: list | None
    config_text: str
    timings: list[tuple[str, float]]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    warnings: list[str] = []
    timings: list[tuple[str, float]] = []
    rules, lexicon = load_rules_and_lexicon(cfg.rules_path, cfg.lexicon_path, cfg.train_corpus.language)

    t0 = time.perf_counter()
    train_prepared = prepare_corpus(cfg.train_corpus, rules, lexicon, warnings)
    test_prepared = None
    if cfg.test_corpus is not None:
        if cfg.test_corpus.language != cfg.train_corpus.language:
            warnings.append("train and test corpora declare different languages; "
                            "scaling follows the train corpus")
        # a rules file serves both corpora; default rules follow each one's language
        test_rules = rules if cfg.rules_path else default_rules(cfg.test_corpus.language)
        test_prepared = prepare_corpus(cfg.test_corpus, test_rules, lexicon, warnings)
    timings.append(("load_and_process", time.perf_counter() - t0))

    policy = cfg.resolved_scaling()
    provenance = {
        "task": cfg.task,
        "config_sha256": hashlib.sha256(cfg.raw_text.encode("utf-8")).hexdigest(),
        "train_corpus_sha256": train_prepared.fingerprint,
        "train_pos_source": train_prepared.pos_source,
        "scaling": f"{policy.char_scale},{policy.pos_scale}",
        "min_df": str(cfg.min_df),
        "split_fraction": repr(cfg.split_fraction),
        "split_seed": str(cfg.split_seed),
        "train_seed": str(cfg.train_config.seed),
        "c_param": repr(cfg.train_config.c_param),
        "epochs": str(cfg.train_config.epochs),
        "tolerance": repr(cfg.train_config.tolerance),
        "epsilon": repr(cfg.train_config.epsilon),
    }
    if test_prepared is not None:
        provenance["test_corpus_sha256"] = test_prepared.fingerprint
        provenance["test_pos_source"] = test_prepared.pos_source

    windows: dict = {}
    if cfg.sweep_k is not None:
        rows, classes = _run_sweep(cfg, train_prepared, policy, timings, warnings, windows)
        return ExperimentResult(mode="sweep", task=cfg.task, provenance=provenance,
                                warnings=warnings, outcome=None, sweep_rows=rows,
                                sweep_classes=classes, config_text=cfg.raw_text, timings=timings)

    t0 = time.perf_counter()
    if test_prepared is not None:
        mode = "cross"
        train_samples = as_samples(train_prepared)
        test_samples = as_samples(test_prepared)
    else:
        mode = "split"
        samples = as_samples(train_prepared)
        train_samples, test_samples = stratified_split(samples, cfg.split_fraction,
                                                       cfg.split_seed, key=_SPLIT_KEY[cfg.task])
    timings.append(("group_and_split", time.perf_counter() - t0))

    t0 = time.perf_counter()
    outcome = run_single(cfg.task, train_samples, test_samples, policy, cfg.min_df, cfg.train_config,
                         windows=windows)
    timings.append(("features_train_evaluate", time.perf_counter() - t0))
    warnings.extend(outcome.warnings)
    provenance["vocab_sha256"] = outcome.vocab_hash
    provenance["n_train"] = str(outcome.n_train)
    provenance["n_test"] = str(outcome.n_test)
    return ExperimentResult(mode=mode, task=cfg.task, provenance=provenance,
                            warnings=warnings, outcome=outcome, sweep_rows=None,
                            sweep_classes=None, config_text=cfg.raw_text, timings=timings)


def _run_sweep(cfg: ExperimentConfig, prepared: PreparedCorpus, policy: ScalingPolicy,
               timings, warnings: list[str], windows: dict) -> tuple[list[dict], list]:
    """One independent micro-experiment per sample size; vocabulary and
    model are rebuilt from scratch for every k."""
    classes = _first_appearance(s.labels.gender for s in prepared.samples)
    rows = []
    for k in cfg.sweep_k:
        t0 = time.perf_counter()
        samples = as_samples(prepared, k=k)
        train_samples, test_samples = stratified_split(samples, cfg.split_fraction,
                                                       cfg.split_seed, key=_SPLIT_KEY[cfg.task])
        outcome = run_single(cfg.task, train_samples, test_samples, policy,
                             cfg.min_df, cfg.train_config, report_classes=classes,
                             windows=windows)
        elapsed = time.perf_counter() - t0
        warnings.extend(f"sample size {k}: {warning}" for warning in outcome.warnings)
        row = {"k": k, "n_train": outcome.n_train, "n_test": outcome.n_test,
               "accuracy": outcome.class_report.accuracy,
               "vocab_sha256": outcome.vocab_hash, "seconds": elapsed}
        for scores in outcome.class_report.per_class:
            row[f"P:{scores.label}"] = scores.precision
            row[f"R:{scores.label}"] = scores.recall
            row[f"F:{scores.label}"] = scores.f_score
        rows.append(row)
        timings.append((f"sweep_k{k}", elapsed))
    return rows, classes


# ---------------------------------------------------------------------------
# result rendering

def render_result(result: ExperimentResult) -> str:
    lines = [RESULT_FORMAT, "## provenance", f"mode\t{result.mode}"]
    for key, value in result.provenance.items():
        lines.append(f"{key}\t{value}")
    for warning in result.warnings:
        lines.append(f"warning\t{warning}")

    if result.outcome is not None:
        lines.append("## metrics")
        out = result.outcome
        if out.class_report is not None:
            rep = out.class_report
            lines.append(f"accuracy\t{rep.accuracy!r}")
            lines.append(f"correct\t{rep.correct}\ttotal\t{rep.total}")
            for scores in rep.per_class:
                lines.append(f"class\t{scores.label}\tP\t{scores.precision!r}"
                             f"\tR\t{scores.recall!r}\tF\t{scores.f_score!r}"
                             f"\ttp\t{scores.tp}\tfp\t{scores.fp}\tfn\t{scores.fn}")
            lines.append("## report")
            lines.extend(render_report(rep).splitlines())
        if out.trait_report is not None:
            rep = out.trait_report
            for name, value in rep.per_trait.items():
                lines.append(f"trait\t{name}\trmse\t{value!r}")
            lines.append(f"trait_mean\t{rep.mean!r}")
            lines.append("## report")
            lines.extend(render_trait_report(rep).splitlines())

    if result.sweep_rows is not None:
        lines.append("## sweep")
        metric_cols = ["accuracy"]
        for cls in result.sweep_classes:
            metric_cols.extend([f"P:{cls}", f"R:{cls}", f"F:{cls}"])
        lines.append("\t".join(["k", "n_train", "n_test"] + metric_cols))
        for row in result.sweep_rows:
            cells = [str(row["k"]), str(row["n_train"]), str(row["n_test"])]
            cells.extend(repr(row[c]) for c in metric_cols)
            lines.append("\t".join(cells))
        lines.append("## sweep_provenance")
        for row in result.sweep_rows:
            lines.append(f"k\t{row['k']}\tvocab_sha256\t{row['vocab_sha256']}")

    lines.append("## config")
    for raw_line in split_lines(result.config_text):
        lines.append(f"| {raw_line}")
    lines.append("## timing")
    for stage, seconds in result.timings:
        lines.append(f"{stage}\t{seconds:.3f}")
    return "\n".join(lines) + "\n"


def extract_config(result_text: str) -> str:
    """Inverse of the `## config` embedding in a result file."""
    lines = []
    inside = False
    for line in split_lines(result_text):
        if line == "## config":
            inside = True
            continue
        if inside and line.startswith("## "):
            break
        if inside:
            if line == "|":
                lines.append("")
            elif line.startswith("| "):
                lines.append(line[2:])
            else:
                raise DataError("malformed config block in result file")
    if not inside:
        raise DataError("result file has no config block")
    return "\n".join(lines) + "\n"


def strip_timings(result_text: str) -> str:
    """Result text without the trailing timing section, for byte-level
    determinism comparisons."""
    marker = "\n## timing\n"
    index = result_text.find(marker)
    return result_text if index < 0 else result_text[: index + 1]
