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

Each task is learned by one model family and reads one label, as the
`TASKS` table says; the config check, the split and the truth rows all
read that table.

Char n-grams are counted through one token -> windows dict
(`features.char_ngrams`) per batch of samples (`batch_counts`): a run's
training samples and its test samples each have their own, as do the
samples `predict_samples` labels and those `cli featurize` counts.  The
dict is dropped when the batch is counted.

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
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

from .corpus import (CorpusSpec, Document, LabeledDocument, Sample, author_path,
                     group_into_samples, load_flat_csv, load_pan_truth_dir,
                     open_text, plain_or_gz, split_lines, stratified_split, truth_path,
                     TRAIT_NAMES)
from .errors import ConfigError, DataError
from .features import (CHAR, LINEAR, LOG2, MIN_DF, POS, FeatureKey, ScalingPolicy, Vocabulary,
                       build_vocabulary, char_ngrams, default_policy, pos_ngrams, vectorize)
from .learner import ModelBundle, TrainConfig, _heads, predict, train_binary, train_ovr, train_traits
from .metrics import (ClassReport, TraitReport, confusion, render_report,
                      render_trait_report, report, trait_rmse_report)
from .normalize import default_rules, load_rules, normalize
from .pos import TaggedToken, fallback_tag, load_lexicon, relabel, simple_tokenize


class Task(NamedTuple):
    kind: str      # the model family that learns it: binary | ovr | traits
    label: str     # the LabelSet attribute that model learns
    split_by: str  # the LabelSet attribute a split stratifies by


# the one place that names each task's model family, label and split
TASKS = {"gender": Task("binary", "gender", "gender"),
         "age": Task("ovr", "age_band", "age_band"),
         "traits": Task("traits", "traits", "gender")}
RESULT_FORMAT = "styloprof-result-v1"


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
    scaling: ScalingPolicy  # `auto` is resolved from the train language
    train_config: TrainConfig
    sweep_k: list[int] | None
    rules_path: str | None
    lexicon_path: str | None
    raw_text: str


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


# a config dataclass field's annotation -> the reader of its value
_READERS = {"str": str, "int": int, "int | None": int, "float": float}


def _field_keys(cls) -> dict:
    """The fields of CorpusSpec or TrainConfig as section keys, each read
    by its annotated type, with the field's default; the class itself
    checks the values."""
    return {f.name: (_READERS[f.type], f.default) for f in fields(cls)}


# section -> key -> (reader, default), MISSING for a required key
_SECTIONS = {
    "experiment": {
        "task": (str, MISSING),
        "train_fraction": (_fraction, 0.7),
        "split_seed": (int, 0),
        "min_df": (_positive_int, MIN_DF),
        "scaling": (_parse_scaling, None),
        "rules": (str, None),
        "lexicon": (str, None),
    },
    "train_corpus": _field_keys(CorpusSpec),
    "test_corpus": _field_keys(CorpusSpec),
    "training": _field_keys(TrainConfig),
    "sweep": {"k_values": (_parse_k_values, MISSING)},
}


def _read_section(parser, name: str, errors: list[str]) -> dict | None:
    """Section `name` (empty when absent) read by its keys: every key's
    value, or its default when the section leaves it out or the value
    does not read; None when a required key is missing or does not read.
    Each such problem and each unknown key goes to `errors`."""
    items = dict(parser[name]) if name in parser else {}
    values, complete = {}, True
    for key, (reader, default) in _SECTIONS[name].items():
        values[key] = default
        if key not in items:
            if default is MISSING:
                errors.append(f"[{name}] missing required key {key!r}")
                complete = False
            continue
        raw = items.pop(key).strip()
        try:
            values[key] = reader(raw)
        except (ValueError, ConfigError) as exc:
            errors.append(f"[{name}] {key} = {raw!r}: {exc}")
            complete = complete and default is not MISSING
    errors.extend(f"[{name}] unknown key {key!r}" for key in items)
    return values if complete else None


def _build(parser, name: str, errors: list[str], cls):
    """cls(**values) from section `name`, or None when a required key is
    missing or the class rejects a value; its error goes to `errors`
    under the section's name."""
    values = _read_section(parser, name, errors)
    if values is None:
        return None
    try:
        return cls(**values)
    except (ConfigError, DataError) as exc:
        errors.append(f"[{name}] {exc}")
        return None


def parse_config_text(raw_text: str, base_dir: str = ".") -> ExperimentConfig:
    """Parse and validate an experiment config.  Every value that does not
    read, every unknown key or section and every cross-field conflict is
    reported at once, with the first check that each corpus section and
    [training] fails in CorpusSpec and TrainConfig.  Relative paths
    resolve against `base_dir`."""
    # no section name is empty, so [DEFAULT] is an ordinary (unknown) section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(raw_text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    errors = [f"unknown section [{name}]" for name in parser.sections() if name not in _SECTIONS]
    for required in ("experiment", "train_corpus"):
        if required not in parser:
            errors.append(f"missing required section [{required}]")
    if errors and ("experiment" not in parser or "train_corpus" not in parser):
        raise ConfigError("invalid experiment config:\n  " + "\n  ".join(errors))

    exp = _read_section(parser, "experiment", errors)
    task = exp["task"] if exp is not None else None
    if task is not None and task not in TASKS:
        errors.append(f"[experiment] task must be one of {tuple(TASKS)}, got {task!r}")
    train_corpus = _build(parser, "train_corpus", errors, CorpusSpec)
    test_corpus = _build(parser, "test_corpus", errors, CorpusSpec) if "test_corpus" in parser else None
    train_config = _build(parser, "training", errors, TrainConfig)
    sweep = _read_section(parser, "sweep", errors) if "sweep" in parser else None
    sweep_k = sweep["k_values"] if sweep is not None else None

    # cross-field rules
    if sweep_k is not None and test_corpus is not None:
        errors.append("a sample-size sweep runs split experiments; remove [test_corpus] or [sweep]")
    if sweep_k is not None and task is not None and task != "gender":
        errors.append("sample-size sweeps support only the gender task")
    if sweep_k is not None and train_corpus is not None and train_corpus.format != "FlatCsv":
        errors.append("sample-size sweeps need a FlatCsv train corpus to regroup")
    if sweep_k is not None and train_corpus is not None and train_corpus.grouping_k is not None:
        errors.append("[train_corpus] grouping_k does not apply to a sample-size sweep, "
                      "which groups by each of [sweep] k_values")
    flat_ok = task not in TASKS or TASKS[task].label == "gender"
    for name, spec in (("train_corpus", train_corpus), ("test_corpus", test_corpus)):
        if spec is not None and spec.format == "FlatCsv" and not flat_ok:
            errors.append(f"[{name}] the {task} task needs PanTruthDir corpora (flat files carry gender only)")

    if errors:
        raise ConfigError("invalid experiment config:\n  " + "\n  ".join(errors))
    for spec in (train_corpus, test_corpus):
        if spec is not None:
            spec.path = os.path.join(base_dir, spec.path)
    return ExperimentConfig(
        task=task, train_corpus=train_corpus, test_corpus=test_corpus,
        split_fraction=exp["train_fraction"], split_seed=exp["split_seed"], min_df=exp["min_df"],
        scaling=exp["scaling"] or default_policy(train_corpus.language),
        train_config=train_config, sweep_k=sweep_k,
        rules_path=os.path.join(base_dir, exp["rules"]) if exp["rules"] else None,
        lexicon_path=os.path.join(base_dir, exp["lexicon"]) if exp["lexicon"] else None,
        raw_text=raw_text,
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
        sidecar = plain_or_gz(sidecar_base + ".pos")
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
    caller across a batch of samples (`batch_counts`)."""
    chars = char_ngrams(" ".join(doc.text for doc in sample.documents), windows)
    tags: Counter = Counter()
    for doc in sample.documents:
        # elements() keeps the merge in C; Counter.update merges a mapping
        # key by key in Python
        tags.update(pos_ngrams(list(doc.pos_tags)).elements())
    return chars, tags


def batch_counts(samples: list[Sample]) -> list[tuple[Counter, Counter]]:
    """`sample_counts` of every sample, counted through one token ->
    windows dict of the batch's own."""
    windows: dict = {}
    return [sample_counts(s, windows) for s in samples]


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
    bundle: ModelBundle
    n_train: int
    n_test: int
    class_report: ClassReport | None = None
    trait_report: TraitReport | None = None
    predictions: list = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _first_appearance(values) -> list:
    return list(dict.fromkeys(values))


def predict_one(bundle: ModelBundle, X):
    """Predictions for every row of the matrix X, one per sample: (label,
    margin) for classifiers, a trait->value dict for regressors."""
    return predict(bundle.model, X)


def predict_samples(bundle: ModelBundle, vocab: Vocabulary, samples: list[Sample]) -> list[tuple]:
    """(sample id, label, margin) per sample for classifiers, (sample id,
    trait->value dict) for regressors."""
    X = vectorize(batch_counts(samples), vocab, bundle.policy)
    predictions = predict_one(bundle, X)
    if bundle.kind == "traits":
        return [(s.id, values) for s, values in zip(samples, predictions)]
    return [(s.id, label, margin) for s, (label, margin) in zip(samples, predictions)]


def truth_rows(kind: str, samples: list[Sample]) -> list[tuple]:
    """(sample id, label) per sample, the label a model of `kind` learns."""
    attribute = next(task.label for task in TASKS.values() if task.kind == kind)
    rows = []
    for sample in samples:
        value = getattr(sample.labels, attribute)
        if value is None:
            raise DataError(f"sample {sample.id!r} lacks a {attribute.replace('_', ' ')} label")
        rows.append((sample.id, value))
    return rows


def _fit(task: str, samples: list[Sample], policy: ScalingPolicy, min_df: int, tc: TrainConfig,
         warnings: list[str]) -> tuple[Vocabulary, ModelBundle]:
    """Counts, vocabulary, one matrix and the task's model, from training
    samples only; warns when submodels stopped at the epoch cap."""
    counts = batch_counts(samples)
    vocab = build_vocabulary(counts, min_df=min_df)
    X = vectorize(counts, vocab, policy)
    kind = TASKS[task].kind
    labels = [value for _, value in truth_rows(kind, samples)]
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
    return vocab, ModelBundle(vocab_hash=vocab.content_hash(), policy=policy, config=tc, model=model)


def run_single(task: str, train_samples: list[Sample], test_samples: list[Sample],
               policy: ScalingPolicy, min_df: int, tc: TrainConfig,
               report_classes: list | None = None) -> RunOutcome:
    """Fit on the training samples and score the test samples."""
    warnings: list[str] = []
    vocab, bundle = _fit(task, train_samples, policy, min_df, tc, warnings)
    outcome = RunOutcome(bundle=bundle, n_train=len(train_samples),
                         n_test=len(test_samples), warnings=warnings,
                         predictions=predict_samples(bundle, vocab, test_samples))
    truth = [value for _, value in truth_rows(bundle.kind, test_samples)]

    if bundle.kind == "traits":
        outcome.trait_report = trait_rmse_report(
            {name: [values[name] for _, values in outcome.predictions] for name in TRAIT_NAMES},
            {name: [values[name] for values in truth] for name in TRAIT_NAMES})
        return outcome

    pred = [label for _, label, _ in outcome.predictions]
    if report_classes is None:
        report_classes = _first_appearance(_heads(bundle.model)[1] + truth)
    outcome.class_report = report(confusion(truth, pred, report_classes))
    outcome.warnings.extend(outcome.class_report.warnings)
    return outcome


def train_full(cfg: ExperimentConfig):
    """Train on the whole training corpus, no split.  Returns the fitted
    vocabulary, the model bundle, the sample count and any warnings."""
    warnings: list[str] = []
    rules, lexicon = load_rules_and_lexicon(cfg.rules_path, cfg.lexicon_path, cfg.train_corpus.language)
    prepared = prepare_corpus(cfg.train_corpus, rules, lexicon, warnings)
    samples = as_samples(prepared)
    vocab, bundle = _fit(cfg.task, samples, cfg.scaling, cfg.min_df, cfg.train_config, warnings)
    return vocab, bundle, len(samples), warnings


# ---------------------------------------------------------------------------
# full experiment

@dataclass
class ExperimentResult:
    mode: str  # split | cross | sweep
    task: str
    provenance: dict
    warnings: list[str]
    outcome: RunOutcome | None                   # split and cross modes
    sweep: list[tuple[int, RunOutcome]] | None   # sweep mode: (k, run) per sample size
    config_text: str
    timings: list[tuple[str, float]]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Prepare the corpora once, then run one fit-and-score per sample
    size of the sweep, or a single one in split and cross mode.  Each
    run groups the training corpus's documents (by `k` in a sweep, else
    as prepared), splits them, or in cross mode scores the whole test
    corpus, and fits a vocabulary and model of its own."""
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

    policy = cfg.scaling
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

    runs: list[tuple[int | None, RunOutcome]] = []
    for k in cfg.sweep_k or [None]:
        t0 = time.perf_counter()
        samples = as_samples(train_prepared, k)
        if test_prepared is None:
            train_samples, test_samples = stratified_split(samples, cfg.split_fraction,
                                                           cfg.split_seed, key=TASKS[cfg.task].split_by)
        else:
            train_samples, test_samples = samples, as_samples(test_prepared)
        # a sweep reports every size over the corpus's classes, so its columns line up
        classes = None if k is None else _first_appearance(s.labels.gender for s in samples)
        outcome = run_single(cfg.task, train_samples, test_samples, policy, cfg.min_df,
                             cfg.train_config, report_classes=classes)
        timings.append(("features_train_evaluate" if k is None else f"sweep_k{k}",
                        time.perf_counter() - t0))
        warnings.extend(w if k is None else f"sample size {k}: {w}" for w in outcome.warnings)
        runs.append((k, outcome))

    if cfg.sweep_k is not None:
        return ExperimentResult(mode="sweep", task=cfg.task, provenance=provenance,
                                warnings=warnings, outcome=None, sweep=runs,
                                config_text=cfg.raw_text, timings=timings)
    [(_, outcome)] = runs
    provenance["vocab_sha256"] = outcome.bundle.vocab_hash
    provenance["n_train"] = str(outcome.n_train)
    provenance["n_test"] = str(outcome.n_test)
    return ExperimentResult(mode="split" if test_prepared is None else "cross", task=cfg.task,
                            provenance=provenance, warnings=warnings, outcome=outcome, sweep=None,
                            config_text=cfg.raw_text, timings=timings)


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

    if result.sweep is not None:
        lines.append("## sweep")
        header = ["k", "n_train", "n_test", "accuracy"]
        for scores in result.sweep[0][1].class_report.per_class:
            header.extend(f"{metric}:{scores.label}" for metric in "PRF")
        lines.append("\t".join(header))
        for k, out in result.sweep:
            cells = [str(k), str(out.n_train), str(out.n_test), repr(out.class_report.accuracy)]
            for scores in out.class_report.per_class:
                cells.extend(repr(v) for v in (scores.precision, scores.recall, scores.f_score))
            lines.append("\t".join(cells))
        lines.append("## sweep_provenance")
        for k, out in result.sweep:
            lines.append(f"k\t{k}\tvocab_sha256\t{out.bundle.vocab_hash}")

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
