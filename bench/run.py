"""Seeded benchmark of styloprof, end to end and per layer.

    python3 bench/run.py --workload split-gender --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The runner generates the workload's
inputs from the seed (``gen.py``) and a plan of the operations that make
up one round, starts ``worker.py`` in a fresh interpreter that imports
styloprof from ``src/`` and runs whole rounds in a closed loop for
``--seconds``, checks the outputs of the last round against the
generator's own record (``checks.py``), and prints one JSON object as its
last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the runner makes an untraced pass and then a traced pass
(layer entry points wrapped by ``spans.py``), each for half of
``--seconds``, and reports the per-layer figures per round, plus the
tracing overhead.  ``README.md`` lists the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Sizes.  A round is cut into operations of 0.05 to 0.6 seconds: the
# host's speed drifts by tens of percent over seconds, and the fastest of
# many short operations is steady where one long experiment is not.
SPLIT_CORPORA = 10          # split-gender: experiments per round
SPLIT_DOCS = 400            # documents per experiment (100 samples of 4)
GROUPING_K = 4
PAN_CORPORA = 4             # pan-age-traits: corpora per round, each run as age and traits
PAN_AUTHORS = 40            # authors per corpus
PAN_TWEETS = 8
PAN_EPOCHS = 150
PAN_MIN_DF = 1              # keeps every training gram: about 8k columns
PREDICT_TRAIN_DOCS = 4000   # predict-saved: corpus the saved model is trained on
PREDICT_BATCHES = 50        # prediction batches per round
PREDICT_DOCS = 100          # single tweets per batch
MIN_DF = 2
TRAIN_FRACTION = 0.7
WORKER_TIMEOUT_S = 150
GENDER_NAMES = {"F": "Female", "M": "Male"}

WORKLOADS = ("split-gender", "pan-age-traits", "predict-saved")

END_TO_END = {"setup_s": "s", "docs_per_s": "docs/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "accuracy": "ratio"}
PER_LAYER = {
    "corpus.load_s": "s", "corpus.docs": "count", "corpus.bytes": "bytes",
    "normalize.s": "s", "normalize.calls": "count", "normalize.rewrites": "count",
    "pos.tag_s": "s", "pos.tokens": "count", "pos.sidecar_s": "s", "pos.sidecar_tokens": "count",
    "features.char_ngrams_s": "s", "features.char_grams": "count",
    "features.pos_ngrams_s": "s", "features.pos_grams": "count",
    "features.vocab_s": "s", "features.vocab_size": "count",
    "features.vectorize_s": "s", "features.nnz": "count",
    "learner.train_s": "s", "learner.submodels": "count", "learner.epochs": "count",
    "learner.epochs_capped": "count", "learner.final_objective": "objective",
    "learner.predict_s": "s", "learner.model_load_s": "s", "learner.vocab_load_s": "s",
    "learner.model_bytes": "bytes",
    "experiment.prepare_s": "s", "experiment.split_s": "s", "experiment.samples": "count",
    "metrics.s": "s", "metrics.trait_rmse_mean": "rmse",
    "trace_overhead_s": "s", "trace_coverage": "ratio",
}
# per-layer metric -> span name whose seconds it reports
SPAN_OF = {
    "corpus.load_s": "corpus.load", "normalize.s": "normalize", "pos.tag_s": "pos.tag",
    "pos.sidecar_s": "pos.sidecar", "features.char_ngrams_s": "features.char_ngrams",
    "features.pos_ngrams_s": "features.pos_ngrams", "features.vocab_s": "features.vocab",
    "features.vectorize_s": "features.vectorize", "learner.train_s": "learner.train",
    "learner.predict_s": "learner.predict", "learner.model_load_s": "learner.model_load",
    "learner.vocab_load_s": "learner.vocab_load", "experiment.prepare_s": "experiment.prepare",
    "experiment.split_s": "experiment.split", "metrics.s": "metrics",
}
# set-up loads a model only where a layer says so; these are per run, not per round
SETUP_ONLY = ("learner.model_load_s", "learner.vocab_load_s", "learner.model_bytes")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# workload inputs and what the program should make of them

@dataclass
class Expected:
    """A sample as the generator knows it: normalized texts, POS streams
    and labels (gender name, age band, traits)."""

    texts: list
    streams: list
    gender: str
    age_band: str | None = None
    traits: dict | None = None
    counts: tuple | None = None

    def grams(self):
        if self.counts is None:
            self.counts = checks.sample_counts(self.texts, self.streams)
        return self.counts


@dataclass
class Op:
    """One operation of a round: an experiment or a prediction batch."""

    name: str
    kind: str                 # gender | age | traits | predict
    docs: int                 # documents it takes from raw text to a scored result
    samples: dict             # sample id -> Expected, for its corpus
    pos_source: str
    config: str | None = None
    argv: list | None = None
    min_df: int = MIN_DF

    def plan(self) -> dict:
        return {"name": self.name, "kind": self.kind, "config": self.config, "argv": self.argv}


@dataclass
class Inputs:
    ops: list
    headline: str              # kind whose accuracy is the workload's
    raw_lines: list            # every raw document of the run
    norm_lines: list           # the generator's normalized text, same order
    planted: dict              # rule -> rewrites planted in documents
    sidecar_planted: dict = field(default_factory=dict)  # rule -> rewrites planted in sidecar tokens
    sidecar_tokens: int = 0
    passes: int = 1            # times a round takes each document through the pipeline


def _write_config(path: Path, task: str, corpus: list[str], seed: int, training: str = "",
                  min_df: int = MIN_DF) -> None:
    path.write_text("\n".join([
        "[experiment]", f"task = {task}", f"train_fraction = {TRAIN_FRACTION}",
        f"split_seed = {seed}", f"min_df = {min_df}", "lexicon = lexicon.tsv",
        "[train_corpus]", *corpus, training]) + "\n", encoding="utf-8")


def _flat_samples(corpus: gen.FlatCorpus, k: int) -> dict:
    """Sample id -> Expected, pooling k consecutive same-gender rows as
    the FlatCsv layout documents."""
    by_gender: dict = {}
    for gender, tweet in zip(corpus.genders, corpus.tweets):
        by_gender.setdefault(gender, []).append(tweet)
    samples = {}
    for gender, tweets in by_gender.items():
        for i in range(0, len(tweets), k):
            chunk = tweets[i:i + k]
            samples[f"{gender}#{i // k}"] = Expected(
                texts=[t.norm for t in chunk], streams=[[p[1] for p in t.pos] for t in chunk],
                gender=GENDER_NAMES[gender])
    return samples


def _planted(tweets) -> dict:
    return {"urls": sum(t.urls for t in tweets), "mentions": sum(t.mentions for t in tweets)}


def split_gender(seed: int, work: Path, lang: gen.Language) -> Inputs:
    rng = random.Random(f"split-gender/{seed}")
    pools = gen.gender_pools(rng, lang)
    ops, tweets = [], []
    for c in range(SPLIT_CORPORA):
        corpus = gen.gender_corpus(rng, lang, SPLIT_DOCS, pools)
        gen.write_flat_csv(corpus, work / f"tweets{c}.csv")
        _write_config(work / f"split{c}.ini", "gender",
                      ["format = FlatCsv", f"path = tweets{c}.csv", "language = es",
                       f"grouping_k = {GROUPING_K}"], seed)
        ops.append(Op(f"split{c}", "gender", SPLIT_DOCS, _flat_samples(corpus, GROUPING_K),
                      "fallback", config=f"split{c}.ini"))
        tweets += corpus.tweets
    return Inputs(ops=ops, headline="gender", raw_lines=[t.raw for t in tweets],
                  norm_lines=[t.norm for t in tweets], planted=_planted(tweets))


def pan_age_traits(seed: int, work: Path, lang: gen.Language) -> Inputs:
    rng = random.Random(f"pan-age-traits/{seed}")
    training = f"[training]\nepochs = {PAN_EPOCHS}"
    ops, tweets, sidecar_tweets = [], [], []
    for c in range(PAN_CORPORA):
        authors = gen.pan_corpus(rng, lang, PAN_AUTHORS, PAN_TWEETS, first_id=c * PAN_AUTHORS)
        gen.write_pan_dir(rng, authors, work / f"pan{c}")
        corpus = ["format = PanTruthDir", f"path = pan{c}", "language = es"]
        samples = {}
        for a in authors:
            column = 2 if a.sidecar else 1
            samples[a.id] = Expected(texts=[t.norm for t in a.tweets],
                                     streams=[[p[column] for p in t.pos] for t in a.tweets],
                                     gender=GENDER_NAMES[a.gender], age_band=a.age_band, traits=a.traits)
        pos_source = f"mixed({sum(a.sidecar for a in authors)}/{len(authors)} sidecars)"
        for task in ("age", "traits"):
            _write_config(work / f"{task}{c}.ini", task, corpus, seed, training, PAN_MIN_DF)
            ops.append(Op(f"{task}{c}", task, PAN_AUTHORS * PAN_TWEETS, samples, pos_source,
                          config=f"{task}{c}.ini", min_df=PAN_MIN_DF))
        tweets += [t for a in authors for t in a.tweets]
        sidecar_tweets += [t for a in authors if a.sidecar for t in a.tweets]
    return Inputs(ops=ops, headline="age", raw_lines=[t.raw for t in tweets],
                  norm_lines=[t.norm for t in tweets], planted=_planted(tweets),
                  sidecar_planted=_planted(sidecar_tweets),
                  sidecar_tokens=sum(len(t.pos) for t in sidecar_tweets), passes=2)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "styloprof").glob("*.py")) + [BENCH / "gen.py", BENCH / "run.py"]:
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def trained_model(seed: int, lang: gen.Language, pools: dict) -> Path:
    """Vocabulary and gender model trained by `styloprof train` on a
    corpus of its own; cached per seed and per source digest, so the
    model is always one this commit trained."""
    cache = WORK / "models" / f"{seed}-{_source_digest()}"
    if (cache / "gender.model").is_file():
        return cache
    tmp = fresh_dir(cache.with_name(cache.name + ".tmp"))
    rng = random.Random(f"predict-saved/train/{seed}")
    gen.write_flat_csv(gen.gender_corpus(rng, lang, PREDICT_TRAIN_DOCS, pools), tmp / "train.csv")
    gen.write_lexicon(lang, tmp / "lexicon.tsv")
    _write_config(tmp / "train.ini", "gender",
                  ["format = FlatCsv", "path = train.csv", "language = es",
                   f"grouping_k = {GROUPING_K}"], seed)
    subprocess.run([sys.executable, "-m", "styloprof.cli", "train", "--config", str(tmp / "train.ini"),
                    "--model-out", str(tmp / "gender.model"), "--vocab-out", str(tmp / "gender.vocab")],
                   env=_program_env(), check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=WORKER_TIMEOUT_S)
    shutil.rmtree(cache, ignore_errors=True)
    tmp.rename(cache)
    return cache


def predict_saved(seed: int, work: Path, lang: gen.Language) -> Inputs:
    pools = gen.gender_pools(random.Random(f"predict-saved/pools/{seed}"), lang)
    model_dir = trained_model(seed, lang, pools)
    rng = random.Random(f"predict-saved/fresh/{seed}")
    ops, tweets = [], []
    for b in range(PREDICT_BATCHES):
        corpus = gen.gender_corpus(rng, lang, PREDICT_DOCS, pools)
        path = work / f"batch{b}.csv"
        gen.write_flat_csv(corpus, path)
        argv = ["predict", "--model", str(model_dir / "gender.model"),
                "--vocab", str(model_dir / "gender.vocab"), "--corpus-format", "FlatCsv",
                "--corpus-path", str(path), "--language", "es", "--grouping-k", "1",
                "--lexicon", str(work / "lexicon.tsv"), "--output", str(work / f"batch{b}.pred.tsv")]
        ops.append(Op(f"batch{b}", "predict", PREDICT_DOCS, _flat_samples(corpus, 1), "fallback",
                      argv=argv))
        tweets += corpus.tweets
    return Inputs(ops=ops, headline="predict", raw_lines=[t.raw for t in tweets],
                  norm_lines=[t.norm for t in tweets], planted=_planted(tweets))


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    lang = gen.build_language()
    gen.write_lexicon(lang, work / "lexicon.tsv")
    inputs = {"split-gender": split_gender, "pan-age-traits": pan_age_traits,
              "predict-saved": predict_saved}[workload](seed, work, lang)
    (work / "raw_lines.txt").write_text("".join(line + "\n" for line in inputs.raw_lines), encoding="utf-8")
    (work / "plan.json").write_text(json.dumps([op.plan() for op in inputs.ops]), encoding="utf-8")
    return inputs


# ---------------------------------------------------------------------------
# the measured process

def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(work: Path, out: Path, seconds: float, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--work", str(work), "--out", str(out),
           "--seconds", repr(seconds), "--trace", str(int(traced))]
    with open(out / "worker.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=log, stderr=subprocess.STDOUT,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {out / 'worker.log'}")
    return json.loads((out / "worker.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# checks of one pass's outputs

def _check_experiment(op: Op, out: Path) -> tuple[list, int, int]:
    """Checks of one `run_experiment` output.  Returns the failures and,
    for classifiers, the correct and total test predictions."""
    result = checks.read_result((out / f"{op.name}.result").read_text(encoding="utf-8"))
    model = checks.read_model((out / f"{op.name}.model").read_text(encoding="utf-8"))
    dump = json.loads((out / f"{op.name}.json").read_text(encoding="utf-8"))
    preds = dump["predictions"]
    test_ids = [p[0] for p in preds]
    test_set = set(test_ids)
    train_ids = [sid for sid in op.samples if sid not in test_set]
    failures = []
    if result.get("train_pos_source") != op.pos_source:
        failures.append(f"{op.name}: pos_source {result.get('train_pos_source')!r}, expected {op.pos_source!r}")
    if int(result["n_train"]) != len(train_ids) or int(result["n_test"]) != len(test_ids):
        failures.append(f"{op.name}: train/test sizes differ from the predictions written")
    keys = checks.vocabulary([op.samples[s].grams() for s in train_ids], op.min_df)
    digest = checks.vocab_hash(keys)
    if digest != result["vocab_sha256"] or digest != model["vocab_hash"]:
        failures.append(f"{op.name}: vocabulary rebuilt from the generator's text has hash {digest[:12]}, "
                        f"the program reports {result['vocab_sha256'][:12]}")
        return failures, 0, len(test_ids)
    if model["policy"] != ("linear", "log2"):
        failures.append(f"{op.name}: scaling {model['policy']}, expected linear,log2 for es")
    pos_log2 = model["policy"][1] == "log2"
    x_test = checks.matrix([op.samples[s].grams() for s in test_ids], keys, pos_log2)
    x_train = checks.matrix([op.samples[s].grams() for s in train_ids], keys, pos_log2)
    train = [op.samples[s] for s in train_ids]
    test = [op.samples[s] for s in test_ids]
    c = model["c_param"]

    if op.kind == "traits":
        names = model["traits"]
        regressors = dict(zip(names, model["vectors"]))
        failures += checks.check_traits_values(x_test, regressors, [p[1] for p in preds])
        for trait, (w, b) in regressors.items():
            t = [s.traits[trait] for s in train]
            failures += checks.check_objective(
                f"{op.name}/{trait}", checks.epsilon_objective(x_train, t, w, b, c, model["epsilon"]),
                dump["objectives"][trait])
        failures += checks.check_trait_rmse([p[1] for p in preds], [s.traits for s in test],
                                            [s.traits for s in train], names, float(result["trait_mean"]))
        return failures, 0, 0

    if op.kind == "gender":
        (w, b), = model["vectors"]
        positive, negative = model["labels"]
        failures += checks.check_margins(x_test, w, b, [(p[1], p[2]) for p in preds], positive, negative)
        y = [1 if s.gender == positive else -1 for s in train]
        failures += checks.check_objective(op.name, checks.hinge_objective(x_train, y, w, b, c),
                                           dump["objectives"])
        truth = [s.gender for s in test]
    else:
        classes = model["labels"]
        failures += checks.check_ovr(x_test, model["vectors"], classes, [(p[1], p[2]) for p in preds])
        for cls, (w, b), history in zip(classes, model["vectors"], dump["objectives"]):
            y = [1 if s.age_band == cls else -1 for s in train]
            failures += checks.check_objective(f"{op.name}/{cls}",
                                               checks.hinge_objective(x_train, y, w, b, c), history)
        truth = [s.age_band for s in test]
    pred = [p[1] for p in preds]
    failures += [f"{op.name}: {f}" for f in checks.check_accuracy(pred, truth, float(result["accuracy"]))]
    return failures, sum(p == t for p, t in zip(pred, truth)), len(truth)


def _check_predict(op: Op, out: Path) -> tuple[list, int, int]:
    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    model = checks.read_model(Path(args["--model"]).read_text(encoding="utf-8"))
    keys, digest = checks.read_vocab_file(Path(args["--vocab"]).read_text(encoding="utf-8"))
    failures = []
    if digest != model["vocab_hash"]:
        failures.append("the saved model's vocabulary hash does not match the saved vocabulary")
    preds = [line.split("\t") for line in (out / f"{op.name}.pred.tsv").read_text(encoding="utf-8").splitlines()]
    truth = [line.split("\t") for line in (out / f"{op.name}.truth.tsv").read_text(encoding="utf-8").splitlines()]
    ids = [p[0] for p in preds]
    if sorted(ids) != sorted(op.samples) or [t[0] for t in truth] != ids:
        return failures + [f"{op.name}: predicted sample ids differ from the corpus"], 0, len(op.samples)
    gold = [op.samples[s].gender for s in ids]
    if [t[1] for t in truth] != gold:
        failures.append(f"{op.name}: truth file labels differ from the generator's")
    (w, b), = model["vectors"]
    x = checks.matrix([op.samples[s].grams() for s in ids], keys, model["policy"][1] == "log2")
    positive, negative = model["labels"]
    failures += checks.check_margins(x, w, b, [(p[1], float(p[2])) for p in preds], positive, negative)
    report = checks.read_result((out / f"{op.name}.report.txt").read_text(encoding="utf-8"))
    pred = [p[1] for p in preds]
    failures += [f"{op.name}: {f}" for f in checks.check_accuracy(pred, gold, float(report["accuracy_exact"]))]
    pos_source = (out / f"{op.name}.pos_source").read_text(encoding="utf-8")
    if pos_source != op.pos_source:
        failures.append(f"{op.name}: pos_source {pos_source!r}, expected {op.pos_source!r}")
    return failures, sum(p == t for p, t in zip(pred, gold)), len(gold)


def check_pass(inputs: Inputs, out: Path) -> tuple[list, float]:
    """All independent checks of one worker pass.  Returns the failures
    and the workload's accuracy, pooled over its classifier operations."""
    counts = json.loads((out / "counts.json").read_text(encoding="utf-8"))
    first = inputs.ops[0]
    failures = checks.check_recount({sid: (s.texts, s.streams) for sid, s in first.samples.items()},
                                    counts["samples"])
    if counts["pos_source"] != first.pos_source:
        failures.append(f"pos_source {counts['pos_source']!r}, expected {first.pos_source!r}")
    failures += checks.check_rewrites(
        inputs.norm_lines, inputs.planted,
        (out / "normalized.txt").read_text(encoding="utf-8").splitlines(),
        (out / "rewrites.tsv").read_text(encoding="utf-8").splitlines())
    correct = total = 0
    for op in inputs.ops:
        more, c, n = (_check_predict if op.kind == "predict" else _check_experiment)(op, out)
        failures += more
        if op.kind == inputs.headline:
            correct, total = correct + c, total + n
    return failures, correct / total


def _check_traced_counts(inputs: Inputs, counts: dict, rounds: int) -> list:
    """Trace counters against the generator.  Rewrites and normalize
    calls include the sidecar path, which normalizes each sidecar token."""
    docs = len(inputs.raw_lines)
    want = {
        "normalize.calls": docs + inputs.sidecar_tokens,
        "corpus.docs": docs,
        "pos.sidecar_tokens": inputs.sidecar_tokens,
    }
    for rule, planted in inputs.planted.items():
        want[f"normalize.rewrites.{rule}"] = planted + inputs.sidecar_planted.get(rule, 0)
    failures = []
    for key, value in want.items():
        per_round = value * inputs.passes
        if counts.get(key, 0) != per_round * rounds:
            failures.append(f"trace count {key} = {counts.get(key, 0) / rounds:g} per round, "
                            f"expected {per_round}")
    return failures


# ---------------------------------------------------------------------------
# metrics

def round_estimate(inputs: Inputs, per_op: list) -> float:
    """A round's seconds, robust to the host's drift: for each kind of
    operation, the fastest of all its runs, times how often it occurs in
    a round.  Other tenants of the host only ever add time, so the
    fastest of many short repeats is where the program's own cost shows."""
    by_kind: dict = {}
    for op, values in zip(inputs.ops, per_op):
        by_kind.setdefault(op.kind, []).extend(values)
    return sum(min(by_kind[op.kind]) for op in inputs.ops)


def end_to_end(rep: dict, inputs: Inputs, accuracy: float) -> dict:
    return {
        "setup_s": rep["setup_s"],
        "docs_per_s": sum(op.docs for op in inputs.ops) / round_estimate(inputs, rep["wall"]),
        "cpu_s": round_estimate(inputs, rep["cpu"]),
        "peak_rss_mb": rep["peak_rss_mb"],
        "accuracy": accuracy,
    }


def per_layer(inputs: Inputs, plain: dict, traced: dict) -> dict:
    """Layer figures per round; set-up figures per run; the vocabulary
    size and trait RMSE as means over the experiments that produced them."""
    rounds = len(traced["wall"][0])
    seconds = traced["layers"]["seconds"]
    counts = traced["layers"]["counts"]
    values = {}
    for name in PER_LAYER:
        per = 1 if name in SETUP_ONLY else rounds
        if name in SPAN_OF:
            values[name] = seconds.get(SPAN_OF[name], 0.0) / per
        else:
            values[name] = counts.get(name, 0) / per
    for name, calls in (("features.vocab_size", "features.vocab_builds"),
                        ("metrics.trait_rmse_mean", "metrics.trait_reports")):
        values[name] = counts.get(name, 0) / max(1, counts.get(calls, 0))
    values["trace_overhead_s"] = round_estimate(inputs, traced["wall"]) - round_estimate(inputs, plain["wall"])
    values["trace_coverage"] = traced["layers"]["covered_s"] / sum(map(sum, traced["wall"]))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "styloprof" / "__init__.py").is_file():
        print(f"no styloprof sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = fresh_dir(WORK / args.workload)
    inputs = make_inputs(args.workload, args.seed, work)
    passes = {}
    failures = []
    for traced in ([False, True] if args.trace else [False]):
        out = fresh_dir(work / ("traced" if traced else "plain"))
        rep = run_worker(work, out, args.seconds / (1 + args.trace), traced)
        if not (out / "counts.json").is_file():
            failures.append(f"{'traced' if traced else 'untraced'} pass: some operation never succeeded")
        else:
            more, rep["accuracy"] = check_pass(inputs, out)
            failures += more
        if traced:
            failures += _check_traced_counts(inputs, rep["layers"]["counts"], len(rep["wall"][0]))
        passes[traced] = rep

    plain = passes[False]
    if args.trace:
        metrics, units = per_layer(inputs, plain, passes[True]), PER_LAYER
    else:
        metrics, units = end_to_end(plain, inputs, plain.get("accuracy", 0.0)), END_TO_END
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(len(ops) * len(ops[0]) for ops in (rep["wall"] for rep in passes.values())),
        "failed": sum(rep["failed"] for rep in passes.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
