"""Span tracer for the benchmark's traced runs.

`install` replaces, on the styloprof modules, the public functions that
`experiment` and `cli` call with wrappers that record one span per call
(name, start, end, parent span) and the counts each layer reports.  The
program's own files are not touched: the wrappers live here and are put
in place by the worker process before it starts, so a traced run and an
untraced run execute the same program code.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

# spans that only contain other layers' spans; `covered_seconds` counts
# their children instead
CONTAINERS = ("experiment.prepare",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(tracer, args, kwargs, result)`
        adds the layer's counts after each call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, static=False):
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, count)
        self._patched.append((owner, attr, owner.__dict__[attr] if static else original))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def layer_seconds(self) -> Counter:
        """Seconds per span name, counting only spans whose parent has
        another name (a nested call of the same layer is not counted twice)."""
        seconds: Counter = Counter()
        spans = self.spans
        for name, start, end, parent in spans:
            if parent < 0 or spans[parent][0] != name:
                seconds[name] += end - start
        return seconds

    def covered_seconds(self) -> float:
        """Wall time covered by layer spans: outermost non-container spans."""
        spans = self.spans
        total = 0.0
        for name, start, end, parent in spans:
            if name in CONTAINERS:
                continue
            if parent < 0 or spans[parent][0] in CONTAINERS:
                total += end - start
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


# ---------------------------------------------------------------------------
# counts per layer

def _count_load(tracer, args, kwargs, result):
    spec = args[0]
    c = tracer.counts
    if spec.format == "FlatCsv":
        c["corpus.docs"] += len(result)
        c["corpus.bytes"] += os.path.getsize(spec.path)
        return
    c["corpus.docs"] += sum(len(s.documents) for s in result)
    c["corpus.bytes"] += os.path.getsize(os.path.join(spec.path, "truth.txt"))
    for sample in result:
        c["corpus.bytes"] += os.path.getsize(os.path.join(spec.path, sample.id + ".txt"))


def _count_normalize(tracer, args, kwargs, result):
    tracer.counts["normalize.calls"] += 1
    tracer.counts["normalize.rewrites"] += len(result.rewrites)
    for rw in result.rewrites:
        tracer.counts[f"normalize.rewrites.{rw.rule}"] += 1


def _count_fallback(tracer, args, kwargs, result):
    tracer.counts["pos.tokens"] += len(result)


def _count_sidecar(tracer, args, kwargs, result):
    tracer.counts["pos.sidecar_tokens"] += sum(len(block) for block in result)


def _count_char(tracer, args, kwargs, result):
    tracer.counts["features.char_grams"] += sum(result.values())


def _count_pos(tracer, args, kwargs, result):
    tracer.counts["features.pos_grams"] += sum(result.values())


def _count_vocab(tracer, args, kwargs, result):
    tracer.counts["features.vocab_builds"] += 1
    tracer.counts["features.vocab_size"] += len(result)


def _count_vectorize(tracer, args, kwargs, result):
    tracer.counts["features.nnz"] += len(result.entries)


def _objective_histories(model):
    if hasattr(model, "models"):  # one-vs-rest
        return [m.epoch_objectives for m in model.models]
    if isinstance(model.epoch_objectives, dict):  # traits
        return list(model.epoch_objectives.values())
    return [model.epoch_objectives]


def _count_train(tracer, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    c = tracer.counts
    for history in _objective_histories(result):
        c["learner.submodels"] += 1
        c["learner.epochs"] += len(history)
        c["learner.epochs_capped"] += len(history) >= cfg.epochs
        c["learner.final_objective"] += history[-1]


def _count_model_load(tracer, args, kwargs, result):
    tracer.counts["learner.model_bytes"] += os.path.getsize(args[0])


def _count_samples(tracer, args, kwargs, result):
    tracer.counts["experiment.samples"] += len(result)


def _count_traits(tracer, args, kwargs, result):
    tracer.counts["metrics.trait_reports"] += 1
    tracer.counts["metrics.trait_rmse_mean"] += result.mean


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points that `experiment` and `cli` look up at
    call time.  Names imported into both modules are patched in both."""
    from styloprof import cli, experiment, features, learner, pos

    for mod in (experiment, cli):
        tracer.patch(mod, "prepare_corpus", "experiment.prepare")
        tracer.patch(mod, "confusion", "metrics")
        tracer.patch(mod, "report", "metrics")
        tracer.patch(mod, "trait_rmse_report", "metrics", _count_traits)
        tracer.patch(mod, "as_samples", "experiment.split", _count_samples)
    tracer.patch(experiment, "load_flat_csv", "corpus.load", _count_load)
    tracer.patch(experiment, "load_pan_truth_dir", "corpus.load", _count_load)
    tracer.patch(experiment, "normalize", "normalize", _count_normalize)
    tracer.patch(experiment, "simple_tokenize", "pos.tag")
    tracer.patch(experiment, "fallback_tag", "pos.tag", _count_fallback)
    tracer.patch(experiment, "relabel", "pos.tag")
    tracer.patch(pos, "ingest_tagged_file", "pos.sidecar", _count_sidecar)
    tracer.patch(experiment, "char_ngrams", "features.char_ngrams", _count_char)
    tracer.patch(experiment, "pos_ngrams", "features.pos_ngrams", _count_pos)
    tracer.patch(experiment, "build_vocabulary", "features.vocab", _count_vocab)
    tracer.patch(experiment, "vectorize", "features.vectorize", _count_vectorize)
    tracer.patch(experiment, "stratified_split", "experiment.split")
    for fn in ("train_binary", "train_ovr", "train_traits"):
        tracer.patch(experiment, fn, "learner.train", _count_train)
    tracer.patch(experiment, "predict_one", "learner.predict")
    tracer.patch(learner, "load_model", "learner.model_load", _count_model_load)
    tracer.patch(features.Vocabulary, "load", "learner.vocab_load", static=True)
