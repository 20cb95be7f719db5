"""The measured process of one benchmark run.

`run.py` generates the inputs and a plan (``plan.json``: the operations
of one round), then starts this script in a fresh interpreter.  It
imports styloprof from the checkout's ``src``, gets ready for every
operation of the plan (the set-up that ``setup_s`` times, from the moment
the parent spawned it), then runs whole rounds of the plan in a closed
loop, one operation at a time, until ``--seconds`` have passed.  Each
operation is timed on its own, in wall and CPU seconds.

After the timed part it writes the outputs of the last round, plus the
outputs of a few extra program calls the checks need, into ``--out``;
``run.py`` checks them without importing styloprof.  With ``--trace 1``
the layer entry points are wrapped by `spans.Tracer` before set-up, and
the layer figures summed over all rounds are written too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SUBSAMPLE = 60  # samples whose n-gram counts are dumped for the recount check


def _import_program():
    sys.path.insert(0, str(SRC))
    import styloprof

    if Path(styloprof.__file__).resolve().parent != SRC / "styloprof":
        raise SystemExit(f"styloprof was imported from {styloprof.__file__}, not from {SRC}")


class Experiment:
    """One `run_experiment` call on a config file."""

    def __init__(self, name: str, config: Path):
        from styloprof.experiment import parse_config_file

        self.name = name
        self.cfg = parse_config_file(config)
        self.corpus = self.cfg.train_corpus
        self.lexicon_path = self.cfg.lexicon_path
        self.result = None

    def run(self) -> str:
        from styloprof import experiment

        self.result = experiment.run_experiment(self.cfg)
        return experiment.strip_timings(experiment.render_result(self.result))

    def dump(self, out: Path) -> None:
        from styloprof import experiment
        from styloprof.learner import save_model

        (out / f"{self.name}.result").write_text(experiment.render_result(self.result), encoding="utf-8")
        save_model(self.result.outcome.bundle, out / f"{self.name}.model")
        model = self.result.outcome.bundle.model
        if hasattr(model, "models"):
            histories = [m.epoch_objectives for m in model.models]
        else:
            histories = model.epoch_objectives  # a list, or a dict per trait
        with open(out / f"{self.name}.json", "w", encoding="utf-8") as fh:
            json.dump({"objectives": histories, "predictions": self.result.outcome.predictions}, fh)


class PredictBatch:
    """One prediction batch, as `styloprof predict` followed by
    `styloprof evaluate`: label the batch's corpus with the saved model,
    write the prediction and truth files, and score them.  The saved
    vocabulary and model are loaded once, in set-up, and shared."""

    def __init__(self, name: str, argv: list[str], work: Path, loaded: dict):
        from styloprof import cli
        from styloprof.corpus import CorpusSpec
        from styloprof.features import Vocabulary
        from styloprof.learner import load_model

        args = cli.build_parser().parse_args(argv)
        self.name = name
        self.corpus = CorpusSpec(format=args.corpus_format, path=args.corpus_path,
                                 language=args.language, grouping_k=args.grouping_k)
        self.lexicon_path = args.lexicon
        key = (args.vocab, args.model)
        if key not in loaded:
            vocab = Vocabulary.load(args.vocab)
            loaded[key] = vocab, load_model(args.model, expected_vocab_hash=vocab.content_hash())
        self.vocab, self.bundle = loaded[key]
        self.files = [work / f"{name}.{suffix}" for suffix in ("pred.tsv", "truth.tsv", "report.txt")]
        self.pos_source = None

    def run(self) -> str:
        from styloprof import cli, experiment
        from styloprof.normalize import default_rules

        pred, truth, report = self.files
        prepared = experiment.prepare_corpus(self.corpus, default_rules(self.corpus.language),
                                             self.lexicon, [])
        samples = experiment.as_samples(prepared)
        rows = experiment.predict_samples(self.bundle, self.vocab, samples)
        pred.write_text("".join(f"{sid}\t{label}\t{margin!r}\n" for sid, label, margin in rows),
                        encoding="utf-8")
        truth.write_text("".join(f"{sid}\t{label}\n" for sid, label in
                                 experiment.truth_rows(self.bundle.kind, samples)), encoding="utf-8")
        code = cli.main(["evaluate", "--predictions", str(pred), "--truth", str(truth),
                         "--task", "gender", "--output", str(report)])
        if code != 0:
            raise RuntimeError(f"styloprof evaluate exited with {code}")
        self.pos_source = prepared.pos_source
        return pred.read_text(encoding="utf-8")

    def dump(self, out: Path) -> None:
        for path in self.files:
            os.replace(path, out / path.name)
        (out / f"{self.name}.pos_source").write_text(self.pos_source, encoding="utf-8")


def _dump_counts(op, out: Path, raw_lines: Path) -> None:
    """Outputs the independent checks read besides the operations' own:
    pooled n-gram counts of the first samples of one corpus, and
    `styloprof normalize` over every raw document of the run."""
    from styloprof import cli, experiment
    from styloprof.normalize import default_rules

    prepared = experiment.prepare_corpus(op.corpus, default_rules(op.corpus.language), op.lexicon, [])
    counts = {}
    for sample in experiment.as_samples(prepared)[:SUBSAMPLE]:
        chars, tags = experiment.extract_counts(sample)
        counts[sample.id] = {
            "char": sorted(["".join(k.gram), v] for k, v in chars.items()),
            "pos": sorted([list(k.gram), v] for k, v in tags.items()),
        }
    with open(out / "counts.json", "w", encoding="utf-8") as fh:
        json.dump({"op": op.name, "pos_source": prepared.pos_source, "samples": counts}, fh)
    code = cli.main(["normalize", str(raw_lines), str(out / "normalized.txt"),
                     "--rewrites", str(out / "rewrites.tsv")])
    if code != 0:
        raise RuntimeError(f"styloprof normalize exited with {code}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", required=True, type=float,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args()

    _import_program()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from styloprof.pos import load_lexicon

    plan = json.loads((args.work / "plan.json").read_text(encoding="utf-8"))
    loaded: dict = {}
    ops = [PredictBatch(p["name"], p["argv"], args.work, loaded) if p["kind"] == "predict"
           else Experiment(p["name"], args.work / p["config"]) for p in plan]
    lexicons: dict = {}
    for op in ops:
        if op.lexicon_path not in lexicons:
            lexicons[op.lexicon_path] = load_lexicon(op.lexicon_path)
        op.lexicon = lexicons[op.lexicon_path]
    setup_s = time.monotonic() - args.spawned

    wall = [[] for _ in ops]
    cpu = [[] for _ in ops]
    first = [None] * len(ops)
    failed = 0
    t_start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a failing operation is counted, and the loop goes on
                failed += 1
                print(f"{op.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            else:
                if first[i] is None:
                    first[i] = output
                elif output != first[i]:
                    failed += 1
                    print(f"{op.name}: output differs from the first round's", file=sys.stderr)
            t1, c1 = time.perf_counter(), time.process_time()
            wall[i].append(t1 - t0)
            cpu[i].append(c1 - c0)  # user + system, all threads
        if time.perf_counter() - t_start >= args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": failed,
    }
    if tracer is not None:
        report["layers"] = {"seconds": dict(tracer.layer_seconds()), "counts": dict(tracer.counts),
                            "covered_s": tracer.covered_seconds()}
        tracer.write(args.out / "spans.tsv")
        tracer.uninstall()
    if all(output is not None for output in first):
        for op in ops:
            op.dump(args.out)
        _dump_counts(ops[0], args.out, args.work / "raw_lines.txt")
    with open(args.out / "worker.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
