"""Command-line interface.

Subcommands: normalize, featurize, train, predict, evaluate, run.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
failure.  All inputs and outputs are UTF-8; paths ending in .gz are
read and written gzip-compressed.  Line-oriented inputs and outputs go
through `corpus.read_lines` / `corpus.write_lines`, so a line ends at a
line feed only: `normalize` writes one output line per input line and
numbers its rewrites by input line.
"""

from __future__ import annotations

import argparse
import math
import sys

from .corpus import (FORMATS, LANGUAGES, TRAIT_MAX, TRAIT_MIN, TRAIT_NAMES, CorpusSpec, read_lines,
                     split_lines, write_lines)
from .errors import ConfigError, DataError, StyloprofError
from .experiment import (as_samples, load_rules_and_lexicon, parse_config_file,
                         predict_samples, prepare_corpus, render_result,
                         run_experiment, sample_counts, train_full, truth_rows)
from .features import Vocabulary, build_vocabulary
from .learner import load_model, save_model
from .metrics import confusion, render_report, render_trait_report, report, trait_rmse_report
from .normalize import normalize


def _corpus_spec(args) -> CorpusSpec:
    return CorpusSpec(format=args.corpus_format, path=args.corpus_path,
                      language=args.language, grouping_k=args.grouping_k,
                      delimiter=args.delimiter)


def _prepared_samples(args):
    warnings: list[str] = []
    rules, lexicon = load_rules_and_lexicon(args.rules, args.lexicon, args.language)
    prepared = prepare_corpus(_corpus_spec(args), rules, lexicon, warnings)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return as_samples(prepared)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_normalize(args) -> int:
    rules, _ = load_rules_and_lexicon(args.rules, None, args.language)
    out_lines, log_lines = [], []
    for lineno, line in enumerate(read_lines(args.input), start=1):
        result = normalize(line, rules)
        out_lines.append(result.text)
        for rw in result.rewrites:
            log_lines.append(f"{lineno}\t{rw.rule}"
                             f"\t{rw.original_span[0]}\t{rw.original_span[1]}"
                             f"\t{rw.replacement_span[0]}\t{rw.replacement_span[1]}")
    write_lines(args.output, out_lines)
    log_path = args.rewrites or (args.output + ".rewrites")
    write_lines(log_path, log_lines)
    print(f"normalized {len(out_lines)} line(s) -> {args.output} "
          f"({len(log_lines)} rewrite(s) logged in {log_path})")
    return 0


def _cmd_featurize(args) -> int:
    samples = _prepared_samples(args)
    windows: dict = {}
    counts = [sample_counts(s, windows) for s in samples]
    vocab = build_vocabulary(counts, min_df=args.min_df)
    vocab.save(args.vocab_out)
    print(f"vocabulary: {len(vocab)} keys ({len(vocab.char_grams)} char, {len(vocab.pos_grams)} pos) "
          f"from {len(samples)} sample(s) -> {args.vocab_out}")
    return 0


def _cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    vocab, bundle, n_samples, warnings = train_full(cfg)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    vocab.save(args.vocab_out)
    save_model(bundle, args.model_out)
    print(f"trained {bundle.kind} model ({cfg.task}) on {n_samples} sample(s); "
          f"vocabulary {len(vocab)} keys -> {args.model_out}, {args.vocab_out}")
    return 0


def _format_row(row) -> str:
    """A prediction or truth row: the sample id, then trait=value fields,
    or the label followed by the margin when there is one."""
    if isinstance(row[1], dict):
        return "\t".join([row[0]] + [f"{name}={row[1][name]!r}" for name in TRAIT_NAMES])
    return "\t".join([row[0], f"{row[1]}"] + [repr(margin) for margin in row[2:]])


def _cmd_predict(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    bundle = load_model(args.model, expected_vocab_hash=vocab.content_hash())
    samples = _prepared_samples(args)
    rows = predict_samples(bundle, vocab, samples)
    write_lines(args.output, [_format_row(r) for r in rows])
    if args.truth_out:
        write_lines(args.truth_out, [_format_row(r) for r in truth_rows(bundle.kind, samples)])
    print(f"predicted {len(rows)} sample(s) -> {args.output}")
    return 0


def _read_label_rows(path) -> list[tuple[str, str]]:
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: expected `sample_id<TAB>label[<TAB>margin]`")
        if len(parts) == 3:
            try:
                margin = float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparsable margin {parts[2]!r}") from None
            if not math.isfinite(margin):
                raise DataError(f"{path}:{lineno}: non-finite margin {parts[2]!r}")
        rows.append((parts[0], parts[1]))
    return rows


def _read_trait_rows(path) -> list[tuple[str, dict[str, float]]]:
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 1 + len(TRAIT_NAMES):
            raise DataError(f"{path}:{lineno}: expected a sample id and {len(TRAIT_NAMES)} trait=value fields")
        values = {}
        for token in parts[1:]:
            if "=" not in token:
                raise DataError(f"{path}:{lineno}: malformed trait field {token!r}")
            name, raw_value = token.split("=", 1)
            if name not in TRAIT_NAMES:
                raise DataError(f"{path}:{lineno}: unknown trait {name!r}")
            try:
                values[name] = float(raw_value)
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparsable trait value {raw_value!r}") from None
            if not math.isfinite(values[name]):
                raise DataError(f"{path}:{lineno}: non-finite trait value {raw_value!r}")
            if not (TRAIT_MIN <= values[name] <= TRAIT_MAX):
                raise DataError(f"{path}:{lineno}: trait {name} = {values[name]} "
                                f"outside [{TRAIT_MIN}, {TRAIT_MAX}]")
        if len(values) != len(TRAIT_NAMES):
            raise DataError(f"{path}:{lineno}: duplicate or missing trait fields")
        rows.append((parts[0], values))
    return rows


def _join(pred_rows, truth_rows_, pred_path, truth_path):
    truth_map = {}
    for sid, value in truth_rows_:
        if sid in truth_map:
            raise DataError(f"{truth_path}: duplicate sample id {sid!r}")
        truth_map[sid] = value
    joined = []
    seen = set()
    for sid, value in pred_rows:
        if sid in seen:
            raise DataError(f"{pred_path}: duplicate sample id {sid!r}")
        seen.add(sid)
        if sid not in truth_map:
            raise DataError(f"{pred_path}: sample {sid!r} has no entry in {truth_path}")
        joined.append((value, truth_map[sid]))
    missing = [sid for sid, _ in truth_rows_ if sid not in seen]
    if missing:
        raise DataError(f"{truth_path}: no predictions for {len(missing)} sample(s), e.g. {missing[0]!r}")
    return joined


def _cmd_evaluate(args) -> int:
    if args.task == "traits":
        joined = _join(_read_trait_rows(args.predictions), _read_trait_rows(args.truth),
                       args.predictions, args.truth)
        pred_by_trait = {name: [p[name] for p, _ in joined] for name in TRAIT_NAMES}
        truth_by_trait = {name: [t[name] for _, t in joined] for name in TRAIT_NAMES}
        rep = trait_rmse_report(pred_by_trait, truth_by_trait)
        out = [render_trait_report(rep)]
        out.extend(f"{name}_exact\t{rep.per_trait[name]!r}" for name in TRAIT_NAMES)
        out.append(f"mean_exact\t{rep.mean!r}")
    else:
        joined = _join(_read_label_rows(args.predictions), _read_label_rows(args.truth),
                       args.predictions, args.truth)
        y_pred = [p for p, _ in joined]
        y_true = [t for _, t in joined]
        classes = list(dict.fromkeys(y_true + y_pred))
        rep = report(confusion(y_true, y_pred, classes))
        out = [render_report(rep), f"accuracy_exact\t{rep.accuracy!r}"]
        for warning in rep.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.output:
        write_lines(args.output, out)
        print(f"evaluated {len(joined)} sample(s) -> {args.output}")
    else:
        print("\n".join(out))
    return 0


def _cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    result = run_experiment(cfg)
    write_lines(args.output, split_lines(render_result(result)))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if result.outcome is not None and result.outcome.class_report is not None:
        headline = f"accuracy {result.outcome.class_report.accuracy:.3f}"
    elif result.outcome is not None and result.outcome.trait_report is not None:
        headline = f"mean trait RMSE {result.outcome.trait_report.mean:.3f}"
    else:
        headline = f"{len(result.sweep_rows)} sweep row(s)"
    print(f"{result.mode} experiment ({result.task}): {headline} -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus-format", required=True, choices=FORMATS)
    p.add_argument("--corpus-path", required=True)
    p.add_argument("--language", required=True, choices=LANGUAGES)
    p.add_argument("--grouping-k", type=int, default=None,
                   help="pool flat-corpus documents into samples of this size")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--rules", help="normalization rule file (default: built-in rules)")
    p.add_argument("--lexicon", help="fallback tagger lexicon file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="styloprof",
                                     description="Author profiling from stylistic character/POS n-grams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="rewrite mentions and hyperlinks into fixed markers")
    p.add_argument("input", help="UTF-8 text file, one document per line")
    p.add_argument("output")
    p.add_argument("--language", default="es", choices=LANGUAGES)
    p.add_argument("--rules", help="normalization rule file (default: built-in rules)")
    p.add_argument("--rewrites", help="rewrite log path (default: OUTPUT.rewrites)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("featurize", help="build and save an n-gram vocabulary from a corpus")
    _add_corpus_args(p)
    p.add_argument("--min-df", type=int, default=2,
                   help="keep grams occurring in at least this many samples")
    p.add_argument("--vocab-out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="train a model from an experiment config (full corpus, no split)")
    p.add_argument("--config", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--vocab-out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="label a corpus with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    _add_corpus_args(p)
    p.add_argument("--output", required=True,
                   help="predictions: sample_id<TAB>label<TAB>margin (trait=value fields for traits)")
    p.add_argument("--truth-out", help="also dump gold labels for later evaluation")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against a truth file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--task", required=True, choices=("gender", "age", "traits"))
    p.add_argument("--output", help="report path (default: stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="result file path")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except StyloprofError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
