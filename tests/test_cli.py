"""End-to-end command-line flows, run in process through main(argv)."""

import gzip

import pytest

from styloprof.cli import build_parser, main
from styloprof.corpus import AGE_BANDS, Document, LabelSet, Sample, save_pan_truth_dir
from styloprof.experiment import TASKS
from styloprof.features import Vocabulary
from styloprof.learner import load_model
from styloprof.normalize import default_rules, normalize
from styloprof.synthetic import write_marker_csv

TWEET = "I was just watching ``update 10.'' @MKBHD http://t.co/P9Dn7t8zSl"

GENDER_CONFIG = """\
[experiment]
task = gender

[train_corpus]
format = FlatCsv
path = train.csv
language = es
"""


def write_gender_setup(tmp_path, n_docs=60):
    write_marker_csv(tmp_path / "train.csv", n_docs=n_docs)
    (tmp_path / "exp.ini").write_text(GENDER_CONFIG, encoding="utf-8")


def write_truth_dir(path, n_authors=4):
    save_pan_truth_dir([Sample(id=f"a{i}", documents=[Document(f"a{i}:0", f"hola @amigo {':)' * i}")],
                               labels=LabelSet(gender=("Female", "Male")[i % 2]))
                        for i in range(n_authors)], str(path))


def train_gender_model(tmp_path):
    write_gender_setup(tmp_path)
    code = main(["train", "--config", str(tmp_path / "exp.ini"),
                 "--model-out", str(tmp_path / "m.model"),
                 "--vocab-out", str(tmp_path / "m.vocab")])
    assert code == 0


class TestNormalizeCommand:
    def test_rewrites_text_and_logs_spans(self, tmp_path, capsys):
        (tmp_path / "in.txt").write_text(TWEET + "\nno markers here\n",
                                         encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "out.txt")])
        assert code == 0
        out_lines = (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines()
        assert out_lines == [
            "I was just watching ``update 10.'' @us htt",
            "no markers here",
        ]
        expected = normalize(TWEET, default_rules("es"))
        log_lines = (tmp_path / "out.txt.rewrites").read_text(encoding="utf-8").splitlines()
        assert log_lines == [
            f"1\t{rw.rule}\t{rw.original_span[0]}\t{rw.original_span[1]}"
            f"\t{rw.replacement_span[0]}\t{rw.replacement_span[1]}"
            for rw in expected.rewrites
        ]
        assert "normalized 2 line(s)" in capsys.readouterr().out

    def test_one_output_line_per_input_line(self, tmp_path, capsys):
        # every separator but "\n" stays inside its line
        lines = [f"@a{sep}@b" for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"] + ["@c"]
        (tmp_path / "in.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "out.txt")])
        assert code == 0
        results = [normalize(line, default_rules("es")) for line in lines]
        out = (tmp_path / "out.txt").read_bytes().decode("utf-8")
        assert out == "".join(result.text + "\n" for result in results)
        log = (tmp_path / "out.txt.rewrites").read_bytes().decode("utf-8")
        assert log == "".join(f"{lineno}\t{rw.rule}\t{rw.original_span[0]}\t{rw.original_span[1]}"
                              f"\t{rw.replacement_span[0]}\t{rw.replacement_span[1]}\n"
                              for lineno, result in enumerate(results, start=1)
                              for rw in result.rewrites)
        assert f"normalized {len(lines)} line(s)" in capsys.readouterr().out

    def test_explicit_rewrites_path_and_gzip(self, tmp_path):
        (tmp_path / "in.txt").write_text("hola @amigo\n", encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"),
                     str(tmp_path / "out.txt.gz"),
                     "--rewrites", str(tmp_path / "log.tsv")])
        assert code == 0
        with gzip.open(tmp_path / "out.txt.gz", "rt", encoding="utf-8") as fh:
            assert fh.read() == "hola @us\n"
        log = (tmp_path / "log.tsv").read_text(encoding="utf-8")
        assert log.startswith("1\tmentions\t")

    def test_custom_rule_file(self, tmp_path):
        (tmp_path / "in.txt").write_text("call 555 now\n", encoding="utf-8")
        (tmp_path / "my.rules").write_text("digits\t\\d+\tNUM\n", encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "out.txt"),
                     "--rules", str(tmp_path / "my.rules")])
        assert code == 0
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "call NUM now\n"

    def test_rule_file_log_splices_each_line_to_its_output(self, tmp_path):
        # `z` overlaps part of an `@us` marker, `e` may start where `d` deleted
        (tmp_path / "my.rules").write_text("mentions\t@\\w+\t@us\nz\ts#\tZ\nd\ta\t\ne\tbc\tY\n",
                                           encoding="utf-8")
        lines = ["@a#", "abc", "x @as# abc", "no match", "@bc#abc@s#"]
        (tmp_path / "in.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "out.txt"),
                     "--rules", str(tmp_path / "my.rules"), "--rewrites", str(tmp_path / "rewrites.tsv")])
        assert code == 0
        outputs = (tmp_path / "out.txt").read_text(encoding="utf-8").split("\n")[:-1]
        assert outputs[:2] == ["@uZ", "Y"]
        spans = {}
        for row in (tmp_path / "rewrites.tsv").read_text(encoding="utf-8").splitlines():
            lineno, _, a, b, c, d = row.split("\t")
            spans.setdefault(int(lineno), []).append((int(a), int(b), int(c), int(d)))
        for lineno, (line, output) in enumerate(zip(lines, outputs), start=1):
            pieces, cursor = [], 0
            for a, b, c, d in sorted(spans.get(lineno, [])):
                assert cursor <= a
                pieces += [line[cursor:a], output[c:d]]
                cursor = b
            assert "".join(pieces) + line[cursor:] == output, line

    def test_missing_input_is_a_data_error(self, tmp_path, capsys):
        code = main(["normalize", str(tmp_path / "absent.txt"), str(tmp_path / "o.txt")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_gzipped_rule_file(self, tmp_path):
        (tmp_path / "in.txt").write_text("call 555 now\n", encoding="utf-8")
        with gzip.open(tmp_path / "my.rules.gz", "wt", encoding="utf-8") as fh:
            fh.write("digits\t\\d+\tNUM\n")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "out.txt"),
                     "--rules", str(tmp_path / "my.rules.gz")])
        assert code == 0
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "call NUM now\n"

    def test_bad_bytes_in_rule_file_are_a_data_error(self, tmp_path, capsys):
        (tmp_path / "in.txt").write_text("x\n", encoding="utf-8")
        (tmp_path / "bad.rules").write_bytes(b"digits\t\\d+\tN\xffUM\n")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "o.txt"),
                     "--rules", str(tmp_path / "bad.rules")])
        assert code == 3
        assert "bad.rules: not UTF-8 text" in capsys.readouterr().err

    def test_bad_rule_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "in.txt").write_text("x\n", encoding="utf-8")
        (tmp_path / "bad.rules").write_text("broken\t(\tx\n", encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "o.txt"),
                     "--rules", str(tmp_path / "bad.rules")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestFeaturizeCommand:
    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, capsys, delimiter):
        write_marker_csv(tmp_path / "c.csv", n_docs=4)
        code = main(["featurize", "--corpus-format", "FlatCsv", "--corpus-path", str(tmp_path / "c.csv"),
                     "--language", "es", "--delimiter", delimiter, "--vocab-out", str(tmp_path / "v")])
        assert code == 2
        assert "config error: delimiter must be a single character" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_builds_loadable_vocabulary(self, tmp_path, capsys):
        write_marker_csv(tmp_path / "c.csv", n_docs=30)
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "c.csv"),
                     "--language", "es", "--min-df", "2",
                     "--vocab-out", str(tmp_path / "c.vocab")])
        assert code == 0
        vocab = Vocabulary.load(tmp_path / "c.vocab")
        assert len(vocab) > 0
        captured = capsys.readouterr()
        assert f"vocabulary: {len(vocab)} keys" in captured.out
        assert "fallback tagger" in captured.err

    def test_grouping_flag(self, tmp_path):
        write_marker_csv(tmp_path / "c.csv", n_docs=30)
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "c.csv"),
                     "--language", "es", "--grouping-k", "5",
                     "--vocab-out", str(tmp_path / "c.vocab")])
        assert code == 0

    def test_grouping_flag_on_a_truth_dir_is_a_config_error(self, tmp_path, capsys):
        write_truth_dir(tmp_path / "pan")
        code = main(["featurize", "--corpus-format", "PanTruthDir", "--corpus-path", str(tmp_path / "pan"),
                     "--language", "es", "--grouping-k", "3", "--vocab-out", str(tmp_path / "v")])
        assert code == 2
        assert "config error: grouping_k applies only to FlatCsv corpora" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_author_id_outside_the_truth_dir_exits_3(self, tmp_path, capsys):
        write_truth_dir(tmp_path / "pan")
        (tmp_path / "x.txt").write_text("hola\n", encoding="utf-8")
        with open(tmp_path / "pan" / "truth.txt", "a", encoding="utf-8") as fh:
            fh.write("../x:::M:::XX\n")
        code = main(["featurize", "--corpus-format", "PanTruthDir", "--corpus-path", str(tmp_path / "pan"),
                     "--language", "es", "--min-df", "1", "--vocab-out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and "author id '../x' holds a path separator" in err
        assert not (tmp_path / "v").exists()

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "absent.csv"),
                     "--language", "es", "--vocab-out", str(tmp_path / "v")])
        assert code == 3

    @pytest.mark.parametrize("name, data, message", [
        ("c.csv", b"id,gender,text\n1,F,hola \xff\n", "not UTF-8 text"),
        ("c.csv.gz", gzip.compress(b"id,gender,text\n1,F,hola \xff\n"), "not UTF-8 text"),
        ("c.csv.gz", gzip.compress(b"id,gender,text\n1,F,hola\n")[:20], "corrupt gzip stream"),
    ], ids=["bad-byte", "gzipped-bad-byte", "truncated-gzip"])
    def test_bad_bytes_exit_3(self, tmp_path, capsys, name, data, message):
        (tmp_path / name).write_bytes(data)
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / name),
                     "--language", "es", "--vocab-out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and f"{name}: {message}" in err


    @pytest.mark.parametrize("body, message", [
        ('a,F,"hi there\nb,M,yo\n', "c.csv: row 2: malformed CSV: unexpected end of data"),
        ("a,F," + "x" * 131_073 + "\n", "c.csv: row 2: malformed CSV: field larger than field limit"),
    ], ids=["unterminated-quote", "oversized-field"])
    def test_malformed_csv_exits_3(self, tmp_path, capsys, body, message):
        (tmp_path / "c.csv").write_text("id,gender,text\n" + body, encoding="utf-8")
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "c.csv"),
                     "--language", "es", "--vocab-out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and message in err
        assert not (tmp_path / "v").exists()


class TestTrainPredictEvaluate:
    def test_full_gender_loop(self, tmp_path, capsys):
        train_gender_model(tmp_path)
        captured = capsys.readouterr()
        assert "trained binary model (gender) on 60 sample(s)" in captured.out

        bundle = load_model(tmp_path / "m.model")
        vocab = Vocabulary.load(tmp_path / "m.vocab")
        assert bundle.vocab_hash == vocab.content_hash()

        code = main(["predict", "--model", str(tmp_path / "m.model"),
                     "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "train.csv"),
                     "--language", "es",
                     "--output", str(tmp_path / "pred.tsv"),
                     "--truth-out", str(tmp_path / "gold.tsv")])
        assert code == 0
        pred_lines = (tmp_path / "pred.tsv").read_text(encoding="utf-8").splitlines()
        assert len(pred_lines) == 60
        sid, label, margin = pred_lines[0].split("\t")
        assert sid == "F#0"  # flat corpora are pooled into per-class chunks
        assert label in ("Female", "Male")
        float(margin)  # repr of the decision value
        gold_lines = (tmp_path / "gold.tsv").read_text(encoding="utf-8").splitlines()
        assert gold_lines[0] == "F#0\tFemale"

        code = main(["evaluate", "--predictions", str(tmp_path / "pred.tsv"),
                     "--truth", str(tmp_path / "gold.tsv"), "--task", "gender",
                     "--output", str(tmp_path / "report.txt")])
        assert code == 0
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert report.splitlines()[0] == "class\tP\tR\tF\tA"
        exact = [ln for ln in report.splitlines() if ln.startswith("accuracy_exact\t")]
        assert len(exact) == 1
        assert float(exact[0].split("\t")[1]) >= 0.95

    def test_truth_dir_predictions_evaluate(self, tmp_path, capsys):
        """What `predict --truth-out` writes for a truth dir, `evaluate` reads."""
        train_gender_model(tmp_path)
        write_truth_dir(tmp_path / "pan")
        code = main(["predict", "--model", str(tmp_path / "m.model"), "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "PanTruthDir", "--corpus-path", str(tmp_path / "pan"),
                     "--language", "es", "--output", str(tmp_path / "p.tsv"),
                     "--truth-out", str(tmp_path / "t.tsv")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "t.tsv").read_text(encoding="utf-8").splitlines()[0] == "a0\tFemale"
        code = main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "gender"])
        assert code == 0, capsys.readouterr().err
        assert "accuracy_exact\t" in capsys.readouterr().out

    @pytest.mark.parametrize("task", [*TASKS, "sentiment"])
    def test_evaluate_task_choices_are_the_task_table(self, task, capsys):
        argv = ["evaluate", "--predictions", "p.tsv", "--truth", "t.tsv", "--task", task]
        if task in TASKS:
            assert build_parser().parse_args(argv).task == task
            return
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert f"invalid choice: {task!r}" in capsys.readouterr().err

    def test_evaluate_to_stdout(self, tmp_path, capsys):
        (tmp_path / "p.tsv").write_text("a\tF\t1.0\nb\tM\t-2.0\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text("a\tF\nb\tF\n", encoding="utf-8")
        code = main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "gender"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("class\tP\tR\tF\tA\n")
        assert "accuracy_exact\t0.5" in out

    def test_predict_against_wrong_vocabulary(self, tmp_path, capsys):
        train_gender_model(tmp_path)
        write_marker_csv(tmp_path / "other.csv", n_docs=20, seed=4)
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "other.csv"),
                     "--language", "es", "--vocab-out", str(tmp_path / "other.vocab")])
        assert code == 0
        capsys.readouterr()
        code = main(["predict", "--model", str(tmp_path / "m.model"),
                     "--vocab", str(tmp_path / "other.vocab"),
                     "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "train.csv"),
                     "--language", "es",
                     "--output", str(tmp_path / "pred.tsv")])
        assert code == 3
        assert "trained against vocabulary" in capsys.readouterr().err

    def test_grouping_flag_on_a_truth_dir_is_a_config_error(self, tmp_path, capsys):
        train_gender_model(tmp_path)
        write_truth_dir(tmp_path / "pan")
        capsys.readouterr()
        code = main(["predict", "--model", str(tmp_path / "m.model"), "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "PanTruthDir", "--corpus-path", str(tmp_path / "pan"),
                     "--language", "es", "--grouping-k", "3", "--output", str(tmp_path / "pred.tsv")])
        assert code == 2
        assert "config error: grouping_k applies only to FlatCsv corpora" in capsys.readouterr().err
        assert not (tmp_path / "pred.tsv").exists()

    def test_traits_loop(self, tmp_path, capsys):
        corpus = tmp_path / "pan"
        samples = []
        for i in range(10):
            gender = "Female" if i % 2 == 0 else "Male"
            marker = ":)" if i % 2 == 0 else "!!!!"
            samples.append(Sample(
                id=f"a{i:02d}",
                documents=[Document(id=f"a{i:02d}/0", text=f"hola {marker} gente")],
                labels=LabelSet(gender=gender,
                                traits={t: 0.1 if i % 2 == 0 else -0.1 for t in "ENACO"}),
            ))
        save_pan_truth_dir(samples, str(corpus))
        (tmp_path / "exp.ini").write_text("""\
[experiment]
task = traits
min_df = 1

[train_corpus]
format = PanTruthDir
path = pan
language = es
""", encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "exp.ini"),
                     "--model-out", str(tmp_path / "t.model"),
                     "--vocab-out", str(tmp_path / "t.vocab")]) == 0
        assert main(["predict", "--model", str(tmp_path / "t.model"),
                     "--vocab", str(tmp_path / "t.vocab"),
                     "--corpus-format", "PanTruthDir",
                     "--corpus-path", str(corpus),
                     "--language", "es",
                     "--output", str(tmp_path / "pred.tsv"),
                     "--truth-out", str(tmp_path / "gold.tsv")]) == 0
        first = (tmp_path / "pred.tsv").read_text(encoding="utf-8").splitlines()[0]
        fields = first.split("\t")
        assert fields[0] == "a00"
        assert [f.split("=")[0] for f in fields[1:]] == ["E", "N", "A", "C", "O"]
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.tsv"),
                     "--truth", str(tmp_path / "gold.tsv"), "--task", "traits"]) == 0
        out = capsys.readouterr().out
        assert "trait\tRMSE" in out
        assert "mean_exact\t" in out

    def test_gzip_prediction_files(self, tmp_path, capsys):
        train_gender_model(tmp_path)
        assert main(["predict", "--model", str(tmp_path / "m.model"),
                     "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "train.csv"),
                     "--language", "es",
                     "--output", str(tmp_path / "pred.tsv.gz"),
                     "--truth-out", str(tmp_path / "gold.tsv.gz")]) == 0
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.tsv.gz"),
                     "--truth", str(tmp_path / "gold.tsv.gz"),
                     "--task", "gender"]) == 0

    def test_failed_truth_out_writes_neither_file(self, tmp_path, capsys):
        """An age model has no age band to dump for a flat corpus: the
        command fails before it writes the predictions either."""
        samples = [Sample(id=f"a{i}", documents=[Document(f"a{i}/0", f"hola {':)' * (i % 3)} gente")],
                          labels=LabelSet(gender=("Female", "Male")[i % 2], age_band=AGE_BANDS[i % 3]))
                   for i in range(6)]
        save_pan_truth_dir(samples, str(tmp_path / "pan"))
        (tmp_path / "exp.ini").write_text(PAN_CONFIG.format(task="age"), encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "exp.ini"), "--model-out", str(tmp_path / "m.model"),
                     "--vocab-out", str(tmp_path / "m.vocab")]) == 0
        write_marker_csv(tmp_path / "flat.csv", n_docs=10)
        code = main(["predict", "--model", str(tmp_path / "m.model"), "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "FlatCsv", "--corpus-path", str(tmp_path / "flat.csv"),
                     "--language", "es", "--output", str(tmp_path / "pred.tsv"),
                     "--truth-out", str(tmp_path / "gold.tsv")])
        assert code == 3
        assert "sample 'F#0' lacks a age band label" in capsys.readouterr().err
        assert not (tmp_path / "pred.tsv").exists()
        assert not (tmp_path / "gold.tsv").exists()

    def test_evaluate_scores_as_a_cross_run_does(self, tmp_path, capsys):
        """`run` in cross mode and `train`, `predict --truth-out` and
        `evaluate` on the same two corpora give the same scores."""
        write_gender_setup(tmp_path, n_docs=40)
        write_marker_csv(tmp_path / "test.csv", n_docs=16, seed=5, marker_rate=0.5)
        (tmp_path / "cross.ini").write_text(GENDER_CONFIG + "\n[test_corpus]\nformat = FlatCsv\n"
                                            "path = test.csv\nlanguage = es\n", encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "cross.ini"), "--output", str(tmp_path / "r.txt")]) == 0
        assert main(["train", "--config", str(tmp_path / "exp.ini"), "--model-out", str(tmp_path / "m.model"),
                     "--vocab-out", str(tmp_path / "m.vocab")]) == 0
        assert main(["predict", "--model", str(tmp_path / "m.model"), "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "FlatCsv", "--corpus-path", str(tmp_path / "test.csv"),
                     "--language", "es", "--output", str(tmp_path / "p.tsv"),
                     "--truth-out", str(tmp_path / "t.tsv")]) == 0
        assert main(["evaluate", "--predictions", str(tmp_path / "p.tsv"), "--truth", str(tmp_path / "t.tsv"),
                     "--task", "gender", "--output", str(tmp_path / "e.txt")]) == 0
        result = (tmp_path / "r.txt").read_text(encoding="utf-8").splitlines()
        evaluated = (tmp_path / "e.txt").read_text(encoding="utf-8").splitlines()
        accuracy = next(line.split("\t")[1] for line in result if line.startswith("accuracy\t"))
        assert f"accuracy_exact\t{accuracy}" in evaluated

        def class_rows(lines):
            """Label -> P, R and F cells of a rendered report's class rows."""
            rows = [line.split("\t") for line in lines[1:] if line.count("\t") == 4]
            return {cells[0]: cells[1:4] for cells in rows}

        result_report = result[result.index("## report") + 1:result.index("## config")]
        assert result_report[0] == evaluated[0] == "class\tP\tR\tF\tA"
        assert class_rows(evaluated) == class_rows(result_report)
        assert sorted(class_rows(evaluated)) == ["Female", "Male"]


PAN_CONFIG = """\
[experiment]
task = {task}
min_df = 1

[train_corpus]
format = PanTruthDir
path = pan
language = es
"""


class TestPredictNumbers:
    """Every margin and trait value `styloprof predict` writes is the repr
    of a Python float, so `float()` reads it back exactly."""

    @pytest.mark.parametrize("task", ["gender", "age", "traits"])
    def test_every_number_parses(self, tmp_path, task):
        samples = [Sample(id=f"a{i:02d}",
                          documents=[Document(id=f"a{i:02d}/0", text=f"hola {':)' * (i % 3)} gente {i}")],
                          labels=LabelSet(gender=("Female", "Male")[i % 2],
                                          age_band=("18-24", "25-34", "35-49")[i % 3],
                                          traits={t: 0.05 * (i % 5) - 0.1 for t in "ENACO"}))
                   for i in range(12)]
        save_pan_truth_dir(samples, str(tmp_path / "pan"))
        (tmp_path / "exp.ini").write_text(PAN_CONFIG.format(task=task), encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "exp.ini"),
                     "--model-out", str(tmp_path / "m.model"),
                     "--vocab-out", str(tmp_path / "m.vocab")]) == 0
        assert main(["predict", "--model", str(tmp_path / "m.model"),
                     "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "PanTruthDir", "--corpus-path", str(tmp_path / "pan"),
                     "--language", "es", "--output", str(tmp_path / "pred.tsv")]) == 0
        lines = (tmp_path / "pred.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        for line in lines:
            fields = line.split("\t")
            numbers = [f.split("=", 1)[1] for f in fields[1:]] if task == "traits" else [fields[2]]
            for text in numbers:
                assert repr(float(text)) == text


class TestEvaluateErrors:
    def write_pair(self, tmp_path, pred, truth):
        (tmp_path / "p.tsv").write_text(pred, encoding="utf-8")
        (tmp_path / "t.tsv").write_text(truth, encoding="utf-8")
        return ["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                "--truth", str(tmp_path / "t.tsv"), "--task", "gender"]

    def test_prediction_without_truth_entry(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path, "a\tF\nzz\tM\n", "a\tF\n")
        assert main(argv) == 3
        assert "no entry" in capsys.readouterr().err

    def test_truth_without_prediction(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path, "a\tF\n", "a\tF\nb\tM\n")
        assert main(argv) == 3
        assert "no predictions for 1 sample(s)" in capsys.readouterr().err

    def test_duplicate_prediction_id(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path, "a\tF\na\tM\n", "a\tF\n")
        assert main(argv) == 3
        assert "duplicate sample id" in capsys.readouterr().err

    def test_duplicate_truth_id(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path, "a\tF\n", "a\tF\na\tM\n")
        assert main(argv) == 3

    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_repeated_id_names_its_line(self, tmp_path, capsys, side):
        rows = {"predictions": "a\tF\t1.0\nb\tM\t-1.0\n", "truth": "a\tF\nb\tM\n"}
        rows[side] += "\na\tM\n" if side == "truth" else "\na\tM\t0.5\n"
        argv = self.write_pair(tmp_path, rows["predictions"], rows["truth"])
        assert main(argv) == 3
        path = tmp_path / ("p.tsv" if side == "predictions" else "t.tsv")
        assert f"{path}:4: duplicate sample id 'a'" in capsys.readouterr().err

    def test_empty_trait_id(self, tmp_path, capsys):
        row = "E=0.1\tN=0.1\tA=0.1\tC=0.1\tO=0.1\n"
        (tmp_path / "p.tsv").write_text(f"a\t{row}\t{row}", encoding="utf-8")
        (tmp_path / "t.tsv").write_text(f"a\t{row}", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "traits"]) == 3
        assert f"{tmp_path / 'p.tsv'}:2: expected a sample id and 5 trait=value fields" in capsys.readouterr().err

    def test_malformed_label_row(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path, "only_an_id\n", "a\tF\n")
        assert main(argv) == 3
        assert "expected `sample_id<TAB>label" in capsys.readouterr().err

    @pytest.mark.parametrize("pred, message", [
        ("a\tF\tnan\n", "non-finite margin 'nan'"),
        ("a\tF\t1\tx\n", "expected `sample_id<TAB>label"),
    ], ids=["nan-margin", "fourth-field"])
    def test_malformed_margin_field(self, tmp_path, capsys, pred, message):
        argv = self.write_pair(tmp_path, pred, "a\tF\n")
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    def test_malformed_trait_rows(self, tmp_path, capsys):
        (tmp_path / "p.tsv").write_text(
            "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=oops\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text(
            "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=0.1\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "traits"]) == 3
        assert "unparsable trait value" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_non_finite_trait_value(self, tmp_path, capsys, bad, side):
        good = "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=0.1\n"
        files = {"predictions": tmp_path / "p.tsv", "truth": tmp_path / "t.tsv"}
        for name, path in files.items():
            path.write_text(good.replace("E=0.1", f"E={bad}") if name == side else good,
                            encoding="utf-8")
        assert main(["evaluate", "--predictions", str(files["predictions"]),
                     "--truth", str(files["truth"]), "--task", "traits"]) == 3
        err = capsys.readouterr().err
        assert f"{files[side]}:1: non-finite trait value {bad!r}" in err

    @pytest.mark.parametrize("side", ["predictions", "truth"])
    def test_out_of_range_trait_value(self, tmp_path, capsys, side):
        good = "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=0.1\n"
        files = {"predictions": tmp_path / "p.tsv", "truth": tmp_path / "t.tsv"}
        for name, path in files.items():
            path.write_text(good.replace("E=0.1", "E=9") if name == side else good,
                            encoding="utf-8")
        assert main(["evaluate", "--predictions", str(files["predictions"]),
                     "--truth", str(files["truth"]), "--task", "traits"]) == 3
        err = capsys.readouterr().err
        assert f"{files[side]}:1: trait E = 9.0 outside [-0.5, 0.5]" in err

    def test_trait_range_bounds_accepted(self, tmp_path, capsys):
        row = "a\tE=-0.5\tN=0.5\tA=0.1\tC=0.1\tO=0.1\n"
        for name in ("p.tsv", "t.tsv"):
            (tmp_path / name).write_text(row, encoding="utf-8")
        assert main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "traits"]) == 0
        assert "mean_exact\t0.0" in capsys.readouterr().out

    def test_duplicate_trait_field(self, tmp_path, capsys):
        (tmp_path / "p.tsv").write_text(
            "a\tE=0.1\tE=0.2\tA=0.1\tC=0.1\tO=0.1\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text(
            "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=0.1\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "traits"]) == 3
        assert "duplicate or missing trait fields" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_result_and_headline(self, tmp_path, capsys):
        write_gender_setup(tmp_path)
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 0
        text = (tmp_path / "result.txt").read_text(encoding="utf-8")
        assert text.startswith("styloprof-result-v1\n")
        assert "## metrics" in text
        out = capsys.readouterr().out
        assert out.startswith("split experiment (gender): accuracy ")

    def test_sweep_headline(self, tmp_path, capsys):
        write_marker_csv(tmp_path / "train.csv", n_docs=40)
        (tmp_path / "exp.ini").write_text(
            GENDER_CONFIG + "\n[sweep]\nk_values = 1, 2\n", encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 0
        assert "2 sweep row(s)" in capsys.readouterr().out

    def test_sweep_with_grouping_k_exits_2(self, tmp_path, capsys):
        write_marker_csv(tmp_path / "train.csv", n_docs=40)
        config = GENDER_CONFIG.replace("language = es", "language = es\ngrouping_k = 5")
        (tmp_path / "exp.ini").write_text(config + "\n[sweep]\nk_values = 1, 3\n", encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 2
        assert "grouping_k does not apply to a sample-size sweep" in capsys.readouterr().err
        assert not (tmp_path / "result.txt").exists()

    def test_tab_in_author_id_exits_3(self, tmp_path, capsys):
        write_truth_dir(tmp_path / "pan")
        with open(tmp_path / "pan" / "truth.txt", "a", encoding="utf-8") as fh:
            fh.write("au\tthor0:::M:::XX\n")
        (tmp_path / "pan" / "au\tthor0.txt").write_text("hola\n", encoding="utf-8")
        (tmp_path / "exp.ini").write_text(GENDER_CONFIG.replace("FlatCsv", "PanTruthDir")
                                          .replace("train.csv", "pan"), encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "exp.ini"), "--output", str(tmp_path / "r.txt")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and "author id 'au\\tthor0' holds a path separator" in err
        assert not (tmp_path / "r.txt").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        (tmp_path / "exp.ini").write_text("[experiment]\ntask = gender\n", encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_default_section_exits_2(self, tmp_path, capsys):
        write_marker_csv(tmp_path / "train.csv", n_docs=40)
        (tmp_path / "exp.ini").write_text("[DEFAULT]\nepochs = 5\n\n" + GENDER_CONFIG, encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 2
        assert "config error" in (err := capsys.readouterr().err)
        assert "unknown section [DEFAULT]" in err
        assert not (tmp_path / "result.txt").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_bytes_in_config_exit_2(self, tmp_path, capsys):
        write_gender_setup(tmp_path)
        (tmp_path / "exp.ini").write_bytes((tmp_path / "exp.ini").read_bytes() + b"# \xff\n")
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unexpected_exception_exits_4(self, tmp_path, capsys, monkeypatch):
        def explode(cfg):
            raise RuntimeError("boom")

        write_gender_setup(tmp_path)
        monkeypatch.setattr("styloprof.cli.run_experiment", explode)
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 4
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def _replace_line(path, tag, new_line):
    lines = path.read_text(encoding="utf-8").splitlines()
    index = next(i for i, line in enumerate(lines) if line.split("\t")[0] == tag)
    lines[index] = new_line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _bad_vocab_column(tmp_path):
    _replace_line(tmp_path / "m.vocab", "char", "char\ta\tX")


def _joined_char_units(tmp_path):
    _replace_line(tmp_path / "m.vocab", "char", "char\ta␟bc\t0")


def _bad_dim(tmp_path):
    _replace_line(tmp_path / "m.model", "dim", "dim\tabc")


def _bad_config(tmp_path):
    _replace_line(tmp_path / "m.model", "config", "config\tgarbage")


def _repeated_vocab_key(tmp_path):
    path = tmp_path / "m.vocab"
    lines = path.read_text(encoding="utf-8").splitlines()
    channel, gram, _ = lines[1].split("\t")
    lines[2] = f"{channel}\t{gram}\t1"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _vocab_header_count(tmp_path):
    path = tmp_path / "m.vocab"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[0].split("\t")
    n_char = int(fields[1].split("=")[1])
    lines[0] = "\t".join([fields[0], f"char={n_char + 1}"] + fields[2:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _vocab_key_order(tmp_path):
    path = tmp_path / "m.vocab"
    lines = path.read_text(encoding="utf-8").splitlines()
    (first, _), (second, _) = (line.rsplit("\t", 1) for line in lines[1:3])
    lines[1:3] = [f"{second}\t0", f"{first}\t1"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _append_field(path, tag, field):
    line = next(line for line in path.read_text(encoding="utf-8").splitlines()
                if line.split("\t")[0] == tag)
    _replace_line(path, tag, f"{line}\t{field}")


def _vocab_min_df_zero(tmp_path):
    path = tmp_path / "m.vocab"
    fields = path.read_text(encoding="utf-8").split("\n", 1)[0].split("\t")
    _replace_line(path, fields[0], "\t".join(fields[:3] + ["min_df=0"]))


def _vocab_min_df_twice(tmp_path):
    _append_field(tmp_path / "m.vocab", "styloprof-vocab-v1", "min_df=3")


def _config_c_param_twice(tmp_path):
    _append_field(tmp_path / "m.model", "config", "c_param=2.0")


def _config_unknown_key(tmp_path):
    _append_field(tmp_path / "m.model", "config", "bogus=1")


def _nan_bias(tmp_path):
    _replace_line(tmp_path / "m.model", "bias", "bias\tnan")


def _inf_weight(tmp_path):
    path = tmp_path / "m.model"
    weights = next(line for line in path.read_text(encoding="utf-8").splitlines()
                   if line.startswith("weights\t")).split("\t")[1].split()
    _replace_line(path, "weights", "weights\t" + " ".join(["inf"] + weights[1:]))


class TestPredictLoaderErrors:
    """Malformed vocabulary and model files exit 3 as data errors."""

    @pytest.mark.parametrize("corrupt, message", [
        (_bad_vocab_column, "is not an integer"),
        (_joined_char_units, "not one character"),
        (_repeated_vocab_key, "repeated vocabulary key"),
        (_vocab_header_count, "header declares char="),
        (_vocab_key_order, "m.vocab:3: key not in (channel, gram) order"),
        (_bad_dim, "malformed dimension"),
        (_bad_config, "malformed config line"),
        (_nan_bias, "non-finite bias"),
        (_inf_weight, "non-finite weight"),
        (_vocab_min_df_zero, "min_df must be >= 1, got 0"),
        (_vocab_min_df_twice, "bad vocabulary header"),
        (_config_c_param_twice, "malformed config line"),
        (_config_unknown_key, "malformed config line"),
    ], ids=["vocab-column", "vocab-char-unit", "vocab-repeated-key", "vocab-header-count",
            "vocab-key-order", "model-dim", "model-config", "nan-bias", "inf-weight",
            "vocab-min-df-zero", "vocab-min-df-twice", "config-c-param-twice", "config-unknown-key"])
    def test_corrupt_file_exits_3(self, tmp_path, capsys, corrupt, message):
        train_gender_model(tmp_path)
        corrupt(tmp_path)
        capsys.readouterr()
        code = main(["predict", "--model", str(tmp_path / "m.model"),
                     "--vocab", str(tmp_path / "m.vocab"),
                     "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "train.csv"),
                     "--language", "es",
                     "--output", str(tmp_path / "pred.tsv")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and message in err
        assert not (tmp_path / "pred.tsv").exists()
