"""End-to-end command-line flows, run in process through main(argv)."""

import gzip

import pytest

from styloprof.cli import main
from styloprof.corpus import Document, LabelSet, Sample, save_pan_truth_dir
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

    def test_missing_input_is_a_data_error(self, tmp_path, capsys):
        code = main(["normalize", str(tmp_path / "absent.txt"), str(tmp_path / "o.txt")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_rule_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "in.txt").write_text("x\n", encoding="utf-8")
        (tmp_path / "bad.rules").write_text("broken\t(\tx\n", encoding="utf-8")
        code = main(["normalize", str(tmp_path / "in.txt"), str(tmp_path / "o.txt"),
                     "--rules", str(tmp_path / "bad.rules")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestFeaturizeCommand:
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

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(["featurize", "--corpus-format", "FlatCsv",
                     "--corpus-path", str(tmp_path / "absent.csv"),
                     "--language", "es", "--vocab-out", str(tmp_path / "v")])
        assert code == 3


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

    def test_malformed_label_row(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path, "only_an_id\n", "a\tF\n")
        assert main(argv) == 3
        assert "expected `sample_id<TAB>label" in capsys.readouterr().err

    def test_malformed_trait_rows(self, tmp_path, capsys):
        (tmp_path / "p.tsv").write_text(
            "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=oops\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text(
            "a\tE=0.1\tN=0.1\tA=0.1\tC=0.1\tO=0.1\n", encoding="utf-8")
        assert main(["evaluate", "--predictions", str(tmp_path / "p.tsv"),
                     "--truth", str(tmp_path / "t.tsv"), "--task", "traits"]) == 3
        assert "unparsable trait value" in capsys.readouterr().err

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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        (tmp_path / "exp.ini").write_text("[experiment]\ntask = gender\n", encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "exp.ini"),
                     "--output", str(tmp_path / "result.txt")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini"),
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
        (_bad_dim, "malformed dimension"),
        (_bad_config, "malformed config line"),
        (_nan_bias, "non-finite bias"),
        (_inf_weight, "non-finite weight"),
    ], ids=["vocab-column", "vocab-char-unit", "model-dim", "model-config", "nan-bias", "inf-weight"])
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
