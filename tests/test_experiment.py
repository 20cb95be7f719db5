"""Config parsing, corpus preparation, experiment runs, result files."""

import gzip
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styloprof import experiment
from styloprof.corpus import (
    AGE_BANDS,
    TRAIT_NAMES,
    CorpusSpec,
    Document,
    LabelSet,
    LabeledDocument,
    Sample,
    save_flat_csv,
    save_pan_truth_dir,
)
from styloprof.errors import ConfigError, DataError
from styloprof.experiment import (
    ExperimentResult,
    as_samples,
    extract_config,
    parse_config_file,
    parse_config_text,
    prepare_corpus,
    render_result,
    run_experiment,
    run_single,
    strip_timings,
    train_full,
    truth_rows,
)
from styloprof.features import ScalingPolicy
from styloprof.learner import TrainConfig
from styloprof.normalize import default_rules, load_rules, normalize
from styloprof.synthetic import marker_corpus, write_marker_csv

from oracles import reference_as_samples, reference_prepare_corpus

# every character but "\n" that `str.splitlines` breaks a line on
LINE_BREAKERS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

MINIMAL = """\
[experiment]
task = gender

[train_corpus]
format = FlatCsv
path = train.csv
language = es
"""


def config_for(tmp_path, text=MINIMAL, n_docs=80, seed=0, name="train.csv",
               marker_rate=1.0):
    write_marker_csv(tmp_path / name, n_docs=n_docs, seed=seed,
                     marker_rate=marker_rate)
    return parse_config_text(text, base_dir=str(tmp_path))


def truth_dir_samples(n=12, with_traits=True):
    samples = []
    bands = ("18-24", "25-34")
    for i in range(n):
        gender = "Female" if i % 2 == 0 else "Male"
        marker = ":) :D" if gender == "Female" else "!!!! ????"
        traits = {t: round(0.05 * (i % 5) - 0.1, 2) for t in "ENACO"} if with_traits else None
        samples.append(Sample(
            id=f"author{i:02d}",
            documents=[Document(id=f"author{i:02d}/{j}",
                                text=f"hola gente {marker} cosa {j}")
                       for j in range(3)],
            labels=LabelSet(gender=gender, age_band=bands[i % 2], traits=traits),
        ))
    return samples


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config_text(MINIMAL, base_dir=str(tmp_path))
        assert cfg.task == "gender"
        assert cfg.split_fraction == 0.7
        assert cfg.split_seed == 0
        assert cfg.min_df == 2
        assert cfg.scaling == ("linear", "log2")  # auto, for es
        assert cfg.sweep_k is None
        assert cfg.test_corpus is None
        tc = cfg.train_config
        assert (tc.c_param, tc.epochs, tc.tolerance, tc.seed, tc.epsilon) == \
            (1.0, 50, 1e-4, 0, 0.1)

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        cfg = parse_config_text(MINIMAL, base_dir=str(tmp_path))
        assert cfg.train_corpus.path == str(tmp_path / "train.csv")

    def test_parse_config_file_uses_its_directory(self, tmp_path):
        (tmp_path / "exp.ini").write_text(MINIMAL, encoding="utf-8")
        cfg = parse_config_file(tmp_path / "exp.ini")
        assert cfg.train_corpus.path == str(tmp_path / "train.csv")

    def test_scaling_override(self):
        text = MINIMAL.replace("task = gender", "task = gender\nscaling = log2, linear")
        cfg = parse_config_text(text)
        assert cfg.scaling == ("log2", "linear")

    def test_auto_scaling_follows_train_language(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.scaling == ("linear", "log2")
        cfg_en = parse_config_text(MINIMAL.replace("language = es", "language = en"))
        assert cfg_en.scaling == ("linear", "linear")
        explicit = parse_config_text(MINIMAL.replace("task = gender", "task = gender\nscaling = auto"))
        assert explicit.scaling == ("linear", "log2")

    def test_all_problems_reported_at_once(self):
        text = """\
[experiment]
task = sentiment
min_df = 0
shout = loud

[train_corpus]
format = FlatCsv
path = train.csv
language = xx

[typo_section]
a = b
"""
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        message = str(excinfo.value)
        assert message.startswith("invalid experiment config:")
        assert "task must be one of" in message
        assert "min_df" in message
        assert "unknown key 'shout'" in message
        assert "unsupported language" in message
        assert "unknown section [typo_section]" in message

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="missing required section \\[train_corpus\\]"):
            parse_config_text("[experiment]\ntask = gender\n")
        with pytest.raises(ConfigError, match="missing required section \\[experiment\\]"):
            parse_config_text("[train_corpus]\nformat = FlatCsv\npath = x\nlanguage = es\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key 'task'"):
            parse_config_text("[experiment]\n\n[train_corpus]\nformat = FlatCsv\npath = x\nlanguage = es\n")
        with pytest.raises(ConfigError, match="missing required key 'path'"):
            parse_config_text("[experiment]\ntask = gender\n\n[train_corpus]\nformat = FlatCsv\nlanguage = es\n")

    @pytest.mark.parametrize("line,fragment", [
        ("train_fraction = 1.0", "between 0 and 1"),
        ("train_fraction = 0", "between 0 and 1"),
        ("scaling = sqrt", "expected 'auto' or"),
        ("min_df = -3", "positive integer"),
    ])
    def test_bad_experiment_values(self, line, fragment):
        text = MINIMAL.replace("task = gender", f"task = gender\n{line}")
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(text)

    def test_bad_training_values(self):
        text = MINIMAL + "\n[training]\nc_param = -2\nwhat = ever\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        assert "c_param must be positive" in str(excinfo.value)
        assert "unknown key 'what'" in str(excinfo.value)

    @pytest.mark.parametrize("k_line,fragment", [
        ("k_values = 1, 2, 2", "duplicate"),
        ("k_values = 0", "not positive"),
        ("k_values = one", "invalid literal"),
    ])
    def test_bad_sweep_values(self, k_line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(MINIMAL + f"\n[sweep]\n{k_line}\n")

    def test_sweep_excludes_test_corpus(self):
        text = MINIMAL + """
[test_corpus]
format = FlatCsv
path = test.csv
language = es

[sweep]
k_values = 1, 2
"""
        with pytest.raises(ConfigError, match="remove \\[test_corpus\\] or \\[sweep\\]"):
            parse_config_text(text)

    def test_sweep_only_for_gender(self):
        text = MINIMAL.replace("task = gender", "task = age") \
                      .replace("format = FlatCsv", "format = PanTruthDir")
        with pytest.raises(ConfigError, match="only the gender task"):
            parse_config_text(text + "\n[sweep]\nk_values = 2\n")

    def test_sweep_needs_flat_train_corpus(self):
        text = MINIMAL.replace("format = FlatCsv", "format = PanTruthDir")
        with pytest.raises(ConfigError, match="FlatCsv train corpus"):
            parse_config_text(text + "\n[sweep]\nk_values = 2\n")

    def test_sweep_rejects_grouping_k(self):
        text = MINIMAL.replace("language = es", "language = es\ngrouping_k = 5")
        with pytest.raises(ConfigError, match=r"\[train_corpus\] grouping_k does not apply to a sample-size sweep"):
            parse_config_text(text + "\n[sweep]\nk_values = 1, 3\n")

    def test_grouping_k_only_for_flat(self):
        text = MINIMAL.replace("format = FlatCsv",
                               "format = PanTruthDir\ngrouping_k = 3")
        with pytest.raises(ConfigError, match="grouping_k applies only to FlatCsv"):
            parse_config_text(text)

    @pytest.mark.parametrize("task", ["age", "traits"])
    def test_age_and_traits_need_truth_dirs(self, task):
        with pytest.raises(ConfigError, match="needs PanTruthDir"):
            parse_config_text(MINIMAL.replace("task = gender", f"task = {task}"))

    @pytest.mark.parametrize("task", list(experiment.TASKS))
    def test_flat_corpora_serve_the_tasks_that_learn_gender(self, task):
        """Flat files carry gender only: a task may read one exactly when
        the task table says its model learns gender; a truth dir serves
        every task."""
        text = MINIMAL.replace("task = gender", f"task = {task}")
        cross = text + "\n[test_corpus]\nformat = FlatCsv\npath = test.csv\nlanguage = es\n"
        if experiment.TASKS[task].label == "gender":
            assert parse_config_text(cross).task == task
        else:
            with pytest.raises(ConfigError) as info:
                parse_config_text(cross)
            for section in ("train_corpus", "test_corpus"):
                assert f"[{section}] the {task} task needs PanTruthDir corpora" in str(info.value)
        assert parse_config_text(text.replace("FlatCsv", "PanTruthDir")).task == task

    @pytest.mark.parametrize("value", [";;", ""])
    def test_delimiter_must_be_one_character(self, value):
        text = MINIMAL.replace("language = es", f"language = es\ndelimiter = {value}")
        with pytest.raises(ConfigError, match=r"\[train_corpus\] delimiter must be a single character"):
            parse_config_text(text)

    @pytest.mark.parametrize("section,old,new,fragment", [
        ("training", "[training]", "[training]\nc_param = 0", "c_param must be positive"),
        ("training", "[training]", "[training]\nc_param = nan", "c_param must be finite"),
        ("training", "[training]", "[training]\nepochs = 0", "epochs must be a positive integer, got 0"),
        ("training", "[training]", "[training]\ntolerance = 0", "tolerance must be positive"),
        ("training", "[training]", "[training]\nepsilon = -1", "epsilon must be non-negative"),
        ("train_corpus", "language = es", "language = es\ngrouping_k = 0",
         "grouping_k must be a positive integer, got 0"),
        ("train_corpus", "format = FlatCsv", "format = Weird", "unknown corpus format 'Weird'"),
        ("train_corpus", "language = es", "language = xx", "unsupported language 'xx'"),
        ("train_corpus", "path = train.csv", "path =", "path must not be empty"),
        ("test_corpus", "[training]", "[test_corpus]\nformat = FlatCsv\npath = t.csv\nlanguage = xx",
         "unsupported language 'xx'"),
    ])
    def test_class_checks_name_their_section(self, section, old, new, fragment):
        text = (MINIMAL + "\n[training]\n").replace(old, new)
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {fragment}")):
            parse_config_text(text)

    def test_defaults_are_the_classes_defaults(self):
        cfg = parse_config_text(MINIMAL + "\n[test_corpus]\nformat = FlatCsv\npath = t.csv\nlanguage = es\n")
        assert cfg.train_config == TrainConfig()
        spec = CorpusSpec(format="FlatCsv", path="t.csv", language="es")
        for corpus in (cfg.train_corpus, cfg.test_corpus):
            assert (corpus.grouping_k, corpus.delimiter) == (spec.grouping_k, spec.delimiter)

    def test_default_section_is_an_unknown_section(self):
        text = "[DEFAULT]\nepochs = 5\n\n" + MINIMAL
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        message = str(excinfo.value)
        assert "unknown section [DEFAULT]" in message
        assert "epochs" not in message

    def test_readme_configs_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        assert blocks
        for block in blocks:
            parse_config_text(block)

    def test_ini_syntax_error(self):
        with pytest.raises(ConfigError, match="config syntax"):
            parse_config_text("not an ini file at all")

    def test_rules_and_lexicon_paths_resolved(self, tmp_path):
        text = MINIMAL.replace("task = gender",
                               "task = gender\nrules = my.rules\nlexicon = words.tsv")
        cfg = parse_config_text(text, base_dir=str(tmp_path))
        assert cfg.rules_path == str(tmp_path / "my.rules")
        assert cfg.lexicon_path == str(tmp_path / "words.tsv")


def documents_by_id(prepared) -> dict:
    return {doc.id: doc for sample in prepared.samples for doc in sample.documents}


class TestPrepareCorpus:
    def spec(self, tmp_path, **kw):
        return CorpusSpec(format="FlatCsv", path=str(tmp_path / "c.csv"),
                          language="es", **kw)

    def test_fallback_tagger_warns(self, tmp_path):
        write_marker_csv(tmp_path / "c.csv", n_docs=4)
        warnings = []
        prepared = prepare_corpus(self.spec(tmp_path), default_rules("es"), {}, warnings)
        assert prepared.pos_source == "fallback"
        assert any("fallback tagger" in w for w in warnings)
        assert all(doc.pos_tags for doc in documents_by_id(prepared).values())

    def test_sidecar_wins_over_fallback(self, tmp_path):
        docs = [
            LabeledDocument(Document("d0", "hola @amigo"), LabelSet(gender="Female")),
            LabeledDocument(Document("d1", "ver http://x.co"), LabelSet(gender="Male")),
        ]
        save_flat_csv(docs, tmp_path / "c.csv")
        (tmp_path / "c.csv.pos").write_text(
            "hola\tNN\n@amigo\tNN\n\nver\tVB\nhtt\tNN\n", encoding="utf-8")
        warnings = []
        prepared = prepare_corpus(self.spec(tmp_path), default_rules("es"), {}, warnings)
        assert prepared.pos_source == "sidecar"
        assert warnings == []
        # sidecar surfaces pass through normalization before relabeling, so
        # the raw handle still maps to the reference tag
        docs = documents_by_id(prepared)
        assert docs["d0"].pos_tags == ("N", "REF@USERNAME")
        assert docs["d1"].pos_tags == ("V", "REF#LINK")

    def test_gzipped_sidecar(self, tmp_path):
        write_marker_csv(tmp_path / "c.csv", n_docs=2)
        body = "\n\n".join("w\tNN" for _ in range(2)) + "\n"
        with gzip.open(tmp_path / "c.csv.pos.gz", "wt", encoding="utf-8") as fh:
            fh.write(body)
        prepared = prepare_corpus(self.spec(tmp_path), default_rules("es"), {}, [])
        assert prepared.pos_source == "sidecar"
        assert documents_by_id(prepared)["d0000"].pos_tags == ("N",)

    def test_sidecar_block_count_mismatch(self, tmp_path):
        write_marker_csv(tmp_path / "c.csv", n_docs=3)
        (tmp_path / "c.csv.pos").write_text("w\tNN\n\nw\tNN\n", encoding="utf-8")
        with pytest.raises(DataError, match="2 tagged documents but the corpus has 3"):
            prepare_corpus(self.spec(tmp_path), default_rules("es"), {}, [])

    def test_missing_corpus_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            prepare_corpus(self.spec(tmp_path), default_rules("es"), {}, [])

    def test_truth_dir_sidecars_per_author(self, tmp_path):
        corpus = tmp_path / "pan"
        save_pan_truth_dir(truth_dir_samples(4), str(corpus))
        (corpus / "author00.pos").write_text(
            "\n\n".join("hola\tNN" for _ in range(3)) + "\n", encoding="utf-8")
        warnings = []
        spec = CorpusSpec(format="PanTruthDir", path=str(corpus), language="es")
        prepared = prepare_corpus(spec, default_rules("es"), {}, warnings)
        assert prepared.pos_source == "mixed(1/4 sidecars)"
        assert any("only 1 of 4 authors" in w for w in warnings)

    def test_truth_dir_sidecar_block_count_mismatch(self, tmp_path):
        corpus = tmp_path / "pan"
        save_pan_truth_dir(truth_dir_samples(2), str(corpus))
        (corpus / "author01.pos").write_text("hola\tNN\n", encoding="utf-8")
        spec = CorpusSpec(format="PanTruthDir", path=str(corpus), language="es")
        with pytest.raises(DataError, match="1 tagged documents but author 'author01' has 3"):
            prepare_corpus(spec, default_rules("es"), {}, [])

    def test_truth_dir_documents_keep_other_line_separators(self, tmp_path):
        corpus = tmp_path / "pan"
        texts = [f"hola{sep}@amigo" for sep in LINE_BREAKERS[1:]]
        save_pan_truth_dir([Sample("a", [Document(f"a:{i}", t) for i, t in enumerate(texts)],
                                   LabelSet(gender="Male"))], str(corpus))
        (corpus / "a.pos").write_text("\n\n".join("hola\tNN\n@amigo\tNN" for _ in texts) + "\n",
                                      encoding="utf-8")
        spec = CorpusSpec(format="PanTruthDir", path=str(corpus), language="es")
        prepared = prepare_corpus(spec, default_rules("es"), {}, [])
        assert prepared.pos_source == "sidecar"
        assert [d.text for d in prepared.samples[0].documents] == \
            [normalize(t, default_rules("es")).text for t in texts]

    def test_text_normalized_in_documents(self, tmp_path):
        docs = [LabeledDocument(Document("d0", "ver http://x.co ya"),
                                LabelSet(gender="Female")),
                LabeledDocument(Document("d1", "hola"), LabelSet(gender="Male"))]
        save_flat_csv(docs, tmp_path / "c.csv")
        prepared = prepare_corpus(self.spec(tmp_path), default_rules("es"), {}, [])
        assert documents_by_id(prepared)["d0"].text == "ver htt ya"


def sample_view(samples) -> list:
    return [(s.id, s.labels, [(d.id, d.text, d.pos_tags) for d in s.documents]) for s in samples]


class TestPrepareMatchesReference:
    """One sidecar loop and grouping at preparation give what the
    two-branch form in `oracles` gives, for both layouts."""

    TEXTS = ("hola @amigo :)", "ver http://x.co ya!!!", "#finde con gente",
             "cosa 12 nueva", "@otra dice http://y.es", "bueno bueno ^^", "que tal ????")

    @staticmethod
    def write_sidecar(path, docs, suffix):
        tags = ("NCMS000", "VMIP3S0", "AQ0CS0", "SP")
        blocks = ["".join(f"{tok}\t{tags[(i + j) % 4]}\n" for j, tok in enumerate(doc.text.split()))
                  for i, doc in enumerate(docs)]
        opener = gzip.open if suffix.endswith(".gz") else open
        with opener(str(path) + suffix, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(blocks))

    def assert_same(self, spec, rules=None):
        rules = rules or default_rules("es")
        warnings, expected_warnings = [], []
        prepared = prepare_corpus(spec, rules, {"gente": "N", "dice": "V"}, warnings)
        expected = reference_prepare_corpus(spec, rules, {"gente": "N", "dice": "V"},
                                            expected_warnings)
        assert sample_view(as_samples(prepared)) == sample_view(reference_as_samples(expected))
        assert prepared.pos_source == expected.pos_source
        assert prepared.fingerprint == expected.fingerprint
        assert warnings == expected_warnings
        return prepared, expected

    @pytest.mark.parametrize("grouping_k", [None, 1, 3])
    @pytest.mark.parametrize("sidecar", [None, ".pos", ".pos.gz"])
    def test_flat_file(self, tmp_path, sidecar, grouping_k):
        genders = "FMMFFFMFMMMFFMF"
        docs = [LabeledDocument(Document(f"r{i:02d}", self.TEXTS[i % len(self.TEXTS)]),
                                LabelSet(gender="Female" if g == "F" else "Male"))
                for i, g in enumerate(genders)]
        save_flat_csv(docs, tmp_path / "c.csv")
        if sidecar:
            self.write_sidecar(tmp_path / "c.csv", [d.document for d in docs], sidecar)
        spec = CorpusSpec(format="FlatCsv", path=str(tmp_path / "c.csv"), language="es",
                          grouping_k=grouping_k)
        prepared, expected = self.assert_same(spec)
        assert prepared.pos_source == ("sidecar" if sidecar else "fallback")
        for k in range(1, 6):
            assert sample_view(as_samples(prepared, k)) == \
                sample_view(reference_as_samples(expected, k))

    @pytest.mark.parametrize("tagged", [(), (1, 3), (0, 1, 2, 3, 4)])
    def test_truth_dir(self, tmp_path, tagged):
        samples = truth_dir_samples(5)
        for i, sample in enumerate(samples):
            sample.documents = [Document(d.id, f"{d.text} {self.TEXTS[(i + j) % len(self.TEXTS)]}")
                                for j, d in enumerate(sample.documents)]
        save_pan_truth_dir(samples, str(tmp_path / "pan"))
        for i in tagged:
            self.write_sidecar(tmp_path / "pan" / samples[i].id, samples[i].documents,
                               ".pos.gz" if i % 2 else ".pos")
        spec = CorpusSpec(format="PanTruthDir", path=str(tmp_path / "pan"), language="es")
        prepared, _ = self.assert_same(spec)
        assert [s.id for s in prepared.samples] == [s.id for s in samples]
        assert prepared.pos_source == {0: "fallback", 5: "sidecar"}.get(
            len(tagged), f"mixed({len(tagged)}/5 sidecars)")

    def test_rules_file_reaches_sidecar_surfaces(self, tmp_path):
        docs = [LabeledDocument(Document(f"r{i}", f"cosa {i}1 @x"),
                                LabelSet(gender="Female" if i % 2 else "Male")) for i in range(4)]
        save_flat_csv(docs, tmp_path / "c.csv")
        self.write_sidecar(tmp_path / "c.csv", [d.document for d in docs], ".pos")
        (tmp_path / "my.rules").write_text("digits\t\\d+\tNUM\n", encoding="utf-8")
        spec = CorpusSpec(format="FlatCsv", path=str(tmp_path / "c.csv"), language="es")
        prepared, _ = self.assert_same(spec, rules=load_rules(tmp_path / "my.rules"))
        assert documents_by_id(prepared)["r1"].text == "cosa NUM @x"


class TestRunExperiment:
    def test_split_mode_gender(self, tmp_path):
        cfg = config_for(tmp_path, n_docs=60)
        result = run_experiment(cfg)
        assert result.mode == "split"
        out = result.outcome
        assert out.n_train == 42 and out.n_test == 18
        assert out.class_report is not None
        assert out.class_report.total == 18
        assert len(out.predictions) == 18
        assert result.provenance["vocab_sha256"] == out.bundle.vocab_hash
        assert result.provenance["n_train"] == "42"

    def test_provenance_keys(self, tmp_path):
        result = run_experiment(config_for(tmp_path, n_docs=40))
        expected = {"task", "config_sha256", "train_corpus_sha256", "train_pos_source",
                    "scaling", "min_df", "split_fraction", "split_seed", "train_seed",
                    "c_param", "epochs", "tolerance", "epsilon", "vocab_sha256",
                    "n_train", "n_test"}
        assert expected <= set(result.provenance)
        assert result.provenance["scaling"] == "linear,log2"

    def test_grouping_k_shrinks_sample_count(self, tmp_path):
        text = MINIMAL.replace("language = es", "language = es\ngrouping_k = 5")
        cfg = config_for(tmp_path, text=text, n_docs=60)
        result = run_experiment(cfg)
        # 30 docs per class in chunks of 5 -> 6 samples per class
        assert result.outcome.n_train + result.outcome.n_test == 12

    def test_cross_mode_uses_both_corpora_fully(self, tmp_path):
        text = MINIMAL + """
[test_corpus]
format = FlatCsv
path = test.csv
language = es
"""
        write_marker_csv(tmp_path / "train.csv", n_docs=40, seed=0)
        write_marker_csv(tmp_path / "test.csv", n_docs=10, seed=9)
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        assert result.mode == "cross"
        assert result.outcome.n_train == 40
        assert result.outcome.n_test == 10
        assert "test_corpus_sha256" in result.provenance

    def test_cross_mode_reads_rules_file_once(self, tmp_path, monkeypatch):
        text = MINIMAL.replace("task = gender", "task = gender\nrules = my.rules") + """
[test_corpus]
format = FlatCsv
path = test.csv
language = en
"""
        (tmp_path / "my.rules").write_text("digits\t\\d+\tNUM\n", encoding="utf-8")
        write_marker_csv(tmp_path / "train.csv", n_docs=20)
        write_marker_csv(tmp_path / "test.csv", n_docs=6, seed=2)
        loaded, prepared = [], []
        monkeypatch.setattr(experiment, "load_rules",
                            lambda path: loaded.append(path) or load_rules(path))
        monkeypatch.setattr(experiment, "prepare_corpus",
                            lambda spec, rules, *rest: prepared.append(rules) or
                            prepare_corpus(spec, rules, *rest))
        run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        assert loaded == [str(tmp_path / "my.rules")]
        assert len(prepared) == 2 and prepared[0] is prepared[1]

    def test_cross_mode_default_rules_follow_each_language(self, tmp_path, monkeypatch):
        text = MINIMAL + """
[test_corpus]
format = FlatCsv
path = test.csv
language = en
"""
        write_marker_csv(tmp_path / "train.csv", n_docs=20)
        write_marker_csv(tmp_path / "test.csv", n_docs=6, seed=2)
        languages = []
        monkeypatch.setattr(experiment, "default_rules",
                            lambda language: languages.append(language) or default_rules(language))
        run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        assert languages == ["es", "en"]

    def test_cross_language_mismatch_warns(self, tmp_path):
        text = MINIMAL + """
[test_corpus]
format = FlatCsv
path = test.csv
language = en
"""
        write_marker_csv(tmp_path / "train.csv", n_docs=20)
        write_marker_csv(tmp_path / "test.csv", n_docs=6, seed=2)
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        assert any("different languages" in w for w in result.warnings)

    def test_cross_mode_keeps_the_class_report_warnings(self, tmp_path):
        text = MINIMAL + """
[test_corpus]
format = FlatCsv
path = test.csv
language = es
"""
        write_marker_csv(tmp_path / "train.csv", n_docs=80)
        save_flat_csv([d for d in marker_corpus(20, seed=3) if d.labels.gender == "Female"],
                      tmp_path / "test.csv")
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        report_warnings = result.outcome.class_report.warnings
        assert any("class 'Male': no predictions" in w for w in report_warnings)
        assert any("class 'Male': no true samples" in w for w in report_warnings)
        lines = render_result(result).splitlines()
        for warning in report_warnings:
            assert f"warning\t{warning}" in lines

    def test_age_task_over_truth_dir(self, tmp_path):
        corpus = tmp_path / "pan"
        save_pan_truth_dir(truth_dir_samples(16), str(corpus))
        text = """\
[experiment]
task = age
min_df = 1

[train_corpus]
format = PanTruthDir
path = pan
language = es
"""
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        assert result.task == "age"
        report = result.outcome.class_report
        assert {s.label for s in report.per_class} == {"18-24", "25-34"}

    def test_traits_task_over_truth_dir(self, tmp_path):
        corpus = tmp_path / "pan"
        save_pan_truth_dir(truth_dir_samples(16), str(corpus))
        text = """\
[experiment]
task = traits
min_df = 1

[train_corpus]
format = PanTruthDir
path = pan
language = es
"""
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        rep = result.outcome.trait_report
        assert set(rep.per_trait) == set("ENACO")
        assert all(v >= 0.0 for v in rep.per_trait.values())
        sid, values = result.outcome.predictions[0]
        assert set(values) == set("ENACO")

    def test_missing_label_for_task(self, tmp_path):
        corpus = tmp_path / "pan"
        save_pan_truth_dir(truth_dir_samples(8, with_traits=False), str(corpus))
        text = """\
[experiment]
task = traits

[train_corpus]
format = PanTruthDir
path = pan
language = es
"""
        with pytest.raises(DataError, match="lacks a traits label"):
            run_experiment(parse_config_text(text, base_dir=str(tmp_path)))

    def test_train_full_missing_age_band(self, tmp_path):
        samples = truth_dir_samples(4)
        samples[2].labels.age_band = None
        save_pan_truth_dir(samples, str(tmp_path / "pan"))
        text = "[experiment]\ntask = age\n\n[train_corpus]\nformat = PanTruthDir\npath = pan\nlanguage = es\n"
        with pytest.raises(DataError, match="sample 'author02' lacks a age band label"):
            train_full(parse_config_text(text, base_dir=str(tmp_path)))

    @pytest.mark.parametrize("kind, labels, name", [
        ("binary", LabelSet(age_band="18-24"), "gender"),
        ("ovr", LabelSet(gender="Male"), "age band"),
        ("traits", LabelSet(gender="Male", age_band="18-24"), "traits"),
    ])
    def test_truth_rows_missing_label(self, kind, labels, name):
        samples = [Sample("s0", [Document("d", "x")], LabelSet(gender="Female", age_band="25-34",
                                                               traits=dict.fromkeys("ENACO", 0.1))),
                   Sample("s1", [Document("d", "x")], labels)]
        assert truth_rows(kind, samples[:1])[0][0] == "s0"
        with pytest.raises(DataError, match=f"sample 's1' lacks a {name} label"):
            truth_rows(kind, samples)

    @pytest.mark.parametrize("task", list(experiment.TASKS))
    def test_each_task_runs_the_tables_kind_and_label(self, task):
        kind, label, split_by = experiment.TASKS[task]
        samples = [Sample(f"s{i}", [Document(f"s{i}:0", f"w{i % 2} x{i}", ("N",))],
                          LabelSet(gender=("Female", "Male")[i % 2], age_band=AGE_BANDS[i % 2],
                                   traits=dict.fromkeys(TRAIT_NAMES, 0.2 * (i % 2) - 0.1)))
                   for i in range(6)]
        outcome = run_single(task, samples, samples, ScalingPolicy("linear", "linear"), 1, TrainConfig())
        assert outcome.bundle.kind == kind
        assert truth_rows(kind, samples) == [(s.id, getattr(s.labels, label)) for s in samples]
        assert split_by in ("gender", "age_band")

    def test_train_full_skips_split(self, tmp_path):
        cfg = config_for(tmp_path, n_docs=30)
        vocab, bundle, n_samples, warnings = train_full(cfg)
        assert n_samples == 30
        assert bundle.kind == "binary"
        assert bundle.vocab_hash == vocab.content_hash()
        assert any("fallback" in w for w in warnings)


class TestEpochCapWarning:
    CAPPED = MINIMAL + "\n[training]\nepochs = 1\ntolerance = 1e-12\n"
    WARNING = "1 of 1 submodels stopped at the epoch cap (1 epochs) before reaching tolerance 1e-12"

    def test_capped_training_warns(self, tmp_path):
        cfg = config_for(tmp_path, text=self.CAPPED, n_docs=40)
        result = run_experiment(cfg)
        assert self.WARNING in result.warnings
        assert f"warning\t{self.WARNING}\n" in render_result(result)
        assert self.WARNING in train_full(cfg)[3]

    def test_sweep_names_the_sample_size(self, tmp_path):
        write_marker_csv(tmp_path / "train.csv", n_docs=40, seed=1, marker_rate=0.3)
        text = self.CAPPED + "\n[sweep]\nk_values = 1, 2\n"
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        capped = [w for w in result.warnings if "epoch cap" in w]
        assert capped == [f"sample size {k}: {self.WARNING}" for k in (1, 2)]

    @pytest.mark.parametrize("task, heads", [("age", 3), ("traits", 5)])
    def test_every_head_counted(self, task, heads):
        samples = [Sample(f"s{i}", [Document(f"s{i}:0", f"w{i % 3} x{i}", ("N",))],
                          LabelSet(gender="Female", age_band=AGE_BANDS[i % 3],
                                   traits=dict.fromkeys(TRAIT_NAMES, 0.2 * (i % 3) - 0.2)))
                   for i in range(9)]
        outcome = run_single(task, samples, samples, ScalingPolicy("linear", "linear"), 1,
                             TrainConfig(epochs=1, tolerance=1e-12))
        assert outcome.warnings == [self.WARNING.replace("1 of 1", f"{heads} of {heads}")]

    def test_separable_two_points_do_not_warn(self):
        samples = [Sample("f", [Document("f0", "aaa aaa", ("N",))], LabelSet(gender="Female")),
                   Sample("m", [Document("m0", "zzz", ("V",))], LabelSet(gender="Male"))]
        outcome = run_single("gender", samples, samples, ScalingPolicy("linear", "linear"),
                             1, TrainConfig())
        assert outcome.bundle.model.converged
        assert outcome.warnings == []


def run_view(outcome):
    """What a run is judged by: its vocabulary, sample counts and scores."""
    return (outcome.bundle.vocab_hash, outcome.n_train, outcome.n_test, outcome.class_report)


class TestSweep:
    def run_sweep(self, tmp_path, k_text, text=MINIMAL):
        text += f"\n[sweep]\nk_values = {k_text}\n"
        write_marker_csv(tmp_path / "train.csv", n_docs=120, seed=1, marker_rate=0.3)
        return run_experiment(parse_config_text(text, base_dir=str(tmp_path)))

    def test_sweep_rows_shape(self, tmp_path):
        result = self.run_sweep(tmp_path, "1, 3")
        assert result.mode == "sweep"
        assert result.outcome is None
        assert [k for k, _ in result.sweep] == [1, 3]
        for _, out in result.sweep:
            assert 0.0 <= out.class_report.accuracy <= 1.0
            assert [scores.label for scores in out.class_report.per_class] == ["Female", "Male"]

    def test_rows_are_independent_sub_experiments(self, tmp_path):
        wide = self.run_sweep(tmp_path, "1, 3, 6")
        narrow = self.run_sweep(tmp_path, "3")
        (k_wide, pick), (k_narrow, single) = wide.sweep[1], narrow.sweep[0]
        assert k_wide == k_narrow == 3
        assert run_view(pick) == run_view(single)
        assert pick.predictions == single.predictions

    def test_larger_chunks_mean_fewer_samples(self, tmp_path):
        result = self.run_sweep(tmp_path, "1, 4")
        n = [out.n_train + out.n_test for _, out in result.sweep]
        assert n[0] == 120 and n[1] == 30

    def test_each_size_is_the_split_run_grouped_by_k(self, tmp_path):
        text = MINIMAL.replace("task = gender", "task = gender\nsplit_seed = 4")
        swept = self.run_sweep(tmp_path, "1, 3, 5", text)
        for k, out in swept.sweep:
            grouped = run_experiment(parse_config_text(
                text.replace("language = es", f"language = es\ngrouping_k = {k}"), base_dir=str(tmp_path)))
            assert run_view(out) == run_view(grouped.outcome), k


class TestResultFiles:
    def render(self, tmp_path, **kw):
        result = run_experiment(config_for(tmp_path, **kw))
        return result, render_result(result)

    def test_section_order(self, tmp_path):
        _, text = self.render(tmp_path, n_docs=40)
        lines = text.splitlines()
        assert lines[0] == "styloprof-result-v1"
        headers = [ln for ln in lines if ln.startswith("## ")]
        assert headers == ["## provenance", "## metrics", "## report",
                           "## config", "## timing"]

    def test_sweep_sections(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nk_values = 1\n"
        write_marker_csv(tmp_path / "train.csv", n_docs=40, seed=1, marker_rate=0.3)
        result = run_experiment(parse_config_text(text, base_dir=str(tmp_path)))
        headers = [ln for ln in render_result(result).splitlines() if ln.startswith("## ")]
        assert headers == ["## provenance", "## sweep", "## sweep_provenance",
                           "## config", "## timing"]

    def test_extract_config_is_inverse(self, tmp_path):
        result, text = self.render(tmp_path, n_docs=40)
        assert extract_config(text) == MINIMAL

    def test_extracted_config_reruns_identically(self, tmp_path):
        result, text = self.render(tmp_path, n_docs=40)
        again = run_experiment(parse_config_text(extract_config(text),
                                                 base_dir=str(tmp_path)))
        assert strip_timings(render_result(again)) == strip_timings(text)

    def test_strip_timings_removes_only_timing(self, tmp_path):
        _, text = self.render(tmp_path, n_docs=40)
        stripped = strip_timings(text)
        assert "## timing" not in stripped
        assert text.startswith(stripped)
        # the config block is the last thing left standing
        assert stripped.endswith("| language = es\n")

    def test_two_runs_identical_after_strip(self, tmp_path):
        _, first = self.render(tmp_path, n_docs=40)
        second = render_result(run_experiment(parse_config_text(
            MINIMAL, base_dir=str(tmp_path))))
        assert strip_timings(first) == strip_timings(second)

    def test_extract_config_requires_block(self):
        with pytest.raises(DataError, match="no config block"):
            extract_config("styloprof-result-v1\n## provenance\nmode\tsplit\n")

    def test_config_block_with_blank_lines(self, tmp_path):
        text_cfg = MINIMAL + "\n[training]\nepochs = 5\n"
        write_marker_csv(tmp_path / "train.csv", n_docs=20)
        result = run_experiment(parse_config_text(text_cfg, base_dir=str(tmp_path)))
        assert extract_config(render_result(result)) == text_cfg

    @given(st.lists(st.text(alphabet=LINE_BREAKERS + "ab =#|", max_size=12), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_config_round_trip_keeps_other_line_breaks(self, comments):
        """Only "\n" ends a config line: vertical tab, form feed, the
        file/group/record separators, NEL, CR and the Unicode line and
        paragraph separators in a comment come back unchanged, so the
        embedded config still hashes to its own `config_sha256`."""
        config = MINIMAL + "".join(f"# {comment}\n" for comment in comments)
        result = ExperimentResult(mode="split", task="gender", provenance={}, warnings=[],
                                  outcome=None, sweep=None, config_text=config, timings=[("total", 0.5)])
        extracted = extract_config(render_result(result))
        assert extracted == config
        assert hashlib.sha256(extracted.encode("utf-8")).digest() == \
            hashlib.sha256(config.encode("utf-8")).digest()

    def test_fingerprint_tracks_corpus_content(self, tmp_path):
        result1 = run_experiment(config_for(tmp_path, n_docs=20))
        fp1 = result1.provenance["train_corpus_sha256"]
        write_marker_csv(tmp_path / "train.csv", n_docs=20, seed=5)
        result2 = run_experiment(parse_config_text(MINIMAL, base_dir=str(tmp_path)))
        assert result2.provenance["train_corpus_sha256"] != fp1

        # a truth dir hashes only truth.txt and the files of the authors it names
        corpus = tmp_path / "pan"
        save_pan_truth_dir(truth_dir_samples(4), str(corpus))
        spec = CorpusSpec(format="PanTruthDir", path=str(corpus), language="es")
        fingerprint = lambda: prepare_corpus(spec, default_rules("es"), {}, []).fingerprint
        before = fingerprint()
        (corpus / "notes.txt").write_text("not a document\n", encoding="utf-8")
        assert fingerprint() == before
        with open(corpus / "author01.txt", "a", encoding="utf-8") as fh:
            fh.write("otra cosa\n")
        assert fingerprint() != before

    def test_fingerprint_independent_of_hash_seed(self, tmp_path):
        # the loaded paths are gathered in a set; the digest must not
        # depend on its iteration order
        (tmp_path / "truth.txt").write_text("x:::M:::XX\ny:::F:::XX\nz:::F:::XX\n", encoding="utf-8")
        for author, text in (("x", "hola"), ("y", "adios"), ("z", "buenas")):
            (tmp_path / f"{author}.txt").write_text(f"{text}\n", encoding="utf-8")
        script = ("import sys\n"
                  "from styloprof.corpus import CorpusSpec\n"
                  "from styloprof.experiment import prepare_corpus\n"
                  "from styloprof.normalize import default_rules\n"
                  "spec = CorpusSpec('PanTruthDir', sys.argv[1], 'es')\n"
                  "print(prepare_corpus(spec, default_rules('es'), {}, []).fingerprint)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                                  capture_output=True, text=True, timeout=60, check=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1
