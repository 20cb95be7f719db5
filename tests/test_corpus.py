"""Corpus layouts, label parsing, grouping protocol, stratified splits."""

import gzip
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styloprof.corpus import (
    AGE_BANDS,
    GENDERS,
    TRAIT_NAMES,
    CorpusSpec,
    Document,
    LabelSet,
    LabeledDocument,
    Sample,
    group_into_samples,
    key_values,
    load_flat_csv,
    load_pan_truth_dir,
    open_text,
    parse_age_band,
    parse_gender,
    read_lines,
    render_age_band,
    save_flat_csv,
    save_pan_truth_dir,
    split_lines,
    stratified_split,
    write_lines,
)
from styloprof.errors import ConfigError, DataError

genders = st.sampled_from(GENDERS)
bands = st.sampled_from(AGE_BANDS)
trait_values = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
doc_texts = st.text(alphabet="abc ñ@#:,.!", max_size=40)
line_texts = doc_texts.filter(lambda t: "\n" not in t and "\r" not in t)
author_ids = st.from_regex(r"[a-z][a-z0-9]{1,8}", fullmatch=True)
# every character but "\n" and "\r" that `str.splitlines` breaks a line on
OTHER_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def pan_samples_strategy(draw):
    ids = draw(st.lists(author_ids, min_size=1, max_size=5, unique=True))
    with_traits = draw(st.booleans())
    samples = []
    for author_id in ids:
        traits = None
        if with_traits:
            traits = {t: draw(trait_values) for t in TRAIT_NAMES}
        labels = LabelSet(
            gender=draw(genders),
            age_band=draw(st.one_of(st.none(), bands)),
            traits=traits,
        )
        texts = draw(st.lists(line_texts, min_size=1, max_size=4))
        docs = [Document(id=f"{author_id}:{i}", text=t) for i, t in enumerate(texts)]
        samples.append(Sample(id=author_id, documents=docs, labels=labels))
    return samples


class TestLabelParsing:
    @pytest.mark.parametrize("token,expected", [
        ("F", "Female"), ("f", "Female"), ("FEMALE", "Female"), ("female", "Female"),
        ("M", "Male"), ("male", "Male"), (" M ", "Male"),
    ])
    def test_parse_gender(self, token, expected):
        assert parse_gender(token) == expected

    def test_parse_gender_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_gender("B")

    @pytest.mark.parametrize("token,expected", [
        ("18-24", "18-24"), ("25-34", "25-34"), ("35-49", "35-49"),
        ("50-XX", "50-XX"), (">50", "50-XX"), ("50+", "50-XX"),
        ("XX", None), ("xx-xx", None),
    ])
    def test_parse_age_band(self, token, expected):
        assert parse_age_band(token) == expected

    def test_parse_age_band_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_age_band("20-30")

    def test_render_age_band(self):
        assert render_age_band("50-XX") == ">50"
        assert render_age_band("18-24") == "18-24"

    def test_trait_bounds_enforced(self):
        with pytest.raises(DataError):
            LabelSet(gender="Female", traits={t: 0.7 for t in TRAIT_NAMES})

    def test_unknown_trait_name_rejected(self):
        with pytest.raises(DataError):
            LabelSet(gender="Female", traits={"X": 0.1})


class TestDomainTypes:
    def test_document_rejects_empty_pos_tags(self):
        assert Document(id="d1", text="").text == ""
        with pytest.raises(DataError):
            Document(id="d1", text="x", pos_tags=("N", ""))

    def test_label_set_needs_some_label(self):
        with pytest.raises(DataError):
            LabelSet()

    def test_sample_requires_documents(self):
        with pytest.raises(DataError):
            Sample(id="s", documents=[], labels=LabelSet(gender="Male"))

    def test_corpus_spec_validation(self):
        with pytest.raises(ConfigError):
            CorpusSpec(format="Weird", path="x", language="es")
        with pytest.raises(ConfigError):
            CorpusSpec(format="FlatCsv", path="x", language="zz")
        with pytest.raises(ConfigError):
            CorpusSpec(format="FlatCsv", path="x", language="es", grouping_k=0)
        for delimiter in (";;", ""):
            with pytest.raises(ConfigError, match="delimiter must be a single character"):
                CorpusSpec(format="FlatCsv", path="x", language="es", delimiter=delimiter)


class TestPanTruthDir:
    def spec(self, path):
        return CorpusSpec(format="PanTruthDir", path=str(path), language="es")

    def write_minimal(self, root, truth_lines, author_docs):
        root.mkdir(exist_ok=True)
        (root / "truth.txt").write_text("".join(l + "\n" for l in truth_lines), encoding="utf-8")
        for author_id, lines in author_docs.items():
            (root / f"{author_id}.txt").write_text("".join(l + "\n" for l in lines), encoding="utf-8")

    def test_basic_load(self, tmp_path):
        self.write_minimal(
            tmp_path,
            ["pepe:::M:::25-34", "ana:::F:::XX:::0.1:::-0.2:::0.0:::0.5:::-0.5"],
            {"pepe": ["hola", "adios"], "ana": ["buenas"]},
        )
        samples = load_pan_truth_dir(self.spec(tmp_path))
        assert [s.id for s in samples] == ["pepe", "ana"]
        pepe, ana = samples
        assert pepe.labels.gender == "Male"
        assert pepe.labels.age_band == "25-34"
        assert pepe.labels.traits is None
        assert [d.text for d in pepe.documents] == ["hola", "adios"]
        assert [d.id for d in pepe.documents] == ["pepe:0", "pepe:1"]
        assert ana.labels.traits == {"E": 0.1, "N": -0.2, "A": 0.0, "C": 0.5, "O": -0.5}

    @given(samples=pan_samples_strategy())
    @settings(max_examples=60)
    def test_round_trip(self, samples, tmp_path_factory):
        root = tmp_path_factory.mktemp("pan")
        save_pan_truth_dir(samples, str(root))
        loaded = load_pan_truth_dir(self.spec(root))
        assert loaded == samples

    @pytest.mark.parametrize("sep", OTHER_SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
    def test_round_trip_keeps_other_line_separators(self, tmp_path, sep):
        docs = [Document("a:0", f"uno{sep}dos"), Document("a:1", f"{sep}tres{sep}")]
        samples = [Sample(id="a", documents=docs, labels=LabelSet(gender="Female"))]
        save_pan_truth_dir(samples, str(tmp_path))
        assert load_pan_truth_dir(self.spec(tmp_path)) == samples

    def test_gzip_members(self, tmp_path):
        with gzip.open(tmp_path / "truth.txt.gz", "wt", encoding="utf-8") as fh:
            fh.write("pepe:::M:::XX\n")
        with gzip.open(tmp_path / "pepe.txt.gz", "wt", encoding="utf-8") as fh:
            fh.write("hola\n")
        samples = load_pan_truth_dir(self.spec(tmp_path))
        assert samples[0].documents[0].text == "hola"

    def test_missing_truth_file(self, tmp_path):
        with pytest.raises(DataError, match="truth.txt"):
            load_pan_truth_dir(self.spec(tmp_path))

    def test_missing_author_file(self, tmp_path):
        self.write_minimal(tmp_path, ["pepe:::M:::XX"], {})
        with pytest.raises(DataError, match="pepe"):
            load_pan_truth_dir(self.spec(tmp_path))

    def test_empty_author_file(self, tmp_path):
        self.write_minimal(tmp_path, ["pepe:::M:::XX"], {"pepe": []})
        with pytest.raises(DataError, match="empty"):
            load_pan_truth_dir(self.spec(tmp_path))

    @pytest.mark.parametrize("line,fragment", [
        ("pepe:::M", "3 or 8"),
        ("pepe:::Q:::XX", "gender"),
        ("pepe:::M:::21-30", "age band"),
        (":::M:::XX", "empty author id"),
        ("../pepe:::M:::XX", "path separator"),
        ("sub/pepe:::M:::XX", "path separator"),
        ("pe\x00pe:::M:::XX", "path separator"),
        ("pe\tpe:::M:::XX", "author id 'pe\\\\tpe' holds a path separator, NUL or a tab"),
        ("pepe:::M:::XX:::a:::0:::0:::0:::0", "E trait"),
        ("pepe:::M:::XX:::0.9:::0:::0:::0:::0", "outside"),
        ("pepe:::M:::XX:::0:::0:::0.7:::0:::0", r"truth.txt:1: trait A = 0.7 outside \[-0.5, 0.5\]"),
        ("pepe:::M:::XX:::0:::nan:::0:::0:::0", r"truth.txt:1: trait N = nan outside"),
    ])
    def test_bad_truth_lines(self, tmp_path, line, fragment):
        self.write_minimal(tmp_path, [line], {"pepe": ["hola"]})
        with pytest.raises(DataError, match=fragment):
            load_pan_truth_dir(self.spec(tmp_path))

    def test_repeated_author_rejected(self, tmp_path):
        self.write_minimal(tmp_path, ["a1:::F:::XX", "a2:::M:::XX", "a1:::M:::XX"],
                           {"a1": ["hola"], "a2": ["casa"]})
        with pytest.raises(DataError, match=r":3: author 'a1' already listed on line 1"):
            load_pan_truth_dir(self.spec(tmp_path))

    def test_error_carries_line_number(self, tmp_path):
        self.write_minimal(
            tmp_path, ["pepe:::M:::XX", "ana:::F"], {"pepe": ["x"], "ana": ["y"]}
        )
        with pytest.raises(DataError, match=":2:"):
            load_pan_truth_dir(self.spec(tmp_path))

    def test_save_rejects_newlines(self, tmp_path):
        sample = Sample(
            id="a",
            documents=[Document(id="a:0", text="two\nlines")],
            labels=LabelSet(gender="Male"),
        )
        with pytest.raises(DataError, match="newline"):
            save_pan_truth_dir([sample], str(tmp_path / "out"))

    @pytest.mark.parametrize("bad_id", ["", "a:::b", "a\nb", "a\r", " a", "a\t",
                                        "../esc", "sub/x", "a\x00b", "au\tthor0"])
    def test_save_rejects_ids_it_cannot_read_back(self, tmp_path, bad_id):
        good = Sample(id="good", documents=[Document("good:0", "hola")], labels=LabelSet(gender="Male"))
        bad = Sample(id=bad_id, documents=[Document(f"{bad_id}:0", "hola")], labels=LabelSet(gender="Male"))
        out = tmp_path / "out"
        with pytest.raises(DataError, match="sample id"):
            save_pan_truth_dir([good, bad], str(out))
        assert list(tmp_path.iterdir()) == []

    def test_id_with_other_line_separator_round_trips(self, tmp_path):
        samples = [Sample(id="a\x85b", documents=[Document("a\x85b:0", "hola")],
                          labels=LabelSet(gender="Female"))]
        save_pan_truth_dir(samples, str(tmp_path))
        assert load_pan_truth_dir(self.spec(tmp_path)) == samples


class TestFlatCsv:
    def spec(self, path, **kw):
        return CorpusSpec(format="FlatCsv", path=str(path), language="es", **kw)

    def test_basic_load(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('id,gender,text\nd1,F,"hola, que tal"\nd2,M,adios\n', encoding="utf-8")
        docs = load_flat_csv(self.spec(path))
        assert [(d.document.id, d.labels.gender, d.document.text) for d in docs] == [
            ("d1", "Female", "hola, que tal"),
            ("d2", "Male", "adios"),
        ]

    def test_column_order_free(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("text,id,gender\nhola,d1,F\n", encoding="utf-8")
        docs = load_flat_csv(self.spec(path))
        assert docs[0].document.id == "d1"
        assert docs[0].document.text == "hola"

    @given(rows=st.lists(
        st.tuples(st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True), genders, doc_texts),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=60)
    def test_round_trip(self, rows, tmp_path_factory):
        docs = [
            LabeledDocument(document=Document(id=f"{i}-{rid}", text=text),
                            labels=LabelSet(gender=g))
            for i, (rid, g, text) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        save_flat_csv(docs, str(path))
        assert load_flat_csv(self.spec(path)) == docs

    def test_round_trip_newlines_in_text(self, tmp_path):
        docs = [LabeledDocument(document=Document(id="d", text="two\nlines"),
                                labels=LabelSet(gender="Female"))]
        path = tmp_path / "c.csv"
        save_flat_csv(docs, str(path))
        assert load_flat_csv(self.spec(path))[0].document.text == "two\nlines"

    def test_gzip_round_trip(self, tmp_path):
        docs = [LabeledDocument(document=Document(id="d", text="hola"),
                                labels=LabelSet(gender="Male"))]
        path = tmp_path / "c.csv.gz"
        save_flat_csv(docs, str(path))
        assert load_flat_csv(self.spec(path)) == docs

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("id\tgender\ttext\nd1\tF\thola, amigo\n", encoding="utf-8")
        docs = load_flat_csv(self.spec(path, delimiter="\t"))
        assert docs[0].document.text == "hola, amigo"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,text\nd1,hola\n", encoding="utf-8")
        with pytest.raises(DataError, match="gender"):
            load_flat_csv(self.spec(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_flat_csv(self.spec(path))

    def test_bad_row_reports_row_number(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,gender,text\nd1,F,ok\nd2,Q,bad\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3"):
            load_flat_csv(self.spec(path))

    def test_empty_gender_cell(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,gender,text\nd1,,hola\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty gender"):
            load_flat_csv(self.spec(path))


def make_docs(class_sizes: dict[str, int]) -> list[LabeledDocument]:
    docs = []
    for gender, size in class_sizes.items():
        for i in range(size):
            docs.append(LabeledDocument(
                document=Document(id=f"{gender}{i}", text=f"texto {i}"),
                labels=LabelSet(gender=gender),
            ))
    return docs


class TestGrouping:
    def test_printed_count_2573_3406_at_50(self):
        docs = make_docs({"Female": 2573, "Male": 3406})
        samples = group_into_samples(docs, 50)
        assert len(samples) == 121  # 52 + 69

    def test_chunks_and_residual(self):
        docs = make_docs({"Female": 7})
        samples = group_into_samples(docs, 3)
        assert [len(s.documents) for s in samples] == [3, 3, 1]
        assert [s.id for s in samples] == ["F#0", "F#1", "F#2"]

    def test_no_label_mixing_and_size_conservation(self):
        docs = make_docs({"Female": 23, "Male": 17})
        samples = group_into_samples(docs, 5)
        assert sum(len(s.documents) for s in samples) == 40
        for s in samples:
            prefix = s.labels.gender[0]
            assert all(d.id.startswith(s.labels.gender) for d in s.documents)
            assert s.id.startswith(prefix)

    def test_k_one_yields_one_sample_per_document(self):
        docs = make_docs({"Female": 4, "Male": 3})
        assert len(group_into_samples(docs, 1)) == 7

    def test_k_larger_than_class(self):
        docs = make_docs({"Female": 4, "Male": 3})
        samples = group_into_samples(docs, 100)
        assert sorted(len(s.documents) for s in samples) == [3, 4]

    def test_exact_multiple_leaves_no_residual(self):
        docs = make_docs({"Female": 6})
        assert [len(s.documents) for s in group_into_samples(docs, 3)] == [3, 3]

    def test_input_order_preserved_within_class(self):
        docs = make_docs({"Female": 5})
        samples = group_into_samples(docs, 2)
        flattened = [d.id for s in samples for d in s.documents]
        assert flattened == [d.document.id for d in docs]

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            group_into_samples(make_docs({"Female": 2}), 0)
        with pytest.raises(DataError):
            group_into_samples([], 5)

    @given(st.integers(1, 9), st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=200)
    def test_sample_count_formula(self, k, n_f, n_m):
        if n_f + n_m == 0:
            return
        docs = make_docs({"Female": n_f, "Male": n_m})
        samples = group_into_samples(docs, k)
        expected = math.ceil(n_f / k) + math.ceil(n_m / k)
        assert len(samples) == expected


def make_samples(class_sizes: dict[str, int]) -> list[Sample]:
    grouped = group_into_samples(make_docs(class_sizes), 1)
    return grouped


class TestStratifiedSplit:
    def test_floor_rule_ten_samples(self):
        samples = make_samples({"Female": 5, "Male": 5})
        for seed in range(10):
            train, test = stratified_split(samples, 0.7, seed)
            assert len(train) == 6 and len(test) == 4
            by_gender = lambda group, g: sum(1 for s in group if s.labels.gender == g)
            assert by_gender(train, "Female") == 3
            assert by_gender(train, "Male") == 3

    def test_hundred_samples_even(self):
        samples = make_samples({"Female": 50, "Male": 50})
        train, test = stratified_split(samples, 0.7, 1)
        assert len(train) == 70 and len(test) == 30

    def test_decimal_fraction_is_exact(self):
        # 0.29 is not exactly representable in binary; the split must
        # still put floor(29) = 29 of 100 in train, not 28
        samples = make_samples({"Female": 100})
        train, _ = stratified_split(samples, 0.29, 0)
        assert len(train) == 29

    def test_deterministic(self):
        samples = make_samples({"Female": 9, "Male": 11})
        first = stratified_split(samples, 0.7, 42)
        second = stratified_split(samples, 0.7, 42)
        assert first == second

    def test_seed_changes_partition(self):
        samples = make_samples({"Female": 20, "Male": 20})
        a, _ = stratified_split(samples, 0.5, 0)
        b, _ = stratified_split(samples, 0.5, 1)
        assert [s.id for s in a] != [s.id for s in b]

    def test_min_one_training_sample(self):
        samples = make_samples({"Female": 2, "Male": 2})
        train, _ = stratified_split(samples, 0.1, 3)
        assert sum(1 for s in train if s.labels.gender == "Female") == 1
        assert sum(1 for s in train if s.labels.gender == "Male") == 1

    def test_singleton_class_stays_in_test(self):
        samples = make_samples({"Female": 1, "Male": 4})
        train, test = stratified_split(samples, 0.5, 0)
        assert all(s.labels.gender == "Male" for s in train)
        assert any(s.labels.gender == "Female" for s in test)

    def test_partition_is_exact(self):
        samples = make_samples({"Female": 13, "Male": 8})
        train, test = stratified_split(samples, 0.6, 5)
        ids = sorted(s.id for s in train) + sorted(s.id for s in test)
        assert sorted(ids) == sorted(s.id for s in samples)

    def test_output_keeps_input_order(self):
        samples = make_samples({"Female": 6, "Male": 6})
        train, test = stratified_split(samples, 0.5, 7)
        order = {s.id: i for i, s in enumerate(samples)}
        assert [order[s.id] for s in train] == sorted(order[s.id] for s in train)
        assert [order[s.id] for s in test] == sorted(order[s.id] for s in test)

    def test_stratify_by_age_band(self):
        samples = []
        for band, count in (("18-24", 4), ("25-34", 6)):
            for i in range(count):
                samples.append(Sample(
                    id=f"{band}-{i}",
                    documents=[Document(id=f"{band}-{i}:0", text="x")],
                    labels=LabelSet(gender="Female", age_band=band),
                ))
        train, _ = stratified_split(samples, 0.5, 1, key="age_band")
        assert sum(1 for s in train if s.labels.age_band == "18-24") == 2
        assert sum(1 for s in train if s.labels.age_band == "25-34") == 3

    def test_missing_stratification_label(self):
        samples = [Sample(id="a", documents=[Document(id="a:0", text="x")],
                          labels=LabelSet(gender="Female"))]
        with pytest.raises(DataError):
            stratified_split(samples, 0.5, 0, key="age_band")

    def test_bad_fraction(self):
        samples = make_samples({"Female": 4})
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                stratified_split(samples, frac, 0)

    @given(
        st.integers(2, 40), st.integers(2, 40),
        st.sampled_from([0.3, 0.5, 0.7, 0.29, 0.8]),
        st.integers(0, 1000),
    )
    @settings(max_examples=200)
    def test_proportion_deviation_bound(self, n_f, n_m, frac, seed):
        samples = make_samples({"Female": n_f, "Male": n_m})
        train, _ = stratified_split(samples, frac, seed)
        for gender, n in (("Female", n_f), ("Male", n_m)):
            got = sum(1 for s in train if s.labels.gender == gender)
            assert abs(got / n - frac) < 1.0 / n + 1e-12
            assert got == max(1, math.floor(Fraction(str(frac)) * n))


class TestOpenText:
    def test_plain_and_gzip(self, tmp_path):
        plain = tmp_path / "a.txt"
        plain.write_text("hola\n", encoding="utf-8")
        with open_text(plain) as fh:
            assert fh.read() == "hola\n"
        gz = tmp_path / "a.txt.gz"
        with open_text(gz, "wt") as fh:
            fh.write("adios\n")
        with gzip.open(gz, "rt", encoding="utf-8") as fh:
            assert fh.read() == "adios\n"


class TestLines:
    def test_split_on_newline_only(self):
        assert split_lines("") == []
        assert split_lines("a") == ["a"]
        assert split_lines("a\n") == ["a"]
        assert split_lines("a\n\nb\n\n") == ["a", "", "b", ""]
        assert split_lines(f"a{OTHER_SEPARATORS}b\nc") == [f"a{OTHER_SEPARATORS}b", "c"]

    @pytest.mark.parametrize("name", ["a.txt", "a.txt.gz"])
    def test_write_then_read(self, tmp_path, name):
        lines = ["uno", "", f"dos{OTHER_SEPARATORS}tres"]
        write_lines(tmp_path / name, lines)
        assert read_lines(tmp_path / name) == lines
        with open_text(tmp_path / name, newline="") as fh:
            assert fh.read() == "uno\n\n" + f"dos{OTHER_SEPARATORS}tres\n"

    def test_carriage_returns_read_as_newlines(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"uno\r\ndos\rtres\n")
        assert read_lines(tmp_path / "a.txt") == ["uno", "dos", "tres"]

    def test_key_values_exactly_the_written_keys(self):
        assert key_values(["a=1", "b=x=y", "c="], ("a", "b", "c")) == ["1", "x=y", ""]
        for fields in (["b=2", "a=1"], ["a=1"], ["a=1", "b=2", "a=3"], ["a=1", "b=2", "z=0"],
                       ["a=1", "b"], ["a=1", "B=2"]):
            with pytest.raises(DataError, match="in that order"):
                key_values(fields, ("a", "b"))
