"""Fuzzing of the file readers.

A saved vocabulary and saved binary, one-vs-rest and trait models are
mutated line by line (lines deleted, repeated, swapped or inserted, one
field or one space-separated word replaced).  Whatever the mutation,
`Vocabulary.load` and `load_model` either return an object or raise a
`StyloprofError`; nothing else escapes.  A loaded model holds only finite
numbers, anything loaded saves and loads back unchanged, and a
non-finite number in any bias or weight is rejected.

A rendered result file is mutated line by line as well: `extract_config`
either yields a config or raises a `DataError`.

The text readers (rule file, lexicon, POS sidecar, `truth.txt`, FlatCsv
and the prediction and truth files of `styloprof evaluate`) are mutated
byte by byte instead, as plain files, as gzip
files of the mutated bytes and as mutated gzip streams: bytes that are
not UTF-8 and broken gzip streams must also end as a `StyloprofError`.
"""

from __future__ import annotations

import dataclasses
import gzip

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from styloprof.cli import _read_label_rows, _read_trait_rows
from styloprof.corpus import TRAIT_NAMES, CorpusSpec, load_flat_csv, load_pan_truth_dir
from styloprof.errors import ConfigError, DataError, StyloprofError
from styloprof.experiment import extract_config, parse_config_text, render_result, run_experiment
from styloprof.features import (CHAR, POS, FeatureKey, ScalingPolicy, SparseMatrix,
                                Vocabulary)
from styloprof.learner import (ModelBundle, TrainConfig, load_model, save_model, train_binary,
                               train_ovr, train_traits)
from styloprof.normalize import load_rules
from styloprof.pos import ingest_tagged_file, load_lexicon
from styloprof.synthetic import write_marker_csv

TOKENS = ["nan", "NaN", "inf", "-inf", "1e999", "-1e999", "", "0", "-0.0", "1", "2.5", "-3",
          "i:3", "s:x", "i:x", "abc", "char", "pos", "bias", "weights", "dim", "=", "c_param=nan",
          "epochs=0", "tolerance=inf", "seed=1.5", "linear", "log2", "E", "␟", "\\", "\\q", "a␟b"]
NON_FINITE = ["nan", "inf", "-inf", "1e999", "-1e999", "NaN", "Infinity"]
KINDS = ("binary", "ovr", "traits")

token = st.one_of(st.sampled_from(TOKENS), st.text(alphabet="ab01.-=:␟\\\t ", max_size=6))
mutation = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("repeat"), st.integers(0, 50)),
    st.tuples(st.just("swap"), st.integers(0, 50), st.integers(0, 50)),
    st.tuples(st.just("insert"), st.integers(0, 50), token),
    st.tuples(st.just("field"), st.integers(0, 50), st.integers(0, 8), token),
    st.tuples(st.just("word"), st.integers(0, 50), st.integers(0, 8), st.integers(0, 50), token),
)


def mutate(lines: list[str], op) -> list[str]:
    lines = list(lines)
    if not lines:
        return [op[-1]] if op[0] == "insert" else lines
    i = op[1] % len(lines)
    if op[0] == "delete":
        del lines[i]
    elif op[0] == "repeat":
        lines.insert(i, lines[i])
    elif op[0] == "swap":
        j = op[2] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif op[0] == "insert":
        lines.insert(i, op[2])
    else:
        fields = lines[i].split("\t")
        k = op[2] % len(fields)
        if op[0] == "field":
            fields[k] = op[3]
        else:
            words = fields[k].split(" ")
            words[op[3] % len(words)] = op[4]
            fields[k] = " ".join(words)
        lines[i] = "\t".join(fields)
    return lines


def write(path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_or_reject(loader, path):
    """The loaded object, or None when the loader raised a StyloprofError;
    any other exception fails the test."""
    try:
        return loader(path)
    except StyloprofError:
        return None


def vectors(bundle: ModelBundle) -> list[tuple[float, np.ndarray]]:
    model = bundle.model
    if bundle.kind == "binary":
        return [(model.bias, model.weights)]
    if bundle.kind == "ovr":
        return [(m.bias, m.weights) for m in model.models]
    return [(model.biases[name], model.weights[name]) for name in TRAIT_NAMES]


def labels(bundle: ModelBundle):
    model = bundle.model
    if bundle.kind == "binary":
        return [model.label_positive, model.label_negative]
    return list(model.classes) if bundle.kind == "ovr" else []


def assert_same_bundle(a: ModelBundle, b: ModelBundle) -> None:
    assert (a.kind, a.vocab_hash, a.policy, a.config) == (b.kind, b.vocab_hash, b.policy, b.config)
    assert labels(a) == labels(b)
    assert [type(label) for label in labels(a)] == [type(label) for label in labels(b)]
    for (bias_a, w_a), (bias_b, w_b) in zip(vectors(a), vectors(b), strict=True):
        assert repr(bias_a) == repr(bias_b)
        assert w_a.tobytes() == w_b.tobytes()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Lines of a saved vocabulary and of one saved model per kind."""
    folder = tmp_path_factory.mktemp("saved")
    vocab = Vocabulary(keys=[FeatureKey(CHAR, ("\\",)), FeatureKey(CHAR, ("_", "a")),
                             FeatureKey(CHAR, ("b", "␟", "_")), FeatureKey(POS, ("N",)),
                             FeatureKey(POS, ("REF@USERNAME", "V"))], min_df=2)
    vocab.save(folder / "v.tsv")
    X = SparseMatrix.from_rows([{0: 1.0, 3: 2.0}, {1: 1.5}, {2: -1.0, 4: 0.5}, {0: 3.0, 4: 1.0},
                                {}, {1: 0.25, 2: 2.0}], len(vocab))
    cfg = TrainConfig(c_param=0.7, epochs=30, tolerance=1e-3, seed=4, epsilon=0.05)
    models = {
        "binary": train_binary(X, [1, -1, 1, -1, 1, -1], cfg, "Female", "Male"),
        "ovr": train_ovr(X, ["18-24", "25-34", 7, "18-24", 7, "25-34"], cfg),
        "traits": train_traits(X, [[0.1 * (r % 4) - 0.2] * 5 for r in range(6)], cfg),
    }
    lines = {"vocab": (folder / "v.tsv").read_text(encoding="utf-8").splitlines()}
    for kind, model in models.items():
        bundle = ModelBundle(kind=kind, vocab_hash=vocab.content_hash(),
                             policy=ScalingPolicy("linear", "log2"), config=cfg, model=model)
        save_model(bundle, folder / f"{kind}.model")
        lines[kind] = (folder / f"{kind}.model").read_text(encoding="utf-8").splitlines()
    return folder, lines


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(ops=st.lists(mutation, min_size=1, max_size=3))
@FUZZ
def test_mutated_vocabulary(saved, ops):
    folder, lines = saved
    text = lines["vocab"]
    for op in ops:
        text = mutate(text, op)
    write(folder / "mutated.tsv", text)
    vocab = load_or_reject(Vocabulary.load, folder / "mutated.tsv")
    if vocab is None:
        return
    vocab.save(folder / "again.tsv")
    again = Vocabulary.load(folder / "again.tsv")
    assert (again.keys, again.min_df) == (vocab.keys, vocab.min_df)
    assert again.content_hash() == vocab.content_hash()


@pytest.mark.parametrize("kind", KINDS)
@given(ops=st.lists(mutation, min_size=1, max_size=3))
@FUZZ
def test_mutated_model(saved, kind, ops):
    folder, lines = saved
    text = lines[kind]
    for op in ops:
        text = mutate(text, op)
    write(folder / "mutated.model", text)
    bundle = load_or_reject(load_model, folder / "mutated.model")
    if bundle is None:
        return
    for bias, weights in vectors(bundle):
        assert np.isfinite(bias) and np.all(np.isfinite(weights))
    save_model(bundle, folder / "again.model")
    assert_same_bundle(load_model(folder / "again.model"), bundle)


@pytest.mark.parametrize("kind", KINDS)
@given(line=st.integers(0, 50), word=st.integers(0, 50), bad=st.sampled_from(NON_FINITE))
@FUZZ
def test_non_finite_number_rejected(saved, kind, line, word, bad):
    folder, lines = saved
    numbered = [i for i, text in enumerate(lines[kind]) if text.split("\t")[0] in ("bias", "weights")]
    write(folder / "bad.model", mutate(lines[kind], ("word", numbered[line % len(numbered)], 1, word, bad)))
    with pytest.raises(DataError, match="non-finite"):
        load_model(folder / "bad.model")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tag, line, message", [
    ("weights", "weights\t0.5 0.5 0.5 0.5 0.5\tjunk", "needs 1 field"),
    ("dim", "dim\t0", "dimension must be >= 1"),
    ("dim", "dim\t-2", "dimension must be >= 1"),
], ids=["weights-extra-field", "dim-zero", "dim-negative"])
def test_malformed_line_rejected(saved, kind, tag, line, message):
    folder, lines = saved
    text = list(lines[kind])
    text[next(i for i, t in enumerate(text) if t.split("\t")[0] == tag)] = line
    write(folder / "bad.model", text)
    with pytest.raises(DataError, match=message):
        load_model(folder / "bad.model")


@pytest.mark.parametrize("kind", ("vocab",) + KINDS)
def test_unmutated_files_round_trip(saved, kind):
    folder, lines = saved
    write(folder / "plain", lines[kind])
    if kind == "vocab":
        vocab = Vocabulary.load(folder / "plain")
        vocab.save(folder / "again")
    else:
        save_model(load_model(folder / "plain"), folder / "again")
    assert (folder / "again").read_text(encoding="utf-8").splitlines() == lines[kind]


# ---------------------------------------------------------------------------
# byte-level fuzzing of the text readers

def _load_truth_dir(path):
    return load_pan_truth_dir(CorpusSpec(format="PanTruthDir", path=str(path.parent), language="es"))


def _load_csv(path):
    return load_flat_csv(CorpusSpec(format="FlatCsv", path=str(path), language="es"))


# reader -> (file name, valid contents, loader of that file)
READERS = {
    "rules": ("rules.tsv", "# rules\nurls\thttps?://\\S*\thtt\nmentions\t@\\w+\t@us\n", load_rules),
    "lexicon": ("lexicon.tsv", "# words\ncasa\tN\nes\tV\ngrande\tA\n", load_lexicon),
    "sidecar": ("doc.pos", "hola\tI\n@us\tNP\n\ncasa\tNC\n:)\tF\n", ingest_tagged_file),
    "truth": ("truth.txt", "a1:::F:::25-34:::0.1:::-0.2:::0.0:::0.5:::-0.5\na2:::M:::18-24\n",
              _load_truth_dir),
    "flatcsv": ("corpus.csv", 'id,gender,text\n1,F,"hola, señora"\n2,M,casa\n', _load_csv),
    "label-predictions": ("pred.tsv", "a1\tFemale\t0.25\na2\tMale\t-1.5e-3\n", _read_label_rows),
    "label-truth": ("truth.tsv", "a1\tFemale\na2\t25-34\n", _read_label_rows),
    "traits": ("traits.tsv", "a1\tE=0.1\tN=-0.2\tA=0.0\tC=0.5\tO=-0.5\n"
               "a2\tE=0.25\tN=0.1\tA=-0.3\tC=0.0\tO=0.2\n", _read_trait_rows),
}
AUTHOR_FILES = {"a1.txt": "hola gente\n", "a2.txt": "casa\n"}
WRAPS = ("plain", "gzip-of-mutated", "mutated-gzip")

byte_mutation = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 500), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 500), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 500), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.integers(0, 500)),
)


def mutate_bytes(data: bytes, op) -> bytes:
    if not data:
        return op[2] if op[0] == "insert" else data
    i = op[1] % len(data)
    if op[0] == "set":
        return data[:i] + bytes([op[2]]) + data[i + 1:]
    if op[0] == "insert":
        return data[:i] + op[2] + data[i:]
    if op[0] == "delete":
        return data[:i] + data[i + op[2]:]
    return data[:i]


def write_wrapped(folder, name: str, data: bytes, wrap: str, ops) -> object:
    """Write `data` under `name` (plain) or `name.gz`, removing the other,
    with `ops` applied to the text bytes or to the gzip stream."""
    for stale in (folder / name, folder / (name + ".gz")):
        stale.unlink(missing_ok=True)
    if wrap == "plain":
        for op in ops:
            data = mutate_bytes(data, op)
        path = folder / name
    else:
        if wrap == "gzip-of-mutated":
            for op in ops:
                data = mutate_bytes(data, op)
        data = gzip.compress(data, mtime=0)
        if wrap == "mutated-gzip":
            for op in ops:
                data = mutate_bytes(data, op)
        path = folder / (name + ".gz")
    path.write_bytes(data)
    return path


@pytest.fixture(scope="module")
def reader_dirs(tmp_path_factory):
    """One folder per reader, holding the author files `truth.txt` names."""
    dirs = {}
    for reader in READERS:
        dirs[reader] = tmp_path_factory.mktemp(reader)
        for name, text in AUTHOR_FILES.items():
            (dirs[reader] / name).write_text(text, encoding="utf-8")
    return dirs


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("wrap", WRAPS)
@given(ops=st.lists(byte_mutation, min_size=1, max_size=3))
@FUZZ
def test_mutated_bytes(reader_dirs, reader, wrap, ops):
    name, text, loader = READERS[reader]
    path = write_wrapped(reader_dirs[reader], name, text.encode("utf-8"), wrap, ops)
    load_or_reject(loader, path)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("wrap", WRAPS)
def test_unmutated_bytes_load(reader_dirs, reader, wrap):
    name, text, loader = READERS[reader]
    assert loader(write_wrapped(reader_dirs[reader], name, text.encode("utf-8"), wrap, []))


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("wrap, op, message", [
    ("plain", ("insert", 12, b"\xff"), "not UTF-8 text"),
    ("gzip-of-mutated", ("insert", 12, b"\xc3("), "not UTF-8 text"),
    ("mutated-gzip", ("truncate", 25), "corrupt gzip stream"),
    ("mutated-gzip", ("set", 0, 0), "corrupt gzip stream"),
], ids=["bad-byte", "gzipped-bad-byte", "truncated-gzip", "bad-gzip-magic"])
def test_bad_bytes_name_the_file(reader_dirs, reader, wrap, op, message):
    name, text, loader = READERS[reader]
    path = write_wrapped(reader_dirs[reader], name, text.encode("utf-8"), wrap, [op])
    with pytest.raises(DataError, match=message) as info:
        loader(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# line-level fuzzing of the `styloprof evaluate` readers: whatever they
# accept has the documented shape

EVALUATE_FILES = {name: READERS[name] for name in ("label-predictions", "label-truth", "traits")}


@pytest.mark.parametrize("reader", EVALUATE_FILES)
@given(ops=st.lists(mutation, min_size=1, max_size=3))
@FUZZ
def test_mutated_evaluate_rows(tmp_path_factory, reader, ops):
    name, text, loader = EVALUATE_FILES[reader]
    lines = text.splitlines()
    for op in ops:
        lines = mutate(lines, op)
    path = tmp_path_factory.mktemp(reader) / name
    write(path, lines)
    rows = load_or_reject(loader, path)
    if rows is None:
        return
    kept = [line.split("\t") for line in lines if line.strip()]
    assert [row[0] for row in rows] == [fields[0] for fields in kept]
    for fields, (sid, value) in zip(kept, rows):
        if reader == "traits":
            assert sorted(value) == sorted(TRAIT_NAMES)
            assert all(np.isfinite(v) for v in value.values())
        else:
            assert len(fields) in (2, 3) and value == fields[1] != ""
            assert len(fields) == 2 or np.isfinite(float(fields[2]))


@pytest.mark.parametrize("line, message", [
    ("a\tF\tnan", "non-finite margin 'nan'"),
    ("a\tF\t-inf", "non-finite margin '-inf'"),
    ("a\tF\t1e999", "non-finite margin '1e999'"),
    ("a\tF\tx", "unparsable margin 'x'"),
    ("a\tF\t", "unparsable margin ''"),
    ("a\tF\t1\tx", "expected `sample_id<TAB>label"),
    ("a", "expected `sample_id<TAB>label"),
    ("a\t", "expected `sample_id<TAB>label"),
])
def test_malformed_label_row_rejected(tmp_path, line, message):
    write(tmp_path / "pred.tsv", ["b\tM\t0.5", line])
    with pytest.raises(DataError, match=message) as info:
        _read_label_rows(tmp_path / "pred.tsv")
    assert f"{tmp_path / 'pred.tsv'}:2:" in str(info.value)


# lines that move the config block of a result file: section headers and
# config lines, well formed or not
RESULT_TOKENS = ["## config", "## timing", "## metrics", "|", "| ", "|x", "| [experiment]",
                 "| task = age", "| [sweep]", "| k_values = 0", "#", " | x", "## config "]
result_mutation = st.one_of(
    mutation,
    st.tuples(st.just("insert"), st.integers(0, 50), st.sampled_from(RESULT_TOKENS)),
    st.tuples(st.just("field"), st.integers(0, 50), st.integers(0, 8), st.sampled_from(RESULT_TOKENS)),
)


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    """A rendered result file of a small split experiment, as lines."""
    folder = tmp_path_factory.mktemp("result")
    write_marker_csv(folder / "train.csv", n_docs=20)
    config = ("# a comment\n[experiment]\ntask = gender\nmin_df = 1\n\n"
              "[train_corpus]\nformat = FlatCsv\npath = train.csv\nlanguage = es\n")
    result = run_experiment(parse_config_text(config, base_dir=str(folder)))
    return result, render_result(result).splitlines()


@given(ops=st.lists(result_mutation, min_size=1, max_size=3))
@FUZZ
def test_mutated_result_file(result_file, ops):
    """A mutated result file yields a config or raises `DataError`; a
    yielded config embeds and extracts back unchanged, and parses or
    raises `ConfigError`."""
    result, lines = result_file
    for op in ops:
        lines = mutate(lines, op)
    try:
        config = extract_config("".join(line + "\n" for line in lines))
    except DataError:
        return
    assert config.endswith("\n")
    assert extract_config(render_result(dataclasses.replace(result, config_text=config))) == config
    try:
        parse_config_text(config)
    except ConfigError:
        pass
