"""Golden model files: a binary, a one-vs-rest and a trait model trained
by `styloprof train` on seeded corpora, with the sha256 of each saved
model file and of the `styloprof predict` output on the training corpus
pinned.

Every feature value is an integer count (linear scaling on both
channels) and every corpus is a few long samples, so training takes the
Gram form (n^2 <= nnz): its products and sums of integers are exact, and
the solver's steps are element-wise, so the pinned bytes do not depend
on the BLAS build or the CPU's summation order.
"""

import hashlib
import random

import pytest

from styloprof.cli import main
from styloprof.corpus import AGE_BANDS, TRAIT_NAMES, Document, LabelSet, Sample, save_pan_truth_dir
from styloprof.synthetic import write_marker_csv

CONFIG = """\
[experiment]
task = {task}
min_df = 1
scaling = linear,linear

[train_corpus]
format = {format}
path = {path}
language = es
{grouping}
[training]
epochs = 40
seed = 7
"""


def write_pan(root, authors=12, tweets=6, seed=19):
    rng = random.Random(seed)
    syllables = ["ka", "lo", "mi", "ter", "sun", "bra", "que", "ño", "vel", "dri"]
    words = ["".join(rng.choice(syllables) for _ in range(rng.randint(1, 3))) for _ in range(120)]
    samples = []
    for a in range(authors):
        band = AGE_BANDS[a % 3]
        marker = {"18-24": ":)", "25-34": "!!!", "35-49": "@amigo"}[band]
        documents = [Document(id=f"u{a}:{t}",
                              text=" ".join([marker] + [rng.choice(words) for _ in range(rng.randint(6, 12))]))
                     for t in range(tweets)]
        traits = {name: round(rng.uniform(-0.5, 0.5), 2) for name in TRAIT_NAMES}
        samples.append(Sample(id=f"u{a:02d}", documents=documents,
                              labels=LabelSet(gender=("Female", "Male")[a % 2], age_band=band,
                                              traits=traits)))
    save_pan_truth_dir(samples, str(root))


CASES = {
    "binary": ("gender", "FlatCsv", "train.csv", "grouping_k = 4\n",
               "35f1e9c8e7d32c65174bdbc6104b4ac693641eb91d25807bfe567ed25494c4d1",
               "e8d05b3ad93ccf9c9a928662e6d527e5639f21be32e5754369cb080dffd5a8c9"),
    "ovr": ("age", "PanTruthDir", "pan", "",
            "b524a6da523097c9734da01d068ddbdb8c54e858765455174263c3bc19d776b8",
            "7253c9f8bfeb4231ae937eb0e6bdde2fc76b576485187000d0d19a997648b41d"),
    "traits": ("traits", "PanTruthDir", "pan", "",
               "95517e5e8dc9620cbf55ba9e962e0dfa29459907fa15a92376966a9cde6f480e",
               "08fe652e2fc04692665c308b8953858c51250a5461d1cc3963c74b8be691b5cf"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_saved_model_and_predictions_pinned(kind, tmp_path, capsys):
    task, fmt, path, grouping, model_sha, predictions_sha = CASES[kind]
    if fmt == "FlatCsv":
        write_marker_csv(tmp_path / path, n_docs=48, seed=11, marker_rate=0.6)
    else:
        write_pan(tmp_path / path)
    (tmp_path / "exp.ini").write_text(CONFIG.format(task=task, format=fmt, path=path, grouping=grouping),
                                      encoding="utf-8")
    assert main(["train", "--config", str(tmp_path / "exp.ini"),
                 "--model-out", str(tmp_path / "m.model"), "--vocab-out", str(tmp_path / "m.vocab")]) == 0
    corpus = ["--corpus-format", fmt, "--corpus-path", str(tmp_path / path), "--language", "es"]
    if fmt == "FlatCsv":
        corpus += ["--grouping-k", "4"]
    assert main(["predict", "--model", str(tmp_path / "m.model"), "--vocab", str(tmp_path / "m.vocab"),
                 *corpus, "--output", str(tmp_path / "pred.tsv")]) == 0
    assert (tmp_path / "m.model").read_text(encoding="utf-8").split("\t", 1)[1].split("\n")[0] == kind
    assert sha256(tmp_path / "m.model") == model_sha
    assert sha256(tmp_path / "pred.tsv") == predictions_sha
