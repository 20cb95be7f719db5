"""Golden result files: `styloprof run` output above `## timing`, with
the temporary directory's path replaced by `<tmp>`, pinned by sha256 for
the four demo configs and for a seeded FlatCsv config whose fallback
tagger reads a lexicon.

The pinned bytes do not depend on the BLAS build.  Every model of these
configs trains on the Gram form (n^2 <= nnz), whose products and sums are
element-wise numpy loops, except the sweep's sample sizes 1 and 2: those
take the row form, whose dot products go through BLAS, so their metric
rows and epoch-cap warnings are dropped before hashing.  Their
vocabulary hashes, which no solver touches, stay pinned.
"""

import hashlib
import runpy
import shutil
from pathlib import Path

import pytest

from styloprof.experiment import parse_config_file, render_result, run_experiment, strip_timings
from styloprof.synthetic import write_marker_csv

DEMOS = Path(__file__).resolve().parent.parent / "demos"

ROW_FORM_SWEEP_K = ("1", "2")

LEXICON = """\
# fallback-tagger lexicon for the filler words
hoy\tR
casa\tN
Tarde\tn
amigo\tN
gente\tN
tiempo\tN
nuevo\ta
mejor\tA
vamos\tV
gracias\tI
quiero\tV
bueno\tA
"""

LEXICON_CONFIG = """\
[experiment]
task = gender
train_fraction = 0.7
split_seed = 3
lexicon = words.tsv

[train_corpus]
format = FlatCsv
path = tweets.csv
language = es
grouping_k = 8

[training]
epochs = 30
seed = 5
"""

PINNED = {
    "cross_gender": "535eee5c8685f2fc71020f0eef9a0fc0a84fe146318d723ae15df73de4b66a31",
    "split_gender": "186ff8d30601a4a93e8fe19bd5d6e661c05315dec37a88df1b8c268447b396ed",
    "sweep_gender": "6dc8669b85b1803617dcc34f2a27d403d55bae45ccdcd0eec1fa7d901884f89b",
    "traits_pan_layout": "110461c6ce37f59e33f817a4c76c3957c95659af763fc801aa09ba5350248c8f",
    "lexicon_gender": "542f4875ed4b92d2183088da0e2765c02de22090a5dec793c5d8776fc9a12996",
}


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    """Config name -> path: the demo configs over data that
    `make_demo_data.py` writes next to them, and the lexicon config."""
    root = tmp_path_factory.mktemp("golden")
    shutil.copy(DEMOS / "make_demo_data.py", root)
    shutil.copytree(DEMOS / "configs", root / "configs")
    runpy.run_path(str(root / "make_demo_data.py"))
    paths = {path.stem: path for path in (root / "configs").glob("*.ini")}
    write_marker_csv(root / "tweets.csv", n_docs=160, seed=23, marker_rate=0.5)
    (root / "words.tsv").write_text(LEXICON, encoding="utf-8")
    (root / "lexicon_gender.ini").write_text(LEXICON_CONFIG, encoding="utf-8")
    paths["lexicon_gender"] = root / "lexicon_gender.ini"
    return root, paths


def blas_free_result(text: str) -> str:
    """The result text without the lines a row-form model writes."""
    kept, in_sweep = [], False
    for line in text.split("\n"):
        if line.startswith("## "):
            in_sweep = line == "## sweep"
        row_form = any(line.startswith(f"warning\tsample size {k}: ") or
                       (in_sweep and line.startswith(f"{k}\t")) for k in ROW_FORM_SWEEP_K)
        if not row_form:
            kept.append(line)
    return "\n".join(kept)


def test_every_demo_config_pinned(config_paths):
    _, paths = config_paths
    assert sorted(paths) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_result_pinned(config_paths, name):
    root, paths = config_paths
    text = strip_timings(render_result(run_experiment(parse_config_file(paths[name]))))
    text = blas_free_result(text.replace(str(root), "<tmp>"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED[name]
