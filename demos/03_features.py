"""
Character and tag n-grams, the vocabulary, and the sparse matrix
================================================================

Both feature channels use orders 1 to 3. Character grams see each
whitespace token padded with one underscore per side; tag grams run
over the document's tag stream unpadded.

`char_ngrams` keys each gram by its window string ("_se") and
`pos_ngrams` by its tuple of tags.  The vocabulary keeps them the same
way, in two sorted lists: the char grams take the first columns, the POS
grams the rest.  `vectorize` turns a list of samples
into one `SparseMatrix` (compressed sparse rows), the input of training
and prediction.
"""

import os
import tempfile
from collections import Counter

from styloprof.features import (Vocabulary, build_vocabulary, char_ngrams,
                                default_policy, pos_ngrams, vectorize)

grams = char_ngrams("self-defense")
by_order = Counter(len(gram) for gram in grams.elements())
print("char grams of 'self-defense':", dict(by_order), "=",
      sum(by_order.values()), "total")
print(sorted(grams))

stream = ["REF@USERNAME", "REF@USERNAME", "N", "V", "P", "N", "F", "N", "F"]
tag_grams = pos_ngrams(stream)
print("tag grams:", sum(tag_grams.values()))

# a vocabulary maps grams to columns; min_df drops grams seen in fewer
# than that many distinct samples
samples = [
    (char_ngrams("jaja si si"), pos_ngrams(["F", "N"])),
    (char_ngrams("jaja no"), pos_ngrams(["F", "N", "V"])),
    (char_ngrams("bueno si"), pos_ngrams(["N"])),
]
vocab = build_vocabulary(samples, min_df=2)
print("vocabulary size:", len(vocab), "content hash:",
      vocab.content_hash()[:12], "...")
print(len(vocab.char_grams), "char grams, first column:", repr(vocab.char_grams[0]), "/",
      len(vocab.pos_grams), "POS grams, first:", vocab.pos_grams[0])

# counts become one sparse row per sample under a scaling policy; Spanish
# defaults to log2(1 + count) on the tag channel and linear everywhere else
policy = default_policy("es")
print("policy for es:", policy)
X = vectorize(samples, vocab, policy)
print(len(X), "rows,", X.dimension, "columns,", len(X.entries), "stored entries")
columns, values = X.row(0)
grams = vocab.char_grams + vocab.pos_grams
print("sample 0 ->", len(columns), "of", X.dimension, "columns set; first:",
      repr(grams[columns[0]]), "=", values[0])

# the vocabulary is a plain text artifact and survives a round trip
path = os.path.join(tempfile.mkdtemp(prefix="styloprof-demo-"), "demo.vocab")
vocab.save(path)
print("reload equal:", Vocabulary.load(path) == vocab)
