"""
Character and tag n-grams, the vocabulary, and sparse vectors
=============================================================

Both feature channels use orders 1 to 3. Character grams see each
whitespace token padded with one underscore per side; tag grams run
over the document's tag stream unpadded.

`char_ngrams` keys each gram by its window string ("_se") and
`pos_ngrams` by its tuple of tags; the vocabulary names its columns
with `FeatureKey(channel, gram)`.
"""

import os
import tempfile
from collections import Counter

from styloprof.features import (Vocabulary, build_vocabulary, char_ngrams,
                                default_policy, pos_ngrams, vectorize)

grams = char_ngrams("self-defense", 1, 3)
by_order = Counter(len(gram) for gram in grams.elements())
print("char grams of 'self-defense':", dict(by_order), "=",
      sum(by_order.values()), "total")
print(sorted(grams))

stream = ["REF@USERNAME", "REF@USERNAME", "N", "V", "P", "N", "F", "N", "F"]
tag_grams = pos_ngrams(stream, 1, 3)
print("tag grams:", sum(tag_grams.values()))

# a vocabulary maps grams to columns; min_df drops grams seen in fewer
# than that many distinct samples
samples = [
    (char_ngrams("jaja si si", 1, 3), pos_ngrams(["F", "N"], 1, 3)),
    (char_ngrams("jaja no", 1, 3), pos_ngrams(["F", "N", "V"], 1, 3)),
    (char_ngrams("bueno si", 1, 3), pos_ngrams(["N"], 1, 3)),
]
vocab = build_vocabulary(samples, min_df=2)
print("vocabulary size:", len(vocab), "content hash:",
      vocab.content_hash()[:12], "...")
print("first column:", vocab.keys[0])

# counts become a sparse vector under a scaling policy; Spanish defaults
# to log2(1 + count) on the tag channel and linear everywhere else
policy = default_policy("es")
print("policy for es:", policy)
x = vectorize(*samples[0], vocab, policy)
print("sample 0 ->", len(x.entries), "of", x.dimension, "columns set")

# the vocabulary is a plain text artifact and survives a round trip
path = os.path.join(tempfile.mkdtemp(prefix="styloprof-demo-"), "demo.vocab")
vocab.save(path)
print("reload equal:", Vocabulary.load(path).keys == vocab.keys)
