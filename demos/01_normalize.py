"""
Rewriting mentions and hyperlinks into fixed markers
====================================================

Handles and links are lexically unique, so raw n-grams over them are
noise. Normalization rewrites each one into a short fixed marker that
keeps its stylistic footprint without the lexical variance.
"""

from styloprof.normalize import default_rules, hashtag_rule, normalize

rules = default_rules("en")

tweet = "I was just watching ``update 10.'' @MKBHD http://t.co/P9Dn7t8zSl"
result = normalize(tweet, rules)
print("input:     ", tweet)
print("normalized:", result.text)

# every substitution is logged with the span it consumed and the span
# of the marker it produced
for rw in result.rewrites:
    a, b = rw.original_span
    c, d = rw.replacement_span
    print(f"  rule={rw.rule:<9} consumed {a:>2}:{b:<2} ({tweet[a:b]!r}) "
          f"emitted {c}:{d} ({result.text[c:d]!r})")

# the spans never overlap, so splicing each emitted span into the input
# in place of what it consumed rebuilds the normalized text
pieces, cursor = [], 0
for rw in result.rewrites:
    pieces += [tweet[cursor:rw.original_span[0]], result.text[slice(*rw.replacement_span)]]
    cursor = rw.original_span[1]
print("splicing the log rebuilds the output:", "".join(pieces) + tweet[cursor:] == result.text)

# normalizing twice changes nothing: each marker rewrites to itself, so
# a second pass may log a rewrite but never moves a byte
again = normalize(result.text, rules)
print("idempotent:", again.text == result.text, "| second-pass rewrites:",
      len(again.rewrites))

# hashtags keep their body by default (the characters carry style);
# an optional third rule collapses them too
with_tags = rules + [hashtag_rule()]
print(normalize("so #blessed rn @fam", with_tags).text)
