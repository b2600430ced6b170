"""Scoring embeddings against a human-scored word-pair benchmark.

The benchmark format is one pair per line, tab separated:
word_a<TAB>word_b<TAB>human_score. Model score is the cosine of the two
embedding rows; agreement is summarized by Spearman and Kendall tau-b.
"""

from tmembed.corpus import build_vocabulary, vectorize
from tmembed.evaluation import WordPairBenchmark, evaluate, format_reports
from tmembed.phase1 import Phase1Config, train_all
from tmembed.phase2 import train_embedding

raw_docs = [
    "driver road traffic car".split(),
    "car road license vehicle".split(),
    "driver vehicle license".split(),
    "oven flour bread baker".split(),
    "baker bread recipe".split(),
    "flour recipe oven bread".split(),
] * 8

vocab = build_vocabulary(raw_docs, max_vocab=20)
ds = vectorize(raw_docs, vocab)
store = train_all(ds, vocab, Phase1Config(
    r=120, a=4, epochs=2, num_clauses=16, T=16, s=3.0, N=32, seed=0))
_, emb = train_embedding(store, list(range(vocab.size)), Phase1Config(
    r=120, a=3, epochs=2, num_clauses=16, T=16, s=3.0, N=32, seed=1))

# hand-scored pairs: in-topic pairs high, cross-topic pairs low, one OOV
bench = WordPairBenchmark(name="toy-pairs", pairs=(
    ("car", "road", 9.0),
    ("driver", "vehicle", 8.5),
    ("bread", "flour", 8.8),
    ("baker", "recipe", 8.0),
    ("car", "bread", 1.5),
    ("road", "oven", 1.0),
    ("driver", "flour", 0.5),
    ("car", "spaceship", 5.0),  # not in the vocabulary: excluded, coverage drops
))

# emb.rows[i] is the embedding of word emb.words[i]
vectors = {vocab.words[w]: row for w, row in zip(emb.words, emb.rows)}
report = evaluate(vectors, bench)
print(format_reports([report]))
