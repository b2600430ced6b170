"""Phase 1: distill each word's document contexts into clause knowledge.

A miniature corpus with two obvious topics; after training we dump the
per-word clauses in the human-readable audit format and peek at one entry.
"""

from tempfile import mkdtemp
from pathlib import Path

import numpy as np

from tmembed.corpus import build_vocabulary, vectorize
from tmembed.knowledge import export_text, filter_by_polarity, save
from tmembed.phase1 import Phase1Config, train_all

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
print(f"vocabulary ({vocab.size} words):", ", ".join(vocab.words))

cfg = Phase1Config(r=120, a=4, epochs=2, num_clauses=16, T=16, s=3.0, N=32,
                   seed=0)
store = train_all(ds, vocab, cfg)

word = vocab.index_of["car"]
positive = filter_by_polarity(store.entries[word], 1).clauses
print(f"\n'car' has {store.entries[word].clauses.weights.size} clauses, "
      f"{positive.weights.size} vote for it; a few supporting clauses:")
clauses = np.split(positive.literals, positive.counts.cumsum()[:-1])
for weight, clause in zip(positive.weights[:5], clauses):
    names = [vocab.words[l] if l < vocab.size else "¬" + vocab.words[l - vocab.size]
             for l in clause]
    print(f"  {' AND '.join(names) or '(empty)'}  @{weight:+d}")

out = Path(mkdtemp())
save(store, out / "knowledge.tmk")
export_text(store, vocab, out / "knowledge.txt")
print(f"\nstore written to {out / 'knowledge.tmk'}")
print(f"full audit dump in {out / 'knowledge.txt'}")
