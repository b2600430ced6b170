"""Phase 2: embeddings built from clause knowledge instead of documents.

Reusing the two-topic corpus: every word becomes a target, inputs are
assembled by the two-level clause expansion, and the trained bank yields one
vector per word over the literal space. Nearest neighbors should respect the
topics.
"""

from tmembed.augment import nearest_words
from tmembed.corpus import build_vocabulary, vectorize
from tmembed.evaluation import cosine
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

targets = list(range(vocab.size))
bank, emb = train_embedding(store, targets, Phase1Config(
    r=120, a=3, epochs=2, num_clauses=16, T=16, s=3.0, N=32, seed=1))
print(f"embedding matrix: {emb.rows.shape[0]} words x {emb.rows.shape[1]} literals")

for probe in ("car", "bread"):
    w = vocab.index_of[probe]
    neighbors = [vocab.words[j] for j in nearest_words(w, emb, 3)]
    print(f"\nnearest to '{probe}': {', '.join(neighbors)}")

same = cosine(emb.rows[vocab.index_of["car"]],
              emb.rows[vocab.index_of["road"]])
cross = cosine(emb.rows[vocab.index_of["car"]],
               emb.rows[vocab.index_of["bread"]])
print(f"\ncosine(car, road) = {same:.3f}   cosine(car, bread) = {cross:.3f}")
