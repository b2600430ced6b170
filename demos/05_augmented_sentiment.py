"""The transparent end-to-end story: knowledge -> embeddings -> augmentation
-> propositional sentiment classifier.

Positive reviews get tokens swapped for highly similar words, negative ones
for dissimilar words; the classifier then trains on originals plus the
augmented copies. Every stage is seeded, so reruns reproduce exactly.
"""

import numpy as np

from tmembed.augment import (AugmentConfig, ClassifierConfig, accuracy,
                             augment_corpus, train_classifier)
from tmembed.corpus import Vocabulary, vectorize
from tmembed.phase1 import Phase1Config, train_all
from tmembed.phase2 import train_embedding

POS = ["brilliant", "superb", "moving", "masterpiece"]
NEG = ["boring", "dull", "tedious", "clumsy"]
SHARED = ["plot", "actor", "scene", "music", "film", "story"]
MARKERS = {1: ["good", "great"], 0: ["bad", "awful"]}

vocab = Vocabulary.from_words(sorted(set(POS + NEG + SHARED + ["good", "great",
                                                               "bad", "awful"])))


def reviews(n, rng):
    docs, labels = [], []
    for i in range(n):
        label = i % 2
        pool = POS if label else NEG
        body = [pool[j] for j in rng.integers(0, len(pool), size=3)]
        body += [SHARED[j] for j in rng.integers(0, len(SHARED), size=3)]
        body.insert(int(rng.integers(len(body) + 1)),
                    MARKERS[label][int(rng.integers(2))])
        docs.append(body)
        labels.append(label)
    return docs, labels


rng = np.random.default_rng(7)
train_raw, train_labels = reviews(80, rng)
test_raw, test_labels = reviews(60, rng)

train = vectorize(train_raw, vocab)
store = train_all(train, vocab, Phase1Config(
    r=120, a=5, epochs=2, num_clauses=20, T=20, s=3.0, N=32, seed=0))
_, emb = train_embedding(store, list(range(vocab.size)), Phase1Config(
    r=120, a=4, epochs=2, num_clauses=20, T=20, s=3.0, N=32, seed=1))

augmented = augment_corpus(train_raw, train_labels, emb, vocab, AugmentConfig(
    replace_fraction=0.15, pool_size=2, seed=2))

print("an augmented positive review:")
print("  before:", " ".join(train_raw[1]))
print("  after: ", " ".join(augmented[1]))

# the classifier reads documents as negation-closed presence vectors
cfg = ClassifierConfig(num_clauses=20, T=20, s=3.0, N=32, epochs=10, seed=3)
plain = train_classifier(train, train_labels, cfg)
boosted = train_classifier(vectorize(train_raw + augmented, vocab),
                           train_labels + train_labels, cfg)

test = vectorize(test_raw, vocab)
acc_plain, _ = accuracy(plain, test, test_labels)
acc_boosted, counts = accuracy(boosted, test, test_labels)
print(f"\ntest accuracy without augmentation: {acc_plain:.3f}")
print(f"test accuracy with augmentation:    {acc_boosted:.3f} "
      f"(delta {acc_boosted - acc_plain:+.3f})")
print("per-class counts:", counts)
