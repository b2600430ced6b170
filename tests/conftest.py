import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tmembed.corpus import Vocabulary, vectorize
from tmembed.knowledge import KnowledgeStore, WordKnowledge


@pytest.fixture
def worked_example():
    """The eight-word, two-document corpus behind the frozen X fixture."""
    vocab = Vocabulary.from_words([f"word{i}" for i in range(1, 9)])
    raw = [["word3", "word2", "word4"], ["word6", "word3"]]
    return vocab, vectorize(raw, vocab)


def make_store(entry_spec, V):
    """Store from {word: [(literals, weight), ...]} without running Phase 1."""
    vocab = Vocabulary.from_words([f"w{i}" for i in range(V)])
    store = KnowledgeStore(vocab_hash=vocab.digest(), V=V)
    for word, clauses in entry_spec.items():
        store.entries[word] = WordKnowledge(word=word, clauses=clauses)
    return vocab, store


@pytest.fixture
def cluster_corpus():
    """500 documents over 50 words, two disjoint planted topics."""
    rng = np.random.default_rng(42)
    V = 50
    half = V // 2
    raw = []
    for d in range(500):
        topic = d % 2
        lo = 0 if topic == 0 else half
        words = rng.choice(np.arange(lo, lo + half), size=8, replace=False)
        raw.append([f"w{w:02d}" for w in words])
    vocab = Vocabulary.from_words([f"w{i:02d}" for i in range(V)])
    return vocab, vectorize(raw, vocab), half


def sentiment_fixture(n_train=60, n_test=40, seed=7):
    """Separable toy review corpus: label is presence of 'good' vs 'bad'.

    Returns (vocab, train_docs_raw, train_labels, test_docs_raw, test_labels)
    with documents as token lists.
    """
    rng = np.random.default_rng(seed)
    fillers = ["plot", "actor", "scene", "music", "film", "story", "camera",
               "script", "pace", "cast"]
    marker = {1: ["good", "great"], 0: ["bad", "awful"]}

    def make(n):
        docs, labels = [], []
        for i in range(n):
            label = i % 2
            body = [fillers[j] for j in rng.integers(0, len(fillers), size=6)]
            body.insert(int(rng.integers(len(body) + 1)),
                        marker[label][int(rng.integers(2))])
            docs.append(body)
            labels.append(label)
        return docs, labels

    train, train_labels = make(n_train)
    test, test_labels = make(n_test)
    vocab = Vocabulary.from_words(sorted(set(fillers + ["good", "great", "bad",
                                                        "awful"])))
    return vocab, train, train_labels, test, test_labels
