"""Corpus ingestion: tokenization, vocabulary construction, presence index.

Documents are reduced to sets of word indices. A word's frequency inside a
single document is irrelevant; presence alone activates the feature. A
`DocumentSet` is the one in-memory form of documents that every machine
input is built from.
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional word/index map. Index i is the feature position of words[i]."""

    words: tuple[str, ...]
    index_of: dict[str, int] = field(repr=False)

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        words = tuple(words)
        index_of = {w: i for i, w in enumerate(words)}
        if len(index_of) != len(words):
            raise ValueError("duplicate tokens in vocabulary")
        return cls(words=words, index_of=index_of)

    @property
    def size(self) -> int:
        return len(self.words)

    def digest(self) -> bytes:
        """sha256 over the ordered token list; binds derived artifacts to this vocabulary."""
        return hashlib.sha256("\n".join(self.words).encode("utf-8")).digest()


@dataclass
class DocumentSet:
    """Vectorized corpus: per-document word-index sets plus the inverted index.

    docs[d] is a sorted array of distinct word indices; inverted[w] is a sorted
    array of the ids of documents containing word w.
    """

    V: int
    docs: list[np.ndarray]
    inverted: list[np.ndarray]

    @property
    def num_docs(self) -> int:
        return len(self.docs)

    def containing(self, word: int) -> np.ndarray:
        return self.inverted[word]

    def not_containing(self, word: int) -> np.ndarray:
        return np.setdiff1d(np.arange(self.num_docs), self.inverted[word],
                            assume_unique=True)

    def vector(self, ids) -> np.ndarray:
        """Union the given documents' word sets into a negation-closed
        vector of length 2V: their word ids are scattered straight into the
        feature half, and the other half is its negation. An id outside
        [0, num_docs) raises ValueError."""
        ids = np.asarray(ids).tolist()
        x = np.zeros(2 * self.V, dtype=np.uint8)
        if ids:
            ends = sorted(ids)  # one call: cheaper than min() and max()
            if ends[0] < 0 or ends[-1] >= self.num_docs:
                bad = ends[0] if ends[0] < 0 else ends[-1]
                raise ValueError(f"document id {bad} out of range for "
                                 f"{self.num_docs} documents")
            x[np.concatenate([self.docs[d] for d in ids])] = 1
        x[self.V:] = 1 - x[:self.V]
        return x


def build_vocabulary(raw_docs: list[list[str]], max_vocab: int) -> Vocabulary:
    """Keep the max_vocab tokens with highest document frequency, ties lexicographic."""
    if max_vocab < 1:
        raise ValueError("max_vocab must be >= 1")
    if not raw_docs:
        raise ValueError("empty corpus")
    df: Counter[str] = Counter()
    for doc in raw_docs:
        df.update(set(doc))
    if not df:
        raise ValueError("empty corpus")
    ranked = sorted(df, key=lambda w: (-df[w], w))
    return Vocabulary.from_words(ranked[:max_vocab])


def vectorize(raw_docs: list[list[str]], vocab: Vocabulary) -> DocumentSet:
    """Map documents to in-vocabulary index sets; out-of-vocabulary tokens are dropped."""
    index_of = vocab.index_of
    docs = [np.array(sorted({index_of[t] for t in doc if t in index_of}),
                     dtype=np.int64) for doc in raw_docs]
    # a stable sort by word keeps each word's documents in ascending order
    words = np.concatenate([np.empty(0, dtype=np.int64), *docs])
    doc_of = np.repeat(np.arange(len(docs)), [d.size for d in docs])
    ends = np.bincount(words, minlength=vocab.size).cumsum()
    inv = np.split(doc_of[np.argsort(words, kind="stable")], ends[:-1])
    return DocumentSet(V=vocab.size, docs=docs, inverted=inv)


def read_corpus(path) -> list[list[str]]:
    """One document per line, UTF-8; returns tokenized documents."""
    with open(path, encoding="utf-8") as fh:
        return [tokenize(line) for line in fh]


def read_labels(path) -> list[int]:
    """One 0/1 label per line, aligned with the corpus file; blank lines are
    skipped. A bad label raises ValueError naming its path and line."""
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if line.strip():
                    labels.append(int(line.strip()))
                    if labels[-1] not in (0, 1):
                        raise ValueError(f"label must be 0 or 1, got {labels[-1]}")
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    return labels


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """One token per line; line number equals the word index."""
    with open(path, "w", encoding="utf-8") as fh:
        for w in vocab.words:
            fh.write(w + "\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        words = [line.rstrip("\n") for line in fh]
    return Vocabulary.from_words([w for w in words if w])
