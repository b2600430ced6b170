"""Corpus ingestion: tokenization, vocabulary construction, presence tables.

Documents are reduced to sets of word indices. A word's frequency inside a
single document is irrelevant; presence alone activates the feature. A
`DocumentSet` is the one in-memory form of documents that every machine
input is built from: one CSR table from documents to their words and one
from words to their documents. Text inputs are read as UTF-8, and a file
that is not names its path and the line of the first bad byte.
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat

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


# A NumPy scalar: vectors() writes it faster than a Python int.
_ONE = np.uint8(1)


@dataclass
class DocumentSet:
    """Vectorized corpus as two CSR tables, all int64.

    Document d's sorted distinct word ids are words[ptr[d]:ptr[d + 1]], and
    word w's ascending document ids are doc_ids[iptr[w]:iptr[w + 1]]. A
    document with no in-vocabulary token has an empty row, as does a word
    in no document.
    """

    V: int
    ptr: np.ndarray
    words: np.ndarray
    iptr: np.ndarray
    doc_ids: np.ndarray

    @property
    def num_docs(self) -> int:
        return self.ptr.size - 1

    def containing(self, word: int) -> np.ndarray:
        return self.doc_ids[self.iptr[word]:self.iptr[word + 1]]

    def not_containing(self, word: int) -> np.ndarray:
        keep = np.ones(self.num_docs, dtype=bool)
        keep[self.containing(word)] = False
        return np.flatnonzero(keep)

    def vectors(self, ids, counts) -> np.ndarray:
        """[len(counts), 2V] uint8: row i is the negation-closed union of the
        word sets of the next counts[i] documents of ids (the counts sum to
        len(ids)). The ranges of `words` of all the documents are gathered
        at once and scattered into the feature halves; the other halves are
        their negation. An id outside [0, num_docs) raises ValueError."""
        ids = np.asarray(ids)
        x = np.zeros((len(counts), 2 * self.V), dtype=np.uint8)
        if ids.size:
            order = sorted(ids.tolist())  # one call: cheaper than min and max
            if order[0] < 0 or order[-1] >= self.num_docs:
                bad = order[0] if order[0] < 0 else order[-1]
                raise ValueError(f"document id {bad} out of range for "
                                 f"{self.num_docs} documents")
            stops = self.ptr[ids + 1]
            lengths = stops - self.ptr[ids]
            ends = lengths.cumsum()  # where each range ends in the gather
            at = np.repeat(stops - ends, lengths)
            at += np.arange(ends[-1])
            cells = self.words[at]
            if len(counts) > 1:  # row r's cells start at r * 2V
                cells += np.repeat(np.repeat(
                    np.arange(0, x.size, x.shape[1]), counts), lengths)
            x.reshape(-1)[cells] = _ONE
        np.subtract(_ONE, x[:, :self.V], out=x[:, self.V:])
        return x

    def vector(self, ids) -> np.ndarray:
        """The one-row case of vectors: the given documents' union."""
        return self.vectors(ids, [len(ids)])[0]


def build_vocabulary(raw_docs: list[list[str]], max_vocab: int) -> Vocabulary:
    """Keep the max_vocab tokens with highest document frequency, ties lexicographic."""
    if max_vocab < 1:
        raise ValueError("max_vocab must be >= 1")
    df = Counter(chain.from_iterable(map(set, raw_docs)))
    if not df:
        raise ValueError("empty corpus")
    ranked = sorted(df, key=lambda w: (-df[w], w))
    return Vocabulary.from_words(ranked[:max_vocab])


def vectorize(raw_docs: list[list[str]], vocab: Vocabulary) -> DocumentSet:
    """Map documents to in-vocabulary index sets; out-of-vocabulary tokens are dropped.

    Both tables come from whole-corpus array passes: every token is mapped
    to its word id in one pass, and each table sorts its (row, column) keys
    once. The passes work in place and drop each array once it is used, so
    the corpus-sized temporaries, and the heap they leave behind, stay small.
    """
    V, D = vocab.size, len(raw_docs)
    lengths = np.fromiter(map(len, raw_docs), dtype=np.int64, count=D)
    ids = np.fromiter(map(vocab.index_of.get, chain.from_iterable(raw_docs),
                          repeat(-1)),
                      dtype=np.int64, count=int(lengths.sum()))
    keys = np.repeat(np.arange(D, dtype=np.int64) * V, lengths)
    keys += ids
    keys = keys[ids >= 0]
    del ids
    keys.sort()
    once = np.empty(keys.size, dtype=bool)  # a word once per document
    once[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=once[1:])
    keys = keys[once]
    del once
    doc, words = np.divmod(keys, V)
    del keys
    ptr = np.zeros(D + 1, dtype=np.int64)
    np.cumsum(np.bincount(doc, minlength=D), out=ptr[1:])
    iptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(np.bincount(words, minlength=V), out=iptr[1:])
    doc_ids = words * D
    doc_ids += doc
    del doc
    doc_ids.sort()
    doc_ids %= D
    return DocumentSet(V=V, ptr=ptr, words=words, iptr=iptr, doc_ids=doc_ids)


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8 raise
    ValueError naming the path and the 1-based line of the first bad byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> ValueError:
    # Only after decoding failed: the stream's error offset is within a
    # chunk, so the whole file is decoded again to find the line.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start]  # lines end at \n, \r\n or \r, as in text mode
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ValueError(f"{path}:{line}: not UTF-8 ({err.reason}: "
                          f"byte 0x{data[err.start]:02x})")
    return ValueError(f"{path}: not UTF-8")


def read_corpus(path) -> list[list[str]]:
    """One document per line, UTF-8; returns tokenized documents."""
    with open_text(path) as fh:
        return [tokenize(line) for line in fh]


def read_labels(path) -> list[int]:
    """One 0/1 label per line, aligned with the corpus file; blank lines are
    skipped. A bad label raises ValueError naming its path and line."""
    labels = []
    with open_text(path) as fh:
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
    """One token per line, blank lines skipped; a file without a token
    raises ValueError naming it, and a token seen twice raises ValueError
    naming the path, its line and the token's first line."""
    first_line: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, word in enumerate((line.rstrip("\n") for line in fh), 1):
            if word in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate token {word!r} "
                                 f"(first on line {first_line[word]})")
            if word:
                first_line[word] = lineno
    words = list(first_line)
    if not words:
        raise ValueError(f"{path}: vocabulary has no tokens")
    return Vocabulary.from_words(words)
