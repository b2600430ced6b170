"""Embedding-driven data augmentation and the propositional sentiment classifier.

Documents are token lists with a parallel list of 0/1 labels. Positive
documents have tokens substituted with highly similar words, negative
documents with dissimilar ones; the label never changes. Classification uses
a single-output machine over the negation-closed presence vectors of a
`DocumentSet`, so every decision is traceable to conjunctive clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import DocumentSet, Vocabulary
from .cotm import ClauseBank, check_N, init_bank, predict, update
from .phase2 import EmbeddingMatrix

# Kept deliberately small: only blocks the most frequent function words from
# entering the dissimilar-substitution pools.
STOPWORDS = frozenset(
    "the a an and or but of to in on at for with as by is are was were be been "
    "it this that these those i you he she we they not no".split())

POSITIVE = 1
NEGATIVE = 0


def _checked_labels(labels, num_docs: int) -> list[int]:
    """The labels as a list, one 0/1 label per document."""
    labels = list(labels)
    if len(labels) != num_docs:
        raise ValueError(f"label/document count mismatch: {num_docs} "
                         f"documents, {len(labels)} labels")
    for label in labels:
        if label not in (POSITIVE, NEGATIVE):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
    return labels


@dataclass(frozen=True)
class AugmentConfig:
    replace_fraction: float = 0.15
    pool_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.replace_fraction <= 1.0:
            raise ValueError("replace_fraction must be in (0, 1]")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _ranker(emb: EmbeddingMatrix, rankings):
    """rank(i, n): for each (order, exclude) in rankings, the first n words by
    cosine to row i of emb ("most" similar first, or "least").

    Row norms and each ranking's candidate mask are computed once here, so
    each call costs one matrix-vector product plus one sort per ranking over
    the k rows. Row i itself, zero-vector rows and a ranking's excluded words
    never appear; ties break on word index, then on row position.
    """
    words = np.asarray(emb.words, dtype=np.int64)
    norms = np.linalg.norm(emb.rows, axis=1)
    masks = []
    for order, exclude in rankings:
        usable = norms != 0.0
        usable &= ~np.fromiter((w in exclude for w in emb.words), dtype=bool,
                               count=len(emb.words))
        masks.append((order, usable))

    def rank(i: int, n: int) -> list[list[int]]:
        v = emb.rows[i]
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValueError("zero vector")
        dots = emb.rows @ v
        out = []
        for order, usable in masks:
            keep = usable.copy()
            keep[i] = False
            cand = np.flatnonzero(keep)
            sims = dots[cand] / (nv * norms[cand])
            by_sim = -sims if order == "most" else sims
            out.append(words[cand[np.lexsort((words[cand], by_sim))[:n]]].tolist())
        return out

    return rank


def nearest_words(word: int, emb: EmbeddingMatrix, n: int, order: str = "most",
                  exclude: frozenset[int] = frozenset()) -> list[int]:
    """Top-n (or bottom-n) embedded words by cosine to the given word's row.

    The word itself, zero-vector rows, and excluded indices never appear.
    Ties break on word index for determinism. A word listed twice in
    emb.words is ranked from its first row.
    """
    if order not in ("most", "least"):
        raise ValueError(f"order must be 'most' or 'least', got {order!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    try:
        i = emb.words.index(word)
    except ValueError:
        raise ValueError(f"word {word} has no embedding") from None
    return _ranker(emb, [(order, exclude)])(i, n)[0]


def _substitution_pools(emb: EmbeddingMatrix, vocab: Vocabulary,
                        cfg: AugmentConfig, needed
                        ) -> dict[int, dict[int, list[int]]]:
    """Both labels' pools, {label: {word: pool}}, for every needed embedded
    word; each word's similarities are computed once for both labels."""
    # Dissimilar pools exclude stopwords; random junk words would still be
    # dissimilar, but frequent function words would wreck the document.
    stop = frozenset(vocab.index_of[t] for t in STOPWORDS if t in vocab.index_of)
    rank = _ranker(emb, [("most", frozenset()), ("least", stop)])
    first_row: dict[int, int] = {}
    for i, w in enumerate(emb.words):
        first_row.setdefault(w, i)
    pools = {POSITIVE: {}, NEGATIVE: {}}
    for w in needed:
        try:
            ranked = rank(first_row[w], cfg.pool_size)
        except ValueError:  # a zero row ranks nothing
            ranked = [[], []]
        pools[POSITIVE][w], pools[NEGATIVE][w] = ranked
    return pools


def augment_document(tokens, pools: dict[int, list[int]], vocab: Vocabulary,
                     cfg: AugmentConfig, rng: np.random.Generator) -> list[str]:
    """Replace ceil(replace_fraction * replaceable) token positions from the
    document's label's similarity pools (word index -> pool, as
    augment_corpus builds them); tokens without a usable pool are never
    selected."""
    tokens = list(tokens)
    index_of = vocab.index_of
    replaceable = [(p, index_of[t]) for p, t in enumerate(tokens)
                   if pools.get(index_of.get(t))]
    if not replaceable:
        return tokens
    n_replace = math.ceil(cfg.replace_fraction * len(replaceable))
    chosen = rng.choice(len(replaceable), size=n_replace, replace=False)
    for ci in chosen:
        p, w = replaceable[ci]
        pool = pools[w]
        tokens[p] = vocab.words[pool[int(rng.integers(len(pool)))]]
    return tokens


def augment_corpus(docs, labels, emb: EmbeddingMatrix, vocab: Vocabulary,
                   cfg: AugmentConfig) -> list[list[str]]:
    """One augmented copy of each document's tokens, same order (and so the
    same labels), deterministic for a seed."""
    docs = list(docs)
    labels = _checked_labels(labels, len(docs))
    rng = np.random.default_rng(cfg.seed)
    index_of = vocab.index_of
    needed = {index_of[t] for doc in docs for t in doc if t in index_of}
    pools_by_label = _substitution_pools(emb, vocab, cfg,
                                         needed & set(emb.words))
    return [augment_document(doc, pools_by_label[label], vocab, cfg, rng)
            for doc, label in zip(docs, labels)]


@dataclass(frozen=True)
class ClassifierConfig:
    """Defaults follow the reference sentiment setup
    (1000 clauses, T=8000, s=2.0, 10 epochs)."""

    num_clauses: int = 1000
    T: int = 8000
    s: float = 2.0
    N: int = 128
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if min(self.num_clauses, self.T, self.N, self.epochs) < 1:
            raise ValueError("epochs, num_clauses, T and N must be >= 1")
        check_N(self.N)
        if not self.s > 1.0:
            raise ValueError("s must be > 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _document_vectors(ds: DocumentSet) -> np.ndarray:
    """Every document's own vector, row d for document d."""
    return ds.vectors(np.arange(ds.num_docs), [1] * ds.num_docs)


def train_classifier(ds: DocumentSet, labels,
                     cfg: ClassifierConfig) -> ClauseBank:
    """Single-output machine; each example updates with q = its label."""
    labels = _checked_labels(labels, ds.num_docs)
    if len(set(labels)) < 2:
        raise ValueError("single-class training set")
    rng = np.random.default_rng(cfg.seed)
    bank = init_bank(cfg.num_clauses, 1, ds.V, cfg.N, cfg.T, cfg.s)
    vectors = _document_vectors(ds)
    for _ in range(cfg.epochs):
        for e in rng.permutation(ds.num_docs):
            update(bank, vectors[e], 0, labels[e], rng)
    return bank


def accuracy(bank: ClauseBank, ds: DocumentSet,
             labels) -> tuple[float, dict[str, int]]:
    """(accuracy, per-class correct/total counts) over the given documents."""
    labels = _checked_labels(labels, ds.num_docs)
    if not labels:
        raise ValueError("no documents to score")
    counts = {"positive_correct": 0, "positive_total": 0,
              "negative_correct": 0, "negative_total": 0}
    for x, label in zip(_document_vectors(ds), labels):
        side = "positive" if label == POSITIVE else "negative"
        counts[side + "_total"] += 1
        if predict(bank, x)[0] == label:
            counts[side + "_correct"] += 1
    correct = counts["positive_correct"] + counts["negative_correct"]
    return correct / len(labels), counts
