"""Embedding-driven data augmentation and the propositional sentiment classifier.

Positive documents have tokens substituted with highly similar words, negative
documents with dissimilar ones; the label never changes. Classification uses a
single-output machine over negation-closed presence vectors, so every decision
is traceable to conjunctive clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary
from .cotm import ClauseBank, init_bank, negation_closed_vector, predict, update
from .phase2 import EmbeddingMatrix

# Kept deliberately small: only blocks the most frequent function words from
# entering the dissimilar-substitution pools.
STOPWORDS = frozenset(
    "the a an and or but of to in on at for with as by is are was were be been "
    "it this that these those i you he she we they not no".split())

POSITIVE = 1
NEGATIVE = 0


@dataclass(frozen=True)
class LabeledDocument:
    tokens: tuple[str, ...]
    word_set: frozenset[int]
    label: int


def make_document(tokens, vocab: Vocabulary, label: int) -> LabeledDocument:
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    tokens = tuple(tokens)
    word_set = frozenset(vocab.index_of[t] for t in tokens if t in vocab.index_of)
    return LabeledDocument(tokens=tokens, word_set=word_set, label=label)


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
    try:
        i = emb.words.index(word)
    except ValueError:
        raise ValueError(f"word {word} has no embedding") from None
    return _ranker(emb, [(order, exclude)])(i, n)[0]


def _substitution_pools(emb: EmbeddingMatrix, vocab: Vocabulary,
                        cfg: AugmentConfig, labels,
                        needed) -> dict[int, dict[int, list[int]]]:
    """Each label's pools, {label: {word: pool}}, for every needed word;
    each word's similarities are computed once for all labels."""
    # Dissimilar pools exclude stopwords; random junk words would still be
    # dissimilar, but frequent function words would wreck the document.
    stop = frozenset(vocab.index_of[t] for t in STOPWORDS if t in vocab.index_of)
    rankings = {POSITIVE: ("most", frozenset()), NEGATIVE: ("least", stop)}
    rank = _ranker(emb, [rankings[label] for label in labels])
    first_row: dict[int, int] = {}
    for i, w in enumerate(emb.words):
        first_row.setdefault(w, i)
    pools = {label: {} for label in labels}
    for w in needed:
        i = first_row.get(w)
        try:
            ranked = [[] for _ in labels] if i is None else rank(i, cfg.pool_size)
        except ValueError:  # a zero row ranks nothing
            ranked = [[] for _ in labels]
        for label, pool in zip(labels, ranked):
            pools[label][w] = pool
    return pools


def augment_document(doc: LabeledDocument, emb: EmbeddingMatrix,
                     vocab: Vocabulary, cfg: AugmentConfig,
                     rng: np.random.Generator,
                     pools: dict[int, list[int]] | None = None
                     ) -> LabeledDocument:
    """Replace ceil(replace_fraction * replaceable) token positions from the
    label's similarity pools; tokens without a usable pool are never selected.

    pools maps word index to its pool, as augment_corpus builds them for every
    embedded word of the corpus; without it the document's own are built."""
    present = [(p, vocab.index_of[t]) for p, t in enumerate(doc.tokens)
               if t in vocab.index_of]
    if pools is None:
        embedded = set(emb.words)
        pools = _substitution_pools(emb, vocab, cfg, (doc.label,),
                                    {w for _, w in present if w in embedded}
                                    )[doc.label]
    replaceable = [(p, w) for p, w in present if pools.get(w)]
    if not replaceable:
        return doc
    n_replace = math.ceil(cfg.replace_fraction * len(replaceable))
    chosen = rng.choice(len(replaceable), size=n_replace, replace=False)
    tokens = list(doc.tokens)
    for ci in chosen:
        p, w = replaceable[ci]
        pool = pools[w]
        tokens[p] = vocab.words[pool[int(rng.integers(len(pool)))]]
    return make_document(tokens, vocab, doc.label)


def augment_corpus(docs, emb: EmbeddingMatrix, vocab: Vocabulary,
                   cfg: AugmentConfig) -> list[LabeledDocument]:
    """One augmented copy per document, same order, deterministic for a seed."""
    rng = np.random.default_rng(cfg.seed)
    embedded = set(emb.words)
    needed = set()
    for doc in docs:
        needed.update(doc.word_set & embedded)
    pools_by_label = _substitution_pools(emb, vocab, cfg, (POSITIVE, NEGATIVE),
                                         needed)
    return [augment_document(doc, emb, vocab, cfg, rng, pools_by_label[doc.label])
            for doc in docs]


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
        if self.s <= 1.0:
            raise ValueError("s must be > 1")


def document_vector(doc: LabeledDocument, V: int) -> np.ndarray:
    return negation_closed_vector(doc.word_set, V)


def train_classifier(docs, V: int, cfg: ClassifierConfig) -> ClauseBank:
    """Single-output machine; each example updates with q = its label."""
    docs = list(docs)
    labels = {d.label for d in docs}
    if len(labels) < 2:
        raise ValueError("single-class training set")
    rng = np.random.default_rng(cfg.seed)
    bank = init_bank(cfg.num_clauses, 1, V, cfg.N, cfg.T, cfg.s)
    vectors = [document_vector(d, V) for d in docs]
    for _ in range(cfg.epochs):
        for e in rng.permutation(len(docs)):
            update(bank, vectors[e], 0, docs[e].label, rng)
    return bank


def classify(bank: ClauseBank, doc: LabeledDocument) -> int:
    V = bank.num_literals // 2
    return int(predict(bank, document_vector(doc, V))[0])


def accuracy(bank: ClauseBank, docs) -> tuple[float, dict[str, int]]:
    """(accuracy, per-class correct/total counts) over the given documents."""
    counts = {"positive_correct": 0, "positive_total": 0,
              "negative_correct": 0, "negative_total": 0}
    for doc in docs:
        side = "positive" if doc.label == POSITIVE else "negative"
        counts[side + "_total"] += 1
        if classify(bank, doc) == doc.label:
            counts[side + "_correct"] += 1
    total = counts["positive_total"] + counts["negative_total"]
    correct = counts["positive_correct"] + counts["negative_correct"]
    return (correct / total if total else 0.0), counts
