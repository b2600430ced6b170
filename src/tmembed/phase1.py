"""Phase 1: per-word knowledge extraction from documents.

Each vocabulary word gets its own single-output machine. Every training
example draws a target bit q, samples up to `a` documents that contain the
word (q=1) or do not (q=0), unions their word sets into a negation-closed
literal vector, and applies one update. The trained bank is distilled into
the word's clause knowledge.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .corpus import DocumentSet, Vocabulary
from .cotm import init_bank, update
from .knowledge import NO_CLAUSES, KnowledgeStore, WordKnowledge, from_bank


@dataclass(frozen=True)
class Phase1Config:
    """Training regime; defaults follow the reference configuration
    (2000 examples/epoch, window 25, 1600 clauses, T=3200, s=5.0, 25 epochs)."""

    r: int = 2000
    a: int = 25
    epochs: int = 25
    num_clauses: int = 1600
    T: int = 3200
    s: float = 5.0
    N: int = 128
    seed: int = 0

    def __post_init__(self):
        if min(self.r, self.a, self.epochs, self.num_clauses, self.T, self.N) < 1:
            raise ValueError("r, a, epochs, num_clauses, T and N must be >= 1")
        if self.s <= 1.0:
            raise ValueError("s must be > 1")


def document_pools(ds: DocumentSet, word: int) -> tuple[np.ndarray, np.ndarray]:
    """The word's (non-supporting, supporting) document ids, indexed by q."""
    return ds.not_containing(word), ds.containing(word)


def pick_documents(ds: DocumentSet, word: int, q: int, a: int,
                   rng: np.random.Generator,
                   pools: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """min(a, eligible) distinct documents, uniform without replacement.

    `pools` is the word's document_pools, when the caller has them: it only
    saves recomputing them, so the draw and the rng state are the same.
    """
    if not 0 <= word < ds.V:
        raise ValueError(f"word index {word} out of range")
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    eligible = (pools or document_pools(ds, word))[q]
    if eligible.size == 0:
        kind = "supporting" if q == 1 else "non-supporting"
        raise ValueError(f"no {kind} documents for word {word}")
    n = min(a, eligible.size)
    return rng.choice(eligible, size=n, replace=False)


def build_x_from_documents(ds: DocumentSet, word: int, q: int, a: int,
                           rng: np.random.Generator,
                           pools: tuple[np.ndarray, np.ndarray] | None = None
                           ) -> np.ndarray:
    """The negation-closed union of the picked documents' word sets."""
    return ds.vector(pick_documents(ds, word, q, a, rng, pools))


def _word_rng(cfg: Phase1Config, word: int) -> np.random.Generator:
    # Per-word stream: retraining one word reproduces its batch result exactly.
    return np.random.default_rng([cfg.seed, word])


def train_word(ds: DocumentSet, word: int, cfg: Phase1Config) -> WordKnowledge:
    """Train one word's machine and extract its nonzero-weight clauses."""
    if not 0 <= word < ds.V:
        raise ValueError(f"word index {word} out of range")
    pools = document_pools(ds, word)
    if pools[1].size == 0:
        raise ValueError(f"no supporting documents for word {word}")
    rng = _word_rng(cfg, word)
    bank = init_bank(cfg.num_clauses, 1, ds.V, cfg.N, cfg.T, cfg.s)
    for _ in range(cfg.epochs):
        for _ in range(cfg.r):
            q = int(rng.integers(2))
            x = build_x_from_documents(ds, word, q, cfg.a, rng, pools)
            update(bank, x, 0, q, rng)
    return from_bank(bank, word)


# The DocumentSet a Phase-1 worker process trains on, set once by _init_worker.
_worker_ds: DocumentSet | None = None


def _init_worker(ds: DocumentSet) -> None:
    global _worker_ds
    _worker_ds = ds


def train_or_error(ds: DocumentSet, word: int, cfg: Phase1Config
                   ) -> tuple[WordKnowledge, str | None]:
    """A word's store entry and failure message: a word whose training fails
    becomes an empty entry plus the error's text."""
    try:
        return train_word(ds, word, cfg), None
    except ValueError as err:
        return WordKnowledge(word, NO_CLAUSES), str(err)


def _train_in_worker(word: int, cfg: Phase1Config
                     ) -> tuple[WordKnowledge, str | None]:
    return train_or_error(_worker_ds, word, cfg)


def train_all(ds: DocumentSet, vocab: Vocabulary, cfg: Phase1Config,
              parallelism: int = 1) -> KnowledgeStore:
    """Train every vocabulary word independently.

    Per-word failures are recorded in the store (empty entry + message); they
    never abort the batch. Results are identical for any parallelism level.
    With parallelism > 1, up to one worker process per word is started and
    each receives the DocumentSet once; a task carries only (word, cfg).
    """
    store = KnowledgeStore(vocab_hash=vocab.digest(), V=vocab.size)
    words = range(vocab.size)
    workers = min(parallelism, vocab.size)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            results = list(pool.map(_train_in_worker, words, repeat(cfg)))
    else:
        results = [train_or_error(ds, w, cfg) for w in words]
    for w, (entry, msg) in zip(words, results):
        store.entries[w] = entry
        if msg is not None:
            store.failures[w] = msg
    return store
