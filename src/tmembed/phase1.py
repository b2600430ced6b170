"""Phase 1: per-word knowledge extraction from documents.

Each vocabulary word gets its own single-output machine. Every training
example draws a target bit q, samples up to `a` documents that contain the
word (q=1) or do not (q=0), unions their word sets into a negation-closed
literal vector, and applies one update. The trained bank is distilled into
the word's clause knowledge. Words train in lockstep batches, each word on
its own random stream, so a word's knowledge does not depend on its batch.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import DocumentSet, Vocabulary
# update is not called here; bench/tmbench/tracer.py wraps phase1.update
# (Phase 1 steps its machines through update_stack).
from .cotm import check_N, init_bank, update, update_stack  # noqa: F401
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
        check_N(self.N)
        if not self.s > 1.0:
            raise ValueError("s must be > 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def document_pools(ds: DocumentSet, word: int) -> tuple[np.ndarray, np.ndarray]:
    """The word's (non-supporting, supporting) document ids, indexed by q."""
    if not 0 <= word < ds.V:
        raise ValueError(f"word index {word} out of range")
    return ds.not_containing(word), ds.containing(word)


def pick_documents(pools: tuple[np.ndarray, np.ndarray], word: int, q: int,
                   a: int, rng: np.random.Generator) -> np.ndarray:
    """min(a, eligible) distinct documents of pools[q], uniform without
    replacement; pools are the word's document_pools."""
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    eligible = pools[q]
    if eligible.size == 0:
        kind = "supporting" if q == 1 else "non-supporting"
        raise ValueError(f"no {kind} documents for word {word}")
    n = min(a, eligible.size)
    return rng.choice(eligible, size=n, replace=False)


def build_x_from_documents(ds: DocumentSet, word: int, q: int, a: int,
                           rng: np.random.Generator) -> np.ndarray:
    """The negation-closed union of the picked documents' word sets: one
    training input of the word, drawn as `train_words` draws it."""
    return ds.vector(pick_documents(document_pools(ds, word), word, q, a, rng))


def _word_rng(cfg: Phase1Config, word: int) -> np.random.Generator:
    # Per-word stream: retraining one word reproduces its batch result exactly.
    return np.random.default_rng([cfg.seed, word])


# A lockstep batch holds about this many clause cells (num_clauses x 2V per
# word). Its stacked bank takes 5 bytes a cell and each step's temporaries
# a few MB more, which stays below what other stages of a run add to the
# peak RSS. Twice the budget ran planted_small's Phase 1 about 5% faster
# but raised the benchmark's peak RSS by about 3 MB. A bank larger than
# this trains alone.
BATCH_CELLS = 1 << 19


def batch_size(V: int, cfg: Phase1Config) -> int:
    """How many words of a V-word vocabulary train in one lockstep batch."""
    return max(1, BATCH_CELLS // (cfg.num_clauses * 2 * V))


def train_words(ds: DocumentSet, words, cfg: Phase1Config
                ) -> list[tuple[WordKnowledge, str | None]]:
    """Train the words' machines in lockstep; each word's store entry and
    failure message (None if it trained), in the order given.

    A word fails before training starts, as an empty entry plus the
    message, when its index is out of range or it has no supporting or no
    non-supporting documents; every other word trains to the end. The
    machines sit in one stacked bank, num_clauses clauses each. At each
    step every word draws from its own stream exactly what it draws when
    trained alone: its target bit and its documents, then, inside
    `cotm.update_stack`, its selection uniforms and its feedback masks. So
    a word's entry does not depend on the batch it trains in.
    """
    errors: dict[int, str] = {}
    live = []  # (word, document pools, generator) of each word that trains
    for w in words:
        try:
            pools = document_pools(ds, w)
        except ValueError as err:
            errors[w] = str(err)
            continue
        if pools[1].size == 0:
            errors[w] = f"no supporting documents for word {w}"
        elif pools[0].size == 0:
            errors[w] = f"no non-supporting documents for word {w}"
        else:
            live.append((w, pools, _word_rng(cfg, w)))
    trained = {}
    if live:
        C = cfg.num_clauses
        bank = init_bank(len(live) * C, 1, ds.V, cfg.N, cfg.T, cfg.s)
        rngs = [rng for *_, rng in live]
        for _ in range(cfg.epochs * cfg.r):
            picked, q = [], []
            for w, pools, rng in live:
                q.append(int(rng.integers(2)))
                picked.append(pick_documents(pools, w, q[-1], cfg.a, rng))
            x = ds.vectors(np.concatenate(picked), [p.size for p in picked])
            update_stack(bank, x, q, rngs)
        trained = {w: from_bank(bank.take(slice(b * C, (b + 1) * C)), w)
                   for b, (w, _, _) in enumerate(live)}
    return [(trained[w], None) if w in trained
            else (WordKnowledge(w, NO_CLAUSES), errors[w]) for w in words]


def train_word(ds: DocumentSet, word: int, cfg: Phase1Config) -> WordKnowledge:
    """Train one word's machine, a batch of one, and extract its
    nonzero-weight clauses; a failure raises ValueError with the message
    the store would record."""
    entry, error = train_words(ds, [word], cfg)[0]
    if error is not None:
        raise ValueError(error)
    return entry


def _batches(num_words: int, size: int, workers: int) -> list[range]:
    """range(num_words) in contiguous batches of at most `size` words, as
    even as they can be; while there are words enough, a multiple of
    `workers` of them, so that every worker gets an even share."""
    n = min(num_words, workers * -(-num_words // (size * workers)))
    cuts = [num_words * i // n for i in range(n + 1)] if n else []
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


# The DocumentSet a Phase-1 worker process trains on, set once by _init_worker.
_worker_ds: DocumentSet | None = None


def _init_worker(ds: DocumentSet) -> None:
    global _worker_ds
    _worker_ds = ds


def _train_in_worker(words: range, cfg: Phase1Config
                     ) -> list[tuple[WordKnowledge, str | None]]:
    return train_words(_worker_ds, words, cfg)


def train_all(ds: DocumentSet, vocab: Vocabulary, cfg: Phase1Config,
              parallelism: int = 1) -> KnowledgeStore:
    """Train every vocabulary word independently.

    Words train in lockstep batches of up to `batch_size` words
    (`train_words`). A word that cannot train fails before its batch starts
    (empty entry + message in the store); every other word trains to the
    end. Results are identical for any parallelism level. With
    parallelism > 1, up to that many worker processes are started, one
    batch is a task and the words are cut into batches that share out
    evenly among the workers; each worker receives the DocumentSet once,
    and a task carries only (words, cfg).
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    store = KnowledgeStore(vocab_hash=vocab.digest(), V=vocab.size)
    batches = _batches(vocab.size, batch_size(ds.V, cfg), parallelism)
    workers = min(parallelism, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            results = list(pool.map(_train_in_worker, batches, repeat(cfg)))
    else:
        results = [train_words(ds, words, cfg) for words in batches]
    for w, (entry, msg) in enumerate(chain.from_iterable(results)):
        store.entries[w] = entry
        if msg is not None:
            store.failures[w] = msg
    return store
