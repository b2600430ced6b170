"""Phase 2: embeddings for a vector of target words, built from Phase-1 clauses.

Input vectors are assembled by a two-level clause expansion instead of from
documents: sample clauses of the target word's polarity, collect their
literals, then expand each original-feature literal through its own word's
clauses of the same polarity. The collected literal set is activated directly;
no negation closure is applied, because the clauses already carry negated
literals.

Training reads the store through one `PolarityIndex`, which filters each
word by polarity once, not once per example. It changes no random draw, so
the embeddings are byte for byte those of filtering on every example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary
from .cotm import ClauseBank, init_bank, literal_vector, update
from .knowledge import Clause, KnowledgeStore, filter_by_polarity
from .phase1 import Phase1Config


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row i is the embedding of target word words[i] over the 2V literal space."""

    words: tuple[int, ...]
    rows: np.ndarray


@dataclass
class Phase2Stats:
    """Optional training telemetry: shuffle positions and per-word skip counts."""

    attempts: int = 0
    skips: int = 0
    position_counts: np.ndarray | None = None
    skipped_words: Counter = field(default_factory=Counter)


class PolarityIndex:
    """The q-polarity clauses of one store's words, filled as calls touch them.

    Each word and q is filtered once. The first time a clause is drawn, its
    expandable literals (original features, < V, whose own q-list is
    non-empty) are resolved to their q-lists. Build a new index after
    changing the store.
    """

    def __init__(self, store: KnowledgeStore):
        self._store = store
        self._clauses: dict[tuple[int, int], list[Clause]] = {}
        self._expand: dict[tuple[int, int], list] = {}

    def clauses(self, word: int, q: int) -> list[Clause]:
        """The word's q-polarity clauses in store order; [] without an entry."""
        key = (word, q)
        found = self._clauses.get(key)
        if found is None:
            entry = self._store.entries.get(word)
            found = [] if entry is None else filter_by_polarity(entry, q)
            self._clauses[key] = found
            self._expand[key] = [None] * len(found)
        return found

    def expansions(self, word: int, q: int, j: int
                   ) -> tuple[list[Clause], ...]:
        """The q-lists of clause j's expandable literals, in clause order
        (a literal repeated across clauses is expanded in each)."""
        per_clause = self._expand[(word, q)]
        found = per_clause[j]
        if found is None:
            V = self._store.V
            found = per_clause[j] = tuple(filter(None, (
                self.clauses(lit, q)
                for lit in self._clauses[(word, q)][j].literals if lit < V)))
        return found


def build_x_phase2(store: KnowledgeStore, word: int, q: int, a: int,
                   rng: np.random.Generator,
                   index: PolarityIndex | None = None) -> np.ndarray:
    """Two-level clause expansion into a literal vector (no negation closure).

    Level 1 samples min(a, available) clauses of the word's q polarity and
    collects their literals. Level 2 expands each collected literal that is an
    original feature with a knowledge entry: sample min(a, available) of that
    word's q-polarity clauses and collect their literals too. Negated literals
    (index >= V) are activated but never expanded. Lookups go through index,
    which must have been built over this store; without one, a fresh index
    serves this call only.
    """
    if word not in store.entries:
        raise ValueError(f"word {word} has no knowledge entry")
    if index is None:
        index = PolarityIndex(store)
    clauses = index.clauses(word, q)
    if not clauses:
        raise ValueError(f"no q-polarity knowledge for word {word} (q={q})")
    active: set[int] = set()
    n = min(a, len(clauses))
    for j in rng.choice(len(clauses), size=n, replace=False).tolist():
        active.update(clauses[j].literals)
        for sub in index.expansions(word, q, j):
            m = min(a, len(sub))
            for sj in rng.choice(len(sub), size=m, replace=False).tolist():
                active.update(sub[sj].literals)
    return literal_vector(active, store.V)


def extract_embedding(bank: ClauseBank, o: int) -> np.ndarray:
    """Signed accumulation of clause weights over each clause's included literals."""
    if not 0 <= o < bank.num_outputs:
        raise ValueError(f"output id {o} out of range")
    return bank.included().T.astype(np.float64) @ bank.weights[:, o].astype(np.float64)


def train_embedding(store: KnowledgeStore, targets, cfg: Phase1Config,
                    stats: Phase2Stats | None = None
                    ) -> tuple[ClauseBank, EmbeddingMatrix]:
    """Train a k-output machine on expanded clause inputs; return bank and embeddings.

    Per example the targets are shuffled and a single q is drawn; each word's
    expanded vector updates only that word's output. Words whose expansion
    fails (missing polarity knowledge) are skipped and counted; a skip rate
    above 50% aborts.
    """
    targets = tuple(int(w) for w in targets)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target words")
    for w in targets:
        if w not in store.entries:
            raise ValueError(f"target word {w} missing from knowledge store")
    k = len(targets)
    index = PolarityIndex(store)
    rng = np.random.default_rng(cfg.seed)
    bank = init_bank(cfg.num_clauses, k, store.V, cfg.N, cfg.T, cfg.s)
    if stats is not None and stats.position_counts is None:
        stats.position_counts = np.zeros((k, k), dtype=np.int64)
    attempts = 0
    skips = 0
    skipped: Counter = Counter()
    for _ in range(cfg.epochs):
        for _ in range(cfg.r):
            order = rng.permutation(k)
            q = int(rng.integers(2))
            for pos, oi in enumerate(order):
                if stats is not None:
                    stats.position_counts[oi, pos] += 1
                attempts += 1
                try:
                    x = build_x_phase2(store, targets[oi], q, cfg.a, rng, index)
                except ValueError:
                    skips += 1
                    skipped[targets[oi]] += 1
                    continue
                update(bank, x, int(oi), q, rng)
        if skips * 2 > attempts:
            raise RuntimeError(
                f"phase 2 aborted: {skips}/{attempts} word examples skipped "
                f"(worst offenders: {skipped.most_common(5)})")
    if stats is not None:
        stats.attempts = attempts
        stats.skips = skips
        stats.skipped_words = skipped
    rows = np.stack([extract_embedding(bank, o) for o in range(k)])
    return bank, EmbeddingMatrix(words=targets, rows=rows)


def token_vectors(emb: EmbeddingMatrix, vocab: Vocabulary) -> dict[str, np.ndarray]:
    """Map each target word's token to its embedding row."""
    return {vocab.words[w]: emb.rows[i] for i, w in enumerate(emb.words)}


def save_embeddings(emb: EmbeddingMatrix, vocab: Vocabulary, path,
                    sparse: bool = False) -> None:
    """Dense: token then 2V space-separated values per line.
    Sparse: token then literal:value pairs for nonzero coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, w in enumerate(emb.words):
            row = emb.rows[i]
            if sparse:
                nz = row.nonzero()[0]
                cells = " ".join(f"{l}:{row[l]:.17g}" for l in nz)
            else:
                cells = " ".join(f"{v:.17g}" for v in row)
            fh.write(f"{vocab.words[w]} {cells}".rstrip() + "\n")


def load_embeddings(path, num_literals: int | None = None
                    ) -> tuple[list[str], np.ndarray]:
    """Read either embedding format back into (tokens, rows).

    Sparse files need num_literals (2V) unless at least one row's last
    coordinate is nonzero; dense files carry their width implicitly, and
    rows narrower than num_literals are zero-padded. A token with no cells
    is a zero row. A malformed cell, a negative literal index, a dense row
    whose width differs from the file's other dense rows, or a token seen
    twice raises ValueError naming the line.
    """
    tokens: list[str] = []
    parsed: list[tuple[bool, list]] = []
    first_line: dict[str, int] = {}
    width = num_literals or 0
    dense_width = dense_line = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split(None, 1)
            if not parts:
                continue
            token = parts[0]
            where = f"{path}:{lineno}"
            if token in first_line:
                raise ValueError(f"{where}: duplicate token {token!r} "
                                 f"(first on line {first_line[token]})")
            first_line[token] = lineno
            tokens.append(token)
            rest = parts[1] if len(parts) > 1 else ""
            is_sparse = ":" in rest
            try:
                if is_sparse:
                    cells = [(int(l), float(v)) for l, v in
                             (c.split(":") for c in rest.split())]
                else:
                    cells = list(map(float, rest.split()))
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if is_sparse:
                if min(l for l, _ in cells) < 0:
                    raise ValueError(f"{where}: negative literal index")
                width = max(width, max(l for l, _ in cells) + 1)
            elif cells:
                if dense_width is None:
                    dense_width, dense_line = len(cells), lineno
                elif len(cells) != dense_width:
                    raise ValueError(
                        f"{where}: {len(cells)} values, but line "
                        f"{dense_line} has {dense_width}")
                width = max(width, len(cells))
            parsed.append((is_sparse, cells))
    rows = np.zeros((len(tokens), width), dtype=np.float64)
    for i, (is_sparse, cells) in enumerate(parsed):
        if is_sparse:
            for l, v in cells:
                rows[i, l] = v
        else:
            rows[i, :len(cells)] = cells
    return tokens, rows
