"""Phase 2: embeddings for a vector of target words, built from Phase-1 clauses.

Input vectors are assembled by a two-level clause expansion instead of from
documents: sample clauses of the target word's polarity, collect their
literals, then expand each original-feature literal through its own word's
clauses of the same polarity. The collected literal set is activated directly;
no negation closure is applied, because the clauses already carry negated
literals.

Training reads the store through one `PolarityIndex`: CSR tables of each
polarity's clauses, built once from entries checked as the store checks
them. An example draws each level's clauses in one
exact draw of uniform subsets and scatters their literals into its input; the
active-literal set has the law of sampling the clauses one at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Vocabulary, open_text
from .cotm import ClauseBank, init_bank, update
from .knowledge import (NO_CLAUSES, KnowledgeStore, clause_error,
                        filter_by_polarity)
from .phase1 import Phase1Config


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row i is the embedding of target word words[i] over the 2V literal space."""

    words: tuple[int, ...]
    rows: np.ndarray


@dataclass
class Phase2Stats:
    """Training telemetry: word-examples attempted and skipped, and the skips
    per target word. `train_embedding` counts into the stats it is given,
    which should start at zero."""

    attempts: int = 0
    skips: int = 0
    skipped_words: Counter = field(default_factory=Counter)


class _Polarity(NamedTuple):
    """One polarity's clauses as CSR tables over clause ids 0..C-1, in
    word then store order: word w's clauses are ids word_ptr[w] up to
    word_ptr[w + 1], an empty range for every word in [0, V) without a
    clause of the polarity; clause c's literals are literals[lit_ptr[c]:
    lit_ptr[c + 1]]."""

    word_ptr: np.ndarray
    lit_ptr: np.ndarray
    literals: np.ndarray


def _csr(counts: np.ndarray) -> np.ndarray:
    """Row pointers of a CSR table whose rows hold these counts."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _polarity(store: KnowledgeStore, q: int) -> _Polarity:
    per_word = np.zeros(store.V, dtype=np.int64)
    words = sorted(store.entries)
    found = [filter_by_polarity(store.entries[w], q).clauses for w in words]
    per_word[words] = [f.weights.size for f in found]
    _, counts, literals = map(np.concatenate, zip(NO_CLAUSES, *found))
    return _Polarity(_csr(per_word), _csr(counts), literals)


class PolarityIndex:
    """Both polarities' clauses of one store as CSR tables (`_Polarity`),
    built once: each word is filtered once per polarity. Every entry is
    first checked as `knowledge.save` checks it, so an entry the store
    would refuse raises ValueError naming its word before any draw. `V` and
    `words` (the words with an entry) are the store's. Build a new index
    after changing the store."""

    def __init__(self, store: KnowledgeStore):
        for word, k in store.entries.items():
            err = clause_error(word, k.clauses, store.V)
            if err:
                raise ValueError(err)
            if k.word != word:
                raise ValueError(
                    f"entry key {word} does not match knowledge word {k.word}")
            if not 0 <= word < store.V:
                raise ValueError(f"word index {word} out of range")
        self.V = store.V
        self.words = frozenset(store.entries)
        self.by_q = (_polarity(store, 0), _polarity(store, 1))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length), concatenated."""
    ends = lengths.cumsum()
    return np.repeat(starts + lengths - ends, lengths) + np.arange(
        ends[-1] if ends.size else 0)


def _gather(ptr: np.ndarray, flat: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The CSR rows ids of flat, concatenated."""
    starts = ptr[ids]
    return flat[_ranges(starts, ptr[ids + 1] - starts)]


def _below(rng: np.random.Generator, n: np.ndarray) -> np.ndarray:
    """Exact uniform integers in [0, n) for each bound in n (int64, > 0).

    Each is a raw 64-bit word modulo its bound. Words below 2**64 mod n are
    drawn again: the words left cover every residue equally often.
    """
    n = n.astype(np.uint64)
    floor = -n % n
    x = rng.bit_generator.random_raw(n.size)
    low = x < floor
    while low.any():
        x[low] = rng.bit_generator.random_raw(np.count_nonzero(low))
        low = x < floor
    return (x % n).astype(np.int64)


def _subsets(starts: np.ndarray, counts: np.ndarray, a: int,
             rng: np.random.Generator) -> np.ndarray:
    """A uniform min(a, n)-subset of each range [start, start + n), drawn
    independently per range, concatenated.

    Where fewer ids are left out than kept, the left-out ones are drawn.
    A range's draws are exact uniform integers, and those that repeat an
    earlier draw of their range are drawn again until the range holds as
    many distinct ids as it needs. That keeps the law exact: the process
    treats every id of a range alike, so every subset of the size it stops
    at is equally likely.
    """
    keep = np.minimum(counts, a)
    rest = counts - keep
    left_out = rest < keep
    seg = np.repeat(np.arange(counts.size), np.minimum(keep, rest))
    # draws are keyed by their place in the ranges laid end to end, so
    # sorting the keys keeps each range's draws together
    offsets = counts.cumsum() - counts
    key = offsets[seg] + _below(rng, counts[seg])
    while True:
        key.sort()
        again = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not again.size:
            break
        key[again] = offsets[seg[again]] + _below(rng, counts[seg[again]])
    shift = starts - offsets
    if not left_out.any():
        return key + shift[seg]
    # a range that drew the ids it leaves out keeps all its other ids
    drawn_out = left_out[seg]
    kept = np.repeat(left_out, counts)
    kept[key[drawn_out]] = False
    kept = np.flatnonzero(kept)
    return np.concatenate([key[~drawn_out] + shift[seg[~drawn_out]],
                           kept + np.repeat(shift, counts)[kept]])


def build_x_phase2(index: PolarityIndex, word: int, q: int, a: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Two-level clause expansion into a literal vector (no negation closure).

    Level 1 samples min(a, available) clauses of the word's q polarity and
    gathers their literals once. Level 2 expands each of those literals
    that is an original feature (index < V), once per sampled clause that
    carries it: sample min(a, available) of that word's q-polarity clauses,
    none when it has none, and collect their literals too. Negated literals
    (index >= V) are activated but never expanded. Each level is one draw of
    uniform subsets from the store's polarity index, whose entries were
    checked when it was built.
    """
    if word not in index.words:
        raise ValueError(f"word {word} has no knowledge entry")
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    t = index.by_q[int(q)]
    first, n = t.word_ptr[word], t.word_ptr[word + 1] - t.word_ptr[word]
    if not n:
        raise ValueError(f"no q-polarity knowledge for word {word} (q={q})")
    ids = first + (rng.choice(n, size=a, replace=False) if n > a
                   else np.arange(n))
    literals = _gather(t.lit_ptr, t.literals, ids)
    words = literals[literals < index.V]
    starts = t.word_ptr[words]
    ids = _subsets(starts, t.word_ptr[words + 1] - starts, a, rng)
    x = np.zeros(2 * index.V, dtype=np.uint8)
    x[literals] = 1
    x[_gather(t.lit_ptr, t.literals, ids)] = 1
    return x


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
    fails (missing polarity knowledge) are skipped and counted into stats; a
    skip rate above 50% aborts.
    """
    targets = tuple(int(w) for w in targets)
    if not targets:
        raise ValueError("no target words")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target words")
    for w in targets:
        if w not in store.entries:
            raise ValueError(f"target word {w} missing from knowledge store")
    k = len(targets)
    index = PolarityIndex(store)
    rng = np.random.default_rng(cfg.seed)
    bank = init_bank(cfg.num_clauses, k, store.V, cfg.N, cfg.T, cfg.s)
    if stats is None:
        stats = Phase2Stats()
    for _ in range(cfg.epochs):
        for _ in range(cfg.r):
            order = rng.permutation(k)
            q = int(rng.integers(2))
            for oi in order:
                stats.attempts += 1
                try:
                    x = build_x_phase2(index, targets[oi], q, cfg.a, rng)
                except ValueError:
                    stats.skips += 1
                    stats.skipped_words[targets[oi]] += 1
                    continue
                update(bank, x, int(oi), q, rng)
        if stats.skips * 2 > stats.attempts:
            raise RuntimeError(
                f"phase 2 aborted: {stats.skips}/{stats.attempts} word "
                f"examples skipped (worst offenders: "
                f"{stats.skipped_words.most_common(5)})")
    rows = np.stack([extract_embedding(bank, o) for o in range(k)])
    return bank, EmbeddingMatrix(words=targets, rows=rows)


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
    is a zero row. A malformed or non-finite cell, a negative literal index,
    a literal listed twice in a sparse row, a dense row whose width differs
    from the file's other dense rows, a row wider than num_literals (a
    literal index at or above it, or more values), or a token seen twice
    raises ValueError naming the line.
    """
    tokens: list[str] = []
    parsed: list[tuple[bool, list]] = []
    first_line: dict[str, int] = {}
    width = num_literals or 0
    dense_width = dense_line = None
    with open_text(path) as fh:
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
            values = [v for _, v in cells] if is_sparse else cells
            # A finite sum has finite terms, and summing is about 4x cheaper
            # than testing each value; a non-finite sum may be an overflow.
            if not (math.isfinite(sum(values))
                    or all(map(math.isfinite, values))):
                raise ValueError(f"{where}: non-finite value")
            if is_sparse:
                literals = [l for l, _ in cells]
                if min(literals) < 0:
                    raise ValueError(f"{where}: negative literal index")
                if len(set(literals)) < len(literals):
                    twice = next(l for l, n in Counter(literals).items()
                                 if n > 1)
                    raise ValueError(f"{where}: literal {twice} listed twice")
                width = max(width, max(literals) + 1)
            elif cells:
                if dense_width is None:
                    dense_width, dense_line = len(cells), lineno
                elif len(cells) != dense_width:
                    raise ValueError(
                        f"{where}: {len(cells)} values, but line "
                        f"{dense_line} has {dense_width}")
                width = max(width, len(cells))
            if num_literals is not None and width > num_literals:
                raise ValueError(f"{where}: row is {width} literals wide, "
                                 f"more than {num_literals}")
            parsed.append((is_sparse, cells))
    rows = np.zeros((len(tokens), width), dtype=np.float64)
    for i, (is_sparse, cells) in enumerate(parsed):
        if is_sparse:
            for l, v in cells:
                rows[i, l] = v
        else:
            rows[i, :len(cells)] = cells
    return tokens, rows
