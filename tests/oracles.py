"""Independent reference implementations used to check the library.

Everything here is deliberately naive pure Python (loops and sets, no numpy
vector tricks) so it cannot share a bug with the code under test.
"""

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

from tmembed.knowledge import KnowledgeStore


# Per-word knowledge as it was before the clause arrays: one Clause tuple per
# clause. clause_tuples is how load turned the record arrays into tuples, and
# the one pairs view through which the tuple oracles below read a
# WordKnowledge; from_bank and filter_by_polarity are the library's, verbatim
# but for taking and returning Clause tuples instead of a WordKnowledge.

class Clause(NamedTuple):
    """Included-literal indices (strictly increasing, < 2V) and a nonzero signed weight."""

    literals: tuple[int, ...]
    weight: int


def clause_tuples(k) -> tuple[Clause, ...]:
    """k's clause arrays as one Clause per clause, in order."""
    lits = iter(k.clauses.literals.tolist())
    return tuple(Clause(literals=tuple(islice(lits, n)), weight=w)
                 for w, n in zip(k.clauses.weights.tolist(),
                                 k.clauses.counts.tolist()))


def from_bank(bank, word, output=0) -> tuple[Clause, ...]:
    """Extract every nonzero-weight clause of the given output as knowledge."""
    included = bank.included()
    return tuple(
        Clause(literals=tuple(included[c].nonzero()[0].tolist()), weight=w)
        for c, w in enumerate(bank.weights[:, output].tolist()) if w)


def filter_by_polarity(clauses, q: int) -> list[Clause]:
    """q=1 selects positive-weight clauses, q=0 negative-weight ones."""
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    if q == 1:
        return [c for c in clauses if c.weight > 0]
    return [c for c in clauses if c.weight < 0]


def df_ranking(raw_docs):
    """Document-frequency ranking, ties lexicographic."""
    df = Counter()
    for doc in raw_docs:
        for tok in set(doc):
            df[tok] += 1
    return sorted(df, key=lambda w: (-df[w], w))


def naive_clause_output(states, N, c, x, train_mode):
    """AND over included literals via an explicit loop."""
    any_included = False
    for l in range(len(x)):
        if states[c][l] > N:
            any_included = True
            if x[l] == 0:
                return 0
    if not any_included:
        return 1 if train_mode else 0
    return 1


def naive_predict(states, weights, N, x):
    """Dense re-implementation of the step-thresholded weighted clause vote."""
    num_clauses = len(states)
    num_outputs = len(weights[0])
    y = []
    for o in range(num_outputs):
        vote = 0
        for c in range(num_clauses):
            vote += weights[c][o] * naive_clause_output(states, N, c, x, False)
        y.append(1 if vote > 0 else 0)
    return y


def csr_rows(ptr, values):
    """Every row of a CSR table: row i is values[ptr[i]:ptr[i + 1]]."""
    return [values[ptr[i]:ptr[i + 1]] for i in range(len(ptr) - 1)]


def eligible_documents(doc_sets, word, q):
    """Brute-force scan for supporting (q=1) / non-supporting (q=0) documents."""
    return [d for d, words in enumerate(doc_sets) if (word in words) == bool(q)]


def two_level_union(entries, word, q, V):
    """Exhaustive two-level clause expansion (no sampling truncation).

    entries: word index -> list of (literals tuple, weight) pairs.
    Returns the exact set of activated literal indices.
    """
    def polarity(w):
        return [lits for lits, weight in entries.get(w, [])
                if (weight > 0) == bool(q) and weight != 0]

    active = set()
    for lits in polarity(word):
        for lit in lits:
            active.add(lit)
            if lit < V and lit in entries:
                for sub_lits in polarity(lit):
                    active.update(sub_lits)
    return active


def naive_embedding(states, weights, N, o):
    """Per-literal accumulation of clause weights via a double loop."""
    num_literals = len(states[0])
    e = [0.0] * num_literals
    for c in range(len(states)):
        for l in range(num_literals):
            if states[c][l] > N:
                e[l] += weights[c][o]
    return e


def pairwise_cosine_table(rows):
    """All-pairs cosine from first principles."""
    def cos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        return dot / (nu * nv)

    n = len(rows)
    return {(i, j): cos(rows[i], rows[j]) for i in range(n) for j in range(n)
            if i != j}


def nearest_words_loop(word, emb, n, order="most", exclude=frozenset()):
    """Cosine ranking one candidate at a time, ties on word index.

    The per-pair loop tmembed.augment.nearest_words used before it ranked
    with one matrix-vector product; kept as its reference.
    """
    import numpy as np

    if order not in ("most", "least"):
        raise ValueError(f"order must be 'most' or 'least', got {order!r}")
    try:
        i = emb.words.index(word)
    except ValueError:
        raise ValueError(f"word {word} has no embedding") from None
    v = emb.rows[i]
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("zero vector")
    norms = np.linalg.norm(emb.rows, axis=1)
    scored = []
    for j, w in enumerate(emb.words):
        if j == i or w in exclude or norms[j] == 0.0:
            continue
        sim = float(np.dot(v, emb.rows[j]) / (nv * norms[j]))
        scored.append((sim, w))
    if order == "most":
        scored.sort(key=lambda t: (-t[0], t[1]))
    else:
        scored.sort(key=lambda t: (t[0], t[1]))
    return [w for _, w in scored[:n]]


def load_store_fieldwise(path, vocab):
    """The knowledge store reader as it was before the record walker: reads
    field by field with struct and decodes every literal in a Python loop.

    Returns the KnowledgeStore, or raises ValueError with the same message
    knowledge.load gave for the first fault it met.
    """
    import struct
    from tmembed.knowledge import MAGIC, VERSION, WordKnowledge

    with open(path, "rb") as fh:
        data = fh.read()
    pos, last_good = 0, None

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise ValueError(
                f"corrupt knowledge file: truncated at byte {pos} "
                f"(last good word index: {last_good})")
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out

    magic, version, digest, V, count = take("<4sH32sII")
    if magic != MAGIC:
        raise ValueError("corrupt knowledge file: bad magic at byte 0")
    if version != VERSION:
        raise ValueError(f"unsupported knowledge format version {version}")
    if digest != vocab.digest() or V != vocab.size:
        raise ValueError("knowledge/vocabulary mismatch")
    store = KnowledgeStore(vocab_hash=digest, V=V)
    for _ in range(count):
        (record_len,) = take("<I")
        record_end = pos + record_len
        word, flag, msg_len = take("<IBH")
        msg = take(f"<{msg_len}s")[0].decode("utf-8")
        (clause_count,) = take("<I")
        clauses = []
        for _ in range(clause_count):
            weight, lit_count = take("<iI")
            lits = []
            prev = 0
            for i, delta in enumerate(take(f"<{lit_count}I") if lit_count else ()):
                prev = delta if i == 0 else prev + delta
                lits.append(prev)
            clauses.append(Clause(literals=tuple(lits), weight=weight))
        if pos != record_end:
            raise ValueError(
                f"corrupt knowledge file: record for word {word} ends at byte "
                f"{pos}, expected {record_end} (last good word index: {last_good})")
        for c in clauses:
            if c.weight == 0:
                raise ValueError(f"word {word}: clause with zero weight")
            prev = -1
            for lit in c.literals:
                if not prev < lit < 2 * V:
                    raise ValueError(
                        f"word {word}: literal indices must be strictly "
                        f"increasing and < {2 * V}")
                prev = lit
        if word >= V:
            raise ValueError(f"corrupt knowledge file: word index {word} >= V")
        store.entries[word] = WordKnowledge(word=word, clauses=tuple(clauses))
        if flag:
            store.failures[word] = msg
        last_good = word
    return store


# The knowledge store writer as it was before the clause codec: it checks
# and packs every literal in a Python loop. _validate_entry, _pack_record and
# the body of save_store_loopwise are that writer verbatim.

def _validate_entry(word, k, V):
    """What `save` checks of an entry; `_walk` checks the same of a record."""
    for c in clause_tuples(k):
        if c.weight == 0:
            raise ValueError(f"word {k.word}: clause with zero weight")
        prev = -1
        for lit in c.literals:
            if not prev < lit < 2 * V:
                raise ValueError(
                    f"word {k.word}: literal indices must be strictly "
                    f"increasing and < {2 * V}")
            prev = lit
    if k.word != word:
        raise ValueError(f"entry key {word} does not match knowledge word {k.word}")


def _pack_record(k, msg):
    clauses = clause_tuples(k)
    msg_bytes = (msg or "").encode("utf-8")
    parts = [struct.pack("<IBH", k.word, 1 if msg is not None else 0,
                         len(msg_bytes)), msg_bytes,
             struct.pack("<I", len(clauses))]
    for c in clauses:
        parts.append(struct.pack("<iI", c.weight, len(c.literals)))
        prev = 0
        deltas = []
        for lit in c.literals:  # first index lands absolute since prev starts at 0
            deltas.append(lit - prev)
            prev = lit
        if deltas:
            parts.append(struct.pack(f"<{len(deltas)}I", *deltas))
    payload = b"".join(parts)
    return struct.pack("<I", len(payload)) + payload


def save_store_loopwise(store, path):
    """Atomic whole-file write (temp file + rename)."""
    from tmembed.knowledge import _HEADER, MAGIC, VERSION, _write_atomic

    for word, k in store.entries.items():
        _validate_entry(word, k, store.V)
    parts = [_HEADER.pack(MAGIC, VERSION, store.vocab_hash, store.V,
                          len(store.entries))]
    for word in sorted(store.entries):
        parts.append(_pack_record(store.entries[word], store.failures.get(word)))
    _write_atomic(path, parts)


# Phase-2 input expansion as it was before the polarity index: it filters
# the knowledge store again for every word it expands, and samples clause by
# clause with rng.choice. build_x_phase2 below is that function verbatim, and
# literal_vector is the library helper it used, also verbatim.

def literal_vector(literals, V: int) -> np.ndarray:
    """Length-2V vector with exactly the given literal indices set; no closure."""
    x = np.zeros(2 * V, dtype=np.uint8)
    idx = np.fromiter(literals, dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= 2 * V:
            raise ValueError("literal index out of range")
        x[idx] = 1
    return x


def build_x_phase2(store: KnowledgeStore, word: int, q: int, a: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Two-level clause expansion into a literal vector (no negation closure).

    Level 1 samples min(a, available) clauses of the word's q polarity and
    collects their literals. Level 2 expands each collected literal that is an
    original feature with a knowledge entry: sample min(a, available) of that
    word's q-polarity clauses and collect their literals too. Negated literals
    (index >= V) are activated but never expanded.
    """
    entry = store.entries.get(word)
    if entry is None:
        raise ValueError(f"word {word} has no knowledge entry")
    filtered = filter_by_polarity(clause_tuples(entry), q)
    if not filtered:
        raise ValueError(f"no q-polarity knowledge for word {word} (q={q})")
    V = store.V
    active: set[int] = set()
    n = min(a, len(filtered))
    for j in rng.choice(len(filtered), size=n, replace=False):
        for lit in filtered[j].literals:
            active.add(lit)
            if lit >= V:
                continue
            sub_entry = store.entries.get(lit)
            if sub_entry is None:
                continue
            sub = filter_by_polarity(clause_tuples(sub_entry), q)
            if not sub:
                continue
            m = min(a, len(sub))
            for sj in rng.choice(len(sub), size=m, replace=False):
                active.update(sub[sj].literals)
    return literal_vector(active, V)


# Phase-1 input building and corpus vectorizing as they were before the
# direct scatter and the sorted inverted index; both verbatim.
# negation_closed_vector is the library helper the first used (and the
# classifier, before DocumentSet.vector), also verbatim.

def negation_closed_vector(features, V: int) -> np.ndarray:
    """Length-2V vector with the given feature indices set and the negation half filled."""
    x = np.zeros(2 * V, dtype=np.uint8)
    idx = np.asarray(list(features), dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= V:
            raise ValueError("feature index out of range")
        x[idx] = 1
    x[V:] = 1 - x[:V]
    return x


def build_x_from_documents(ds, pools, word, q, a, rng):
    """Union the word sets of the documents picked from the word's pools
    into a negation-closed vector."""
    from tmembed.phase1 import pick_documents

    picked = pick_documents(pools, word, q, a, rng)
    if picked.size:
        docs = csr_rows(ds.ptr, ds.words)
        features = np.unique(np.concatenate([docs[d] for d in picked]))
    else:
        features = ()
    return negation_closed_vector(features, ds.V)


def vectorize_loopwise(raw_docs, vocab):
    """Each document's sorted in-vocabulary word ids and each word's
    ascending document ids, as two lists of int64 arrays; out-of-vocabulary
    tokens are dropped."""
    index_of = vocab.index_of
    docs = []
    inverted: list[list[int]] = [[] for _ in range(vocab.size)]
    for d, doc in enumerate(raw_docs):
        seen = {index_of[t] for t in doc if t in index_of}
        idx = np.array(sorted(seen), dtype=np.int64)
        docs.append(idx)
        for w in idx:
            inverted[w].append(d)
    inv = [np.array(ids, dtype=np.int64) for ids in inverted]
    return docs, inv


# The clause bank and its update as they were before the bank kept its
# include mask: every call recomputed states > N over all C x 2V cells.
# DenseBank is that ClauseBank, renamed; it and the helpers below are
# verbatim. update is the library's update as it was before the feedback
# masks came from random bytes: with draw=float_draw (the default) it draws
# a float64 uniform per cell, and it is the law reference. byte_update is the
# same update with draw=byte_draw, whose masks come from bernoulli_mask; the
# lockstep test steps it beside the library's update on copies of one bank.

@dataclass
class DenseBank:
    """Automata states plus per-output clause weights and the update hyperparameters.

    states:  [num_clauses, 2V] ints in [1, 2N]
    weights: [num_clauses, num_outputs] signed ints, start at 0
    """

    states: np.ndarray
    weights: np.ndarray
    N: int
    T: int
    s: float

    @property
    def num_clauses(self) -> int:
        return self.states.shape[0]

    @property
    def num_literals(self) -> int:
        return self.states.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.weights.shape[1]

    def included(self) -> np.ndarray:
        """Boolean [num_clauses, 2V]: literal is part of the clause conjunction."""
        return self.states > self.N


def _check_input(bank: DenseBank, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != bank.num_literals:
        raise ValueError(
            f"dimension mismatch: expected literal vector of length "
            f"{bank.num_literals}, got shape {x.shape}")
    return x


def _clause_outputs(bank: DenseBank, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(train-mode, infer-mode) outputs for every clause.

    A clause fires when every included literal is 1 in x. A clause with no
    included literals fires in train mode but not in infer mode.
    """
    included = bank.included()
    violated = (included & (x == 0)[None, :]).any(axis=1)
    out_train = ~violated
    out_infer = out_train & included.any(axis=1)
    return out_train, out_infer


def _clamped_vote(bank: DenseBank, out_infer: np.ndarray, o: int) -> int:
    if not 0 <= o < bank.num_outputs:
        raise ValueError(f"output id {o} out of range")
    v = int(bank.weights[:, o].astype(np.int64) @ out_infer)
    return max(-bank.T, min(bank.T, v))


def bernoulli_mask(bitgen, shape, p):
    """Boolean mask of the given shape, cell by cell True iff U < p.

    Each cell reads its uniform U = 0.b1 b2 ... one random byte at a time.
    After k bytes it is decided when the integer b1...bk differs from
    floor(p * 256**k), or ties it where p * 256**k is a whole number (then
    U >= p). The bytes come in rounds: the first byte of every cell, then one
    more for each cell still undecided, in cell order. Each round reads
    fresh 64-bit words from bitgen.random_raw, least significant byte first,
    and drops the unused bytes of its last word.
    """
    p = Fraction(p)
    cells = shape[0] * shape[1]
    prefix = [0] * cells
    decided = [False] * cells
    pending = list(range(cells))
    k = 0
    while True:
        bound = p * 256 ** k
        floor_k = math.floor(bound)
        undecided = []
        for c in pending:
            if prefix[c] < floor_k:
                decided[c] = True
            elif prefix[c] == floor_k and bound != floor_k:
                undecided.append(c)
        pending = undecided
        if not pending:
            return np.array(decided, dtype=bool).reshape(shape)
        words = bitgen.random_raw((len(pending) + 7) // 8)
        stream = b"".join(int(w).to_bytes(8, "little") for w in words)
        for c, byte in zip(pending, stream):
            prefix[c] = prefix[c] * 256 + byte
        k += 1


def float_draw(rng, shape, s):
    """(raise true literals, lower literals) masks from one float per cell."""
    u = rng.random(shape)
    return u < (s - 1.0) / s, u < 1.0 / s


def byte_draw(rng, shape, s):
    """The same two masks from one bernoulli_mask m at rate 1/s: (~m, m)."""
    m = bernoulli_mask(rng.bit_generator, shape, 1.0 / s)
    return ~m, m


def update(bank: DenseBank, x, o: int, q: int, rng: np.random.Generator,
           draw=float_draw) -> None:
    """One training step on output o with target bit q.

    Each clause is selected independently with probability
    (T - clamp(v)) / 2T when q=1, (T + clamp(v)) / 2T when q=0, where v is the
    clamped vote sum for o. Selected clauses receive one of three updates keyed
    on their train-mode output:

      q=1, fires:       memorize true literals w.p. (s-1)/s, forget false ones
                        w.p. 1/s; weight[o] += 1
      q=1, silent:      forget every literal w.p. 1/s
      q=0, fires:       bump every excluded false literal one step toward
                        inclusion (deterministic); weight[o] -= 1
      q=0, silent:      nothing

    States saturate at [1, 2N].
    """
    x = _check_input(bank, x)
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")

    out_train, out_infer = _clause_outputs(bank, x)
    v = _clamped_vote(bank, out_infer, o)
    p_act = (bank.T - v) / (2 * bank.T) if q == 1 else (bank.T + v) / (2 * bank.T)
    active = rng.random(bank.num_clauses) < p_act

    x_false = x == 0
    lo, hi = 1, 2 * bank.N
    if q == 1:
        memorize = active & out_train
        forget = active & ~out_train
        n_mem = int(memorize.sum())
        if n_mem:
            up, down = draw(rng, (n_mem, bank.num_literals), bank.s)
            rows = bank.states[memorize]
            rows += (~x_false)[None, :] & up
            rows -= x_false[None, :] & down
            np.clip(rows, lo, hi, out=rows)
            bank.states[memorize] = rows
            bank.weights[memorize, o] += 1
        n_forget = int(forget.sum())
        if n_forget:
            _, down = draw(rng, (n_forget, bank.num_literals), bank.s)
            rows = bank.states[forget]
            rows -= down
            np.clip(rows, lo, hi, out=rows)
            bank.states[forget] = rows
    else:
        invalidate = active & out_train
        if invalidate.any():
            rows = bank.states[invalidate]
            rows += x_false[None, :] & (rows <= bank.N)
            bank.states[invalidate] = rows
            bank.weights[invalidate, o] -= 1


def byte_update(bank: DenseBank, x, o: int, q: int,
                rng: np.random.Generator) -> None:
    """update with feedback masks from random bytes, as cotm.update draws them."""
    update(bank, x, o, q, rng, draw=byte_draw)


# Phase 1 as it was before words trained in lockstep batches: each word on a
# bank of its own, one update per example. Verbatim, but on DenseBank with
# byte_update, and returning Clause tuples.

def train_word_loopwise(ds, word, cfg) -> tuple[Clause, ...]:
    """One word's nonzero-weight clauses after training it alone."""
    from tmembed.phase1 import document_pools

    if not 0 <= word < ds.V:
        raise ValueError(f"word index {word} out of range")
    pools = document_pools(ds, word)
    if pools[1].size == 0:
        raise ValueError(f"no supporting documents for word {word}")
    rng = np.random.default_rng([cfg.seed, word])
    shape = (cfg.num_clauses, 2 * ds.V)
    bank = DenseBank(states=np.full(shape, cfg.N, dtype=np.int32),
                     weights=np.zeros((cfg.num_clauses, 1), dtype=np.int32),
                     N=cfg.N, T=cfg.T, s=cfg.s)
    for _ in range(cfg.epochs):
        for _ in range(cfg.r):
            q = int(rng.integers(2))
            x = build_x_from_documents(ds, pools, word, q, cfg.a, rng)
            byte_update(bank, x, 0, q, rng)
    return from_bank(bank, word)
