"""Per-word clause knowledge: extraction, polarity filtering, durable storage.

Binary store layout (all integers little-endian, fixed width):

    header:
        magic          4 bytes  b"TMKS"
        version        u16      currently 1
        vocab_digest   32 bytes sha256 of the bound vocabulary
        V              u32      vocabulary size
        record_count   u32
    record, repeated record_count times (ascending word index):
        record_len     u32      byte length of the payload that follows
        word           u32
        flag           u8       0 = trained, 1 = training failed
        msg_len        u16      UTF-8 failure message length (0 when trained)
        msg            msg_len bytes
        clause_count   u32
        clause, repeated clause_count times:
            weight         i32  nonzero
            literal_count  u32
            literals       u32 x literal_count, delta encoded: first index
                           absolute, the rest offsets from the previous one

Records are length-prefixed, but nothing seeks by them yet: `load` reads and
verifies the whole file, and retraining a single word (`phase1 --word`) loads
the store and rewrites all of it with `save`.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple

from .corpus import Vocabulary
from .cotm import ClauseBank

MAGIC = b"TMKS"
VERSION = 1


class Clause(NamedTuple):
    """Included-literal indices (strictly increasing, < 2V) and a nonzero signed weight."""

    literals: tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class WordKnowledge:
    word: int
    clauses: tuple[Clause, ...]


@dataclass
class KnowledgeStore:
    """All per-word knowledge bound to one vocabulary by digest.

    Words whose training failed keep an empty entry plus a message in
    `failures`, so the store always covers the trained word set.
    """

    vocab_hash: bytes
    V: int
    entries: dict[int, WordKnowledge] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


def from_bank(bank: ClauseBank, word: int, output: int = 0) -> WordKnowledge:
    """Extract every nonzero-weight clause of the given output as knowledge."""
    clauses = []
    included = bank.included()
    weights = bank.weights[:, output]
    for c in range(bank.num_clauses):
        w = int(weights[c])
        if w == 0:
            continue
        lits = tuple(int(l) for l in included[c].nonzero()[0])
        clauses.append(Clause(literals=lits, weight=w))
    return WordKnowledge(word=word, clauses=tuple(clauses))


def filter_by_polarity(knowledge: WordKnowledge, q: int) -> list[Clause]:
    """q=1 selects positive-weight clauses, q=0 negative-weight ones."""
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    if q == 1:
        return [c for c in knowledge.clauses if c.weight > 0]
    return [c for c in knowledge.clauses if c.weight < 0]


def _validate_knowledge(k: WordKnowledge, V: int) -> None:
    for c in k.clauses:
        if c.weight == 0:
            raise ValueError(f"word {k.word}: clause with zero weight")
        prev = -1
        for lit in c.literals:
            if not prev < lit < 2 * V:
                raise ValueError(
                    f"word {k.word}: literal indices must be strictly "
                    f"increasing and < {2 * V}")
            prev = lit


def _pack_record(k: WordKnowledge, msg: str | None) -> bytes:
    msg_bytes = (msg or "").encode("utf-8")
    parts = [struct.pack("<IBH", k.word, 1 if msg is not None else 0,
                         len(msg_bytes)), msg_bytes,
             struct.pack("<I", len(k.clauses))]
    for c in k.clauses:
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


def save(store: KnowledgeStore, path) -> None:
    """Atomic whole-file write (temp file + rename)."""
    for word, k in store.entries.items():
        _validate_knowledge(k, store.V)
        if k.word != word:
            raise ValueError(f"entry key {word} does not match knowledge word {k.word}")
    blob = [struct.pack("<4sH32sII", MAGIC, VERSION, store.vocab_hash,
                        store.V, len(store.entries))]
    for word in sorted(store.entries):
        blob.append(_pack_record(store.entries[word], store.failures.get(word)))
    data = b"".join(blob)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.last_good: int | None = None  # word of the last record read whole

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise ValueError(
                f"corrupt knowledge file: truncated at byte {self.pos} "
                f"(last good word index: {self.last_good})")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out


def load(path, vocab: Vocabulary) -> KnowledgeStore:
    """Load and verify a store; the vocabulary digest must match."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic, version, digest, V, count = r.take("<4sH32sII")
    if magic != MAGIC:
        raise ValueError("corrupt knowledge file: bad magic at byte 0")
    if version != VERSION:
        raise ValueError(f"unsupported knowledge format version {version}")
    if digest != vocab.digest() or V != vocab.size:
        raise ValueError("knowledge/vocabulary mismatch")
    store = KnowledgeStore(vocab_hash=digest, V=V)
    for _ in range(count):
        (record_len,) = r.take("<I")
        record_end = r.pos + record_len
        word, flag, msg_len = r.take("<IBH")
        msg = r.take(f"<{msg_len}s")[0].decode("utf-8")
        (clause_count,) = r.take("<I")
        clauses = []
        for _ in range(clause_count):
            weight, lit_count = r.take("<iI")
            lits = []
            prev = 0
            for i, delta in enumerate(r.take(f"<{lit_count}I") if lit_count else ()):
                prev = delta if i == 0 else prev + delta
                lits.append(prev)
            clauses.append(Clause(literals=tuple(lits), weight=weight))
        if r.pos != record_end:
            raise ValueError(
                f"corrupt knowledge file: record for word {word} ends at byte "
                f"{r.pos}, expected {record_end} (last good word index: {r.last_good})")
        k = WordKnowledge(word=word, clauses=tuple(clauses))
        _validate_knowledge(k, V)
        if word >= V:
            raise ValueError(f"corrupt knowledge file: word index {word} >= V")
        store.entries[word] = k
        if flag:
            store.failures[word] = msg
        r.last_good = word
    return store


def export_text(store: KnowledgeStore, vocab: Vocabulary, path) -> None:
    """Human-readable dump: per word, one clause per line as
    "literal AND literal AND ¬literal @weight"."""
    V = store.V
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(store.entries):
            fh.write(f"= {vocab.words[word]}\n")
            if word in store.failures:
                fh.write(f"  (training failed: {store.failures[word]})\n")
            for c in store.entries[word].clauses:
                terms = [vocab.words[l] if l < V else "¬" + vocab.words[l - V]
                         for l in c.literals]
                body = " AND ".join(terms) if terms else "(empty)"
                fh.write(f"  {body} @{c.weight:+d}\n")
