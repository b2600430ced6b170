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

Every reader goes through one record walker. It checks the header and each
record in numpy, without turning literals into Python ints, and yields each
record's word and byte span; records must ascend by word and end exactly at
the end of the file. `load` then decodes each span. Retraining a single word
(`phase1 --word`) uses `replace_word`: it walks the file, packs the new
record, copies every other record's bytes unchanged, and writes the result
with the same temp-file + rename as `save`. The splice writes exactly the
bytes `save` would write for the loaded, updated store.
"""

from __future__ import annotations

import os
import struct
import tempfile
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .corpus import Vocabulary
from .cotm import ClauseBank

MAGIC = b"TMKS"
VERSION = 1
_HEADER = struct.Struct("<4sH32sII")
_RECORD = struct.Struct("<IIBH")  # record_len, word, flag, msg_len
_U32 = struct.Struct("<I")


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


def _validate_entry(word: int, k: WordKnowledge, V: int) -> None:
    """What `save` checks of an entry; `_walk` checks the same of a record."""
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
    if k.word != word:
        raise ValueError(f"entry key {word} does not match knowledge word {k.word}")


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


def as_entry(word: int, result: WordKnowledge | ValueError
             ) -> tuple[WordKnowledge, str | None]:
    """A word's training result as its store entry and failure message:
    a failure becomes an empty entry plus the error's text."""
    if isinstance(result, ValueError):
        return WordKnowledge(word=word, clauses=()), str(result)
    return result, None


def _write_atomic(path, parts) -> None:
    """Write the concatenated parts to path via a temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(store: KnowledgeStore, path) -> None:
    """Atomic whole-file write (temp file + rename)."""
    for word, k in store.entries.items():
        _validate_entry(word, k, store.V)
    parts = [_HEADER.pack(MAGIC, VERSION, store.vocab_hash, store.V,
                          len(store.entries))]
    for word in sorted(store.entries):
        parts.append(_pack_record(store.entries[word], store.failures.get(word)))
    _write_atomic(path, parts)


class _Span(NamedTuple):
    word: int
    start: int  # offset of the record's record_len
    end: int    # offset just past the record


def _clause_error(data: bytes, body: int, end: int, heads: list[int],
                  word: int, V: int) -> str | None:
    """What `_validate_entry` would say about a record's clauses, else None.

    data[body:end] are the record's u32 cells from clause_count on; heads
    are the byte offsets of each clause's weight cell (its literal_count
    follows).
    """
    cells = np.frombuffer(data, dtype="<u4", count=(end - body) // 4,
                          offset=body)
    h = (np.asarray(heads, dtype=np.intp) - body) // 4
    zero = cells[h].view("<i4") == 0
    n = cells[h + 1].astype(np.intp)
    literal = np.ones(cells.size, dtype=bool)
    literal[0] = False
    literal[h] = literal[h + 1] = False
    deltas = np.where(literal, cells, 0).astype(np.int64)
    # After the first literal of a clause every delta must be positive, and
    # then the last literal, the clause's delta sum, is its largest.
    stall = literal & (deltas == 0)
    stall[h[n > 0] + 2] = False
    sums = np.cumsum(deltas)
    bad = (n > 0) & (sums[h + 1 + n] - sums[h + 1] >= 2 * V)
    bad[np.searchsorted(h, np.flatnonzero(stall), side="right") - 1] = True
    bad |= zero
    if not bad.any():
        return None
    if zero[np.argmax(bad)]:
        return f"word {word}: clause with zero weight"
    return (f"word {word}: literal indices must be strictly increasing "
            f"and < {2 * V}")


def _walk(data: bytes, vocab: Vocabulary) -> list[_Span]:
    """Check a whole store against vocab; every record's word and byte span.

    Raises ValueError naming the first fault, in file order.
    """
    size = len(data)
    last_good = None  # word of the last record checked whole

    def truncated(pos: int) -> ValueError:
        return ValueError(f"corrupt knowledge file: truncated at byte {pos} "
                          f"(last good word index: {last_good})")

    if _HEADER.size > size:
        raise truncated(0)
    magic, version, digest, V, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError("corrupt knowledge file: bad magic at byte 0")
    if version != VERSION:
        raise ValueError(f"unsupported knowledge format version {version}")
    if digest != vocab.digest() or V != vocab.size:
        raise ValueError("knowledge/vocabulary mismatch")
    spans = []
    pos = _HEADER.size
    for _ in range(count):
        start = pos
        # A cut is reported at the first field it cuts: record_len, then
        # word, flag and msg_len together.
        if pos + _RECORD.size > size:
            raise truncated(pos if pos + 4 > size else pos + 4)
        record_len, word, flag, msg_len = _RECORD.unpack_from(data, pos)
        pos += _RECORD.size
        if pos + msg_len > size:
            raise truncated(pos)
        data[pos:pos + msg_len].decode("utf-8")  # raises unless UTF-8
        pos += msg_len
        if pos + 4 > size:
            raise truncated(pos)
        body = pos
        (clause_count,) = _U32.unpack_from(data, pos)
        pos += 4
        heads = []
        for _ in range(clause_count):
            if pos + 8 > size:
                raise truncated(pos)
            heads.append(pos)
            (n,) = _U32.unpack_from(data, pos + 4)
            pos += 8
            if pos + 4 * n > size:
                raise truncated(pos)
            pos += 4 * n
        if pos != start + 4 + record_len:
            raise ValueError(
                f"corrupt knowledge file: record for word {word} ends at byte "
                f"{pos}, expected {start + 4 + record_len} "
                f"(last good word index: {last_good})")
        err = heads and _clause_error(data, body, pos, heads, word, V)
        if err:
            raise ValueError(err)
        if word >= V:
            raise ValueError(f"corrupt knowledge file: word index {word} >= V")
        if flag > 1 or (flag == 0 and msg_len):
            raise ValueError(
                f"corrupt knowledge file: record for word {word} has flag "
                f"{flag} and a {msg_len}-byte message "
                f"(last good word index: {last_good})")
        if last_good is not None and word <= last_good:
            raise ValueError(
                f"corrupt knowledge file: record for word {word} at byte "
                f"{start} is out of order (last good word index: {last_good})")
        spans.append(_Span(word, start, pos))
        last_good = word
    if pos != size:
        raise ValueError(
            f"corrupt knowledge file: {size - pos} bytes after the last of "
            f"{count} records, at byte {pos} (last good word index: {last_good})")
    return spans


def _decode(data: bytes, span: _Span) -> tuple[WordKnowledge, str | None]:
    _, word, flag, msg_len = _RECORD.unpack_from(data, span.start)
    body = span.start + _RECORD.size + msg_len
    msg = data[body - msg_len:body].decode("utf-8") if flag else None
    cells = np.frombuffer(data, dtype="<u4", count=(span.end - body) // 4,
                          offset=body).tolist()
    clauses = []
    i = 1  # cells[0] is clause_count
    while i < len(cells):
        weight, n = cells[i], cells[i + 1]
        i += 2
        clauses.append(Clause(literals=tuple(accumulate(cells[i:i + n])),
                              weight=weight - (weight >> 31 << 32)))  # as i32
        i += n
    return WordKnowledge(word=word, clauses=tuple(clauses)), msg


def load(path, vocab: Vocabulary) -> KnowledgeStore:
    """Load and verify a store; the vocabulary digest must match."""
    with open(path, "rb") as fh:
        data = fh.read()
    spans = _walk(data, vocab)
    store = KnowledgeStore(vocab_hash=vocab.digest(), V=vocab.size)
    for span in spans:
        store.entries[span.word], msg = _decode(data, span)
        if msg is not None:
            store.failures[span.word] = msg
    return store


def replace_word(path, vocab: Vocabulary, word: int,
                 train: Callable[[], WordKnowledge | ValueError]) -> None:
    """Put train()'s result for word into the store at path, in place.

    The store is checked whole before train runs. The word's record is
    replaced, or inserted in word order; every other record's bytes are
    copied unchanged. The file written is byte for byte what `save` writes
    for the loaded store after `as_entry(word, train())`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    spans = _walk(data, vocab)
    if not 0 <= word < vocab.size:
        raise ValueError(f"word index {word} out of range")
    k, msg = as_entry(word, train())
    _validate_entry(word, k, vocab.size)
    i = bisect_left([s.word for s in spans], word)
    replaced = i < len(spans) and spans[i].word == word
    start = spans[i].start if i < len(spans) else len(data)
    stop = spans[i].end if replaced else start
    count = len(spans) + (0 if replaced else 1)
    _write_atomic(path, [
        _HEADER.pack(MAGIC, VERSION, vocab.digest(), vocab.size, count),
        data[_HEADER.size:start], _pack_record(k, msg), data[stop:]])


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
