"""Per-word clause knowledge: extraction, polarity filtering, durable storage.

Binary store layout (all integers little-endian, fixed width):

    header:
        magic          4 bytes  b"TMKS"
        version        u16      currently 2
        vocab_digest   32 bytes sha256 of the bound vocabulary
        V              u32      vocabulary size
        record_count   u32
    record, repeated record_count times (ascending word index):
        record_len     u32      byte length of the payload that follows
        word           u32
        flag           u8       0 = trained, 1 = training failed
        msg_len        u16      UTF-8 failure message length (0 when trained)
        msg            msg_len bytes
        clause_count   u32      n
        weights        i32 x n            each clause's nonzero weight
        counts         u32 x n            each clause's literal count
        literals       u32 x sum(counts)  every clause's literals in order,
                                          absolute, strictly increasing
                                          within a clause and < 2V

A record's three columns are the word's clause arrays (`ClauseArrays`) as
they are held in memory. `load` checks the header, reads each column with
one `np.frombuffer` once it has checked that the column fits in the file,
and checks that records ascend by word and end exactly at the end of the
file. `save` checks every entry and failure, then writes the whole file
atomically. Both, and Phase 2's polarity index, check clauses by one
rule, `clause_error`. `replace_word` (`phase1 --word`) is a `load`, one
entry set and a `save`.
"""

from __future__ import annotations

import os
import struct
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Vocabulary
from .cotm import ClauseBank

MAGIC = b"TMKS"
VERSION = 2
_HEADER = struct.Struct("<4sH32sII")
_RECORD = struct.Struct("<IBH")  # word, flag, msg_len
_U32 = struct.Struct("<I")


class ClauseArrays(NamedTuple):
    """Clauses as int64 arrays: each one's nonzero weight and literal count,
    then all their literals (strictly increasing per clause, < 2V) in order."""

    weights: np.ndarray
    counts: np.ndarray
    literals: np.ndarray


NO_CLAUSES = ClauseArrays(*np.zeros((3, 0), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class WordKnowledge:
    """A word's clause arrays; (literals, weight) pairs become arrays."""

    word: int
    clauses: ClauseArrays | Iterable[tuple[Iterable[int], int]]

    def __post_init__(self):
        if isinstance(self.clauses, ClauseArrays):
            return
        try:  # beyond int64 is beyond u32 too
            pairs = [(np.fromiter(lits, np.int64), w) for lits, w in self.clauses]
        except OverflowError:
            raise ValueError(f"word {self.word}: clause literal outside the "
                             "int64 range") from None
        try:  # beyond int64 is beyond i32 too
            weights = np.array([w for _, w in pairs], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"word {self.word}: clause weight outside the "
                             "i32 range") from None
        object.__setattr__(self, "clauses", ClauseArrays(
            weights, np.array([lits.size for lits, _ in pairs], dtype=np.int64),
            np.concatenate([NO_CLAUSES.literals, *(lits for lits, _ in pairs)])))

    def __eq__(self, other) -> bool:
        return (isinstance(other, WordKnowledge) and self.word == other.word
                and all(map(np.array_equal, self.clauses, other.clauses)))


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
    if not 0 <= output < bank.num_outputs:
        raise ValueError(f"output id {output} out of range")
    weights = bank.weights[:, output].astype(np.int64)
    rows = bank.included()[weights != 0]
    return WordKnowledge(word, ClauseArrays(  # nonzero() goes row by row
        weights[weights != 0], rows.sum(1, dtype=np.int64),
        rows.nonzero()[1].astype(np.int64)))


def filter_by_polarity(knowledge: WordKnowledge, q: int) -> WordKnowledge:
    """q=1 keeps the positive-weight clauses, q=0 the negative-weight ones."""
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    weights, counts, lits = knowledge.clauses
    keep = weights > 0 if q == 1 else weights < 0
    return WordKnowledge(knowledge.word, ClauseArrays(
        weights[keep], counts[keep], lits[keep.repeat(counts)]))


def clause_error(word: int, clauses: ClauseArrays, V: int) -> str | None:
    """The clause rule, for a record read, an entry to write and Phase 2's
    index alike: the message for a weight outside the i32 range, else for
    the first of these clauses with a zero weight or with literals not
    strictly increasing in [0, 2V), else None. Weights are checked before
    anything is encoded, so one too large for its i32 cell is rejected, not
    wrapped."""
    weights, counts, lits = clauses
    if weights.size and not -2**31 <= weights.min() <= weights.max() < 2**31:
        return f"word {word}: clause weight outside the i32 range"
    starts = counts.cumsum() - counts
    # unordered[i]: literal i is not above the literal before it in its clause
    unordered = np.zeros(lits.size + 1, dtype=bool)
    unordered[1:-1] = lits[1:] <= lits[:-1]
    unordered[starts] = False
    # as uint64 a negative literal is >= 2**63, so out of range too
    bad = np.flatnonzero(unordered[:-1] | (lits.view(np.uint64) >= 2 * V))
    # up to the first clause with a bad literal; weights are checked first
    upto = np.searchsorted(starts, bad[0], side="right") if bad.size else None
    if not weights[:upto].all():
        return f"word {word}: clause with zero weight"
    if bad.size:
        return (f"word {word}: literal indices must be strictly increasing "
                f"and < {2 * V}")
    return None


def _pack_record(word: int, k: WordKnowledge, msg: str | None, V: int) -> bytes:
    """Check an entry against its key, V and the clause rule, and its
    failure message against its u16 length field, then encode them as a
    record. The arrays are checked before they are encoded, so a literal
    too large for its u32 cell is rejected, not wrapped."""
    weights, counts, lits = k.clauses
    err = clause_error(k.word, k.clauses, V)
    if err:
        raise ValueError(err)
    if k.word != word:
        raise ValueError(f"entry key {word} does not match knowledge word {k.word}")
    if not 0 <= word < V:
        raise ValueError(f"word index {word} out of range")
    msg_bytes = (msg or "").encode("utf-8")
    if len(msg_bytes) > 0xFFFF:
        raise ValueError(f"word {word}: failure message longer than 65535 "
                         "UTF-8 bytes")
    payload = b"".join([
        _RECORD.pack(word, 1 if msg is not None else 0, len(msg_bytes)),
        msg_bytes, _U32.pack(counts.size), weights.astype("<i4").tobytes(),
        counts.astype("<u4").tobytes(), lits.astype("<u4").tobytes()])
    return _U32.pack(len(payload)) + payload


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
    """Atomic whole-file write (temp file + rename); every entry, then every
    failure, is checked before anything is written."""
    records = {word: _pack_record(word, k, store.failures.get(word), store.V)
               for word, k in store.entries.items()}
    orphans = sorted(store.failures.keys() - records.keys())
    if orphans:
        raise ValueError(f"word {orphans[0]}: failure message without an entry")
    _write_atomic(path, [_HEADER.pack(MAGIC, VERSION, store.vocab_hash,
                                      store.V, len(records))]
                  + [records[word] for word in sorted(records)])


def load(path, vocab: Vocabulary) -> KnowledgeStore:
    """Load a store and check it against vocab; raises ValueError naming
    the first fault."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    last_good = None  # word of the last record checked whole

    def take(n: int) -> int:
        """Where the next n bytes start, once they are known to be in the
        file; a cut is reported at the first byte of the field it cuts."""
        nonlocal pos
        if pos + n > len(data):
            raise ValueError(f"corrupt knowledge file: truncated at byte {pos} "
                             f"(last good word index: {last_good})")
        pos += n
        return pos - n

    def column(dtype: str, n: int) -> np.ndarray:
        return np.frombuffer(data, dtype, n, take(4 * n)).astype(np.int64)

    magic, version, digest, V, count = _HEADER.unpack_from(data, take(_HEADER.size))
    if magic != MAGIC:
        raise ValueError("corrupt knowledge file: bad magic at byte 0")
    if version != VERSION:
        raise ValueError(f"unsupported knowledge format version {version}")
    if digest != vocab.digest() or V != vocab.size:
        raise ValueError("knowledge/vocabulary mismatch")
    store = KnowledgeStore(vocab_hash=digest, V=V)
    for _ in range(count):
        start = pos
        (record_len,) = _U32.unpack_from(data, take(4))
        word, flag, msg_len = _RECORD.unpack_from(data, take(_RECORD.size))
        at = take(msg_len)
        try:
            msg = data[at:pos].decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(
                f"corrupt knowledge file: failure message of word {word} at "
                f"byte {at + err.start} is not UTF-8 "
                f"(last good word index: {last_good})") from None
        (n,) = _U32.unpack_from(data, take(4))
        weights, counts = column("<i4", n), column("<u4", n)
        clauses = ClauseArrays(weights, counts, column("<u4", int(counts.sum())))
        if pos != start + 4 + record_len:
            raise ValueError(
                f"corrupt knowledge file: record for word {word} ends at byte "
                f"{pos}, expected {start + 4 + record_len} "
                f"(last good word index: {last_good})")
        err = clause_error(word, clauses, V)
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
        store.entries[word] = WordKnowledge(word, clauses)
        if flag:
            store.failures[word] = msg
        last_good = word
    if pos != len(data):
        raise ValueError(
            f"corrupt knowledge file: {len(data) - pos} bytes after the last "
            f"of {count} records, at byte {pos} (last good word index: "
            f"{last_good})")
    return store


def replace_word(path, vocab: Vocabulary, word: int,
                 train: Callable[[], tuple[WordKnowledge, str | None]]) -> None:
    """Put the (entry, failure message) that train() returns for word into
    the store at path: the store is loaded, so checked whole, before train
    runs; then the word's entry is set, its failure set to the message (or
    dropped, when it is None), and the store saved."""
    store = load(path, vocab)
    if not 0 <= word < vocab.size:
        raise ValueError(f"word index {word} out of range")
    store.entries[word], msg = train()
    if msg is None:
        store.failures.pop(word, None)
    else:
        store.failures[word] = msg
    save(store, path)


def export_text(store: KnowledgeStore, vocab: Vocabulary, path) -> None:
    """Human-readable dump: per word, one clause per line as
    "literal AND literal AND ¬literal @weight"."""
    names = [*vocab.words, *("¬" + w for w in vocab.words)]
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(store.entries):
            fh.write(f"= {vocab.words[word]}\n")
            if word in store.failures:
                fh.write(f"  (training failed: {store.failures[word]})\n")
            weights, counts, lits = store.entries[word].clauses
            clauses = np.split(lits, counts.cumsum()[:-1])
            for w, clause in zip(weights.tolist(), clauses):
                body = " AND ".join(names[l] for l in clause.tolist())
                fh.write(f"  {body or '(empty)'} @{w:+d}\n")
