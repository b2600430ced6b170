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

A word's clauses have one form, in memory and between memory and bytes:
its clause arrays (per-clause weights, per-clause literal counts, every
absolute literal in order). The record walker decodes each record's (the
one delta decoder) and `load` keeps them; `save` and `replace_word` encode
each entry's (the one delta encoder); both check them by one clause rule.
The walker also checks the header and that records ascend by word and end
exactly at the end of the file. `replace_word` (`phase1 --word`) packs the
new record and copies every other record's bytes unchanged: exactly the
bytes `save` writes for the loaded, updated store.
"""

from __future__ import annotations

import os
import struct
import tempfile
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Vocabulary
from .cotm import ClauseBank

MAGIC = b"TMKS"
VERSION = 1
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


def _cells(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where clauses with these literal counts sit among a record's u32
    cells from clause_count (cell 0) on: each clause's first index into the
    flat literal array, each clause's weight cell (its literal_count
    follows), and every literal's cell."""
    starts = counts.cumsum() - counts
    heads = np.arange(1, 2 * counts.size, 2)  # cell 0 + 2 per earlier clause
    ahead = (heads + 2).repeat(counts)
    return starts, starts + heads, ahead + np.arange(ahead.size)


def _clause_error(word: int, clauses: ClauseArrays, V: int) -> str | None:
    """The clause rule, for a record read and an entry to write alike: the
    message for the first of these clauses with a zero weight or with
    literals not strictly increasing in [0, 2V), else None."""
    weights, counts, lits = clauses
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
    """Check an entry against its key and the clause rule, then encode it as
    a record. The arrays are checked before they are encoded, so a literal
    too large for its u32 cell is rejected, not wrapped, and so is a weight
    too large for its i32 cell."""
    weights, counts, lits = k.clauses
    if weights.size and not -2**31 <= weights.min() <= weights.max() < 2**31:
        raise ValueError(f"word {k.word}: clause weight outside the i32 range")
    err = _clause_error(k.word, k.clauses, V)
    if err:
        raise ValueError(err)
    if k.word != word:
        raise ValueError(f"entry key {word} does not match knowledge word {k.word}")
    starts, weight_at, literal_at = _cells(counts)
    deltas = np.diff(lits, prepend=0)
    first = starts[counts > 0]
    deltas[first] = lits[first]  # a clause's first literal is stored absolute
    cells = np.empty(1 + 2 * counts.size + lits.size, dtype="<u4")
    cells[0] = counts.size
    cells[weight_at] = weights.astype("<i4").view("<u4")
    cells[weight_at + 1] = counts
    cells[literal_at] = deltas
    msg_bytes = (msg or "").encode("utf-8")
    payload = b"".join([_RECORD.pack(word, 1 if msg is not None else 0,
                                     len(msg_bytes)), msg_bytes, cells.tobytes()])
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
    """Atomic whole-file write (temp file + rename); every entry is checked
    before anything is written."""
    records = {word: _pack_record(word, k, store.failures.get(word), store.V)
               for word, k in store.entries.items()}
    _write_atomic(path, [_HEADER.pack(MAGIC, VERSION, store.vocab_hash,
                                      store.V, len(records))]
                  + [records[word] for word in sorted(records)])


def _walk(data: bytes, vocab: Vocabulary) -> Iterator[tuple]:
    """Check a store against vocab, yielding each record's (start, end,
    message, entry) once checked; raises ValueError naming the first fault."""
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
    pos = _HEADER.size
    for _ in range(count):
        start = pos
        try:  # a cut is reported at the first field it cuts
            (record_len,) = _U32.unpack_from(data, pos)
            pos += 4
            word, flag, msg_len = _RECORD.unpack_from(data, pos)
            pos += _RECORD.size
            msg = struct.unpack_from(f"{msg_len}s", data, pos)[0].decode("utf-8")
            pos += msg_len
            body = pos
            (clause_count,) = _U32.unpack_from(data, pos)
            pos += 4
            counts = []
            for _ in range(clause_count):
                counts.append(_U32.unpack_from(data, pos + 4)[0])
                pos += 8 + 4 * counts[-1]
                if pos > size:  # cut in the literals
                    raise truncated(pos - 4 * counts[-1])
        except struct.error:
            raise truncated(pos) from None
        except UnicodeDecodeError as err:  # pos is the message's first byte
            raise ValueError(
                f"corrupt knowledge file: failure message of word {word} at "
                f"byte {pos + err.start} is not UTF-8 "
                f"(last good word index: {last_good})") from None
        if pos != start + 4 + record_len:
            raise ValueError(
                f"corrupt knowledge file: record for word {word} ends at byte "
                f"{pos}, expected {start + 4 + record_len} "
                f"(last good word index: {last_good})")
        # The clause arrays: the store's one delta decoder.
        counts = np.array(counts, dtype=np.int64)
        starts, weight_at, literal_at = _cells(counts)
        cells = np.frombuffer(data, dtype="<u4", count=(pos - body) // 4,
                              offset=body)
        sums = np.zeros(literal_at.size + 1, dtype=np.int64)
        # cells may be unaligned; gathering from an aligned copy is faster
        cells.astype(np.int64)[literal_at].cumsum(out=sums[1:])
        clauses = ClauseArrays(cells[weight_at].view("<i4").astype(np.int64),
                               counts, sums[1:] - sums[starts].repeat(counts))
        err = _clause_error(word, clauses, V)
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
        yield start, pos, msg if flag else None, WordKnowledge(word, clauses)
        last_good = word
    if pos != size:
        raise ValueError(
            f"corrupt knowledge file: {size - pos} bytes after the last of "
            f"{count} records, at byte {pos} (last good word index: {last_good})")


def load(path, vocab: Vocabulary) -> KnowledgeStore:
    """Load and verify a store; the vocabulary digest must match."""
    with open(path, "rb") as fh:
        data = fh.read()
    store = KnowledgeStore(vocab_hash=vocab.digest(), V=vocab.size)
    for _, _, msg, k in _walk(data, vocab):
        store.entries[k.word] = k
        if msg is not None:
            store.failures[k.word] = msg
    return store


def replace_word(path, vocab: Vocabulary, word: int,
                 train: Callable[[], tuple[WordKnowledge, str | None]]) -> None:
    """Put the (entry, failure message) that train() returns for word into
    the store at path, in place.

    The store is checked whole before train runs. The word's record is
    replaced, or inserted in word order; every other record's bytes are
    copied unchanged. The file written is byte for byte what `save` writes
    for the loaded store with that entry, and with the message as the word's
    failure (or no failure, when it is None).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    spans = [(k.word, start, end) for start, end, _, k in _walk(data, vocab)]
    if not 0 <= word < vocab.size:
        raise ValueError(f"word index {word} out of range")
    record = _pack_record(word, *train(), vocab.size)
    i = bisect_left(spans, (word,))
    replaced = i < len(spans) and spans[i][0] == word
    start = spans[i][1] if i < len(spans) else len(data)
    stop = spans[i][2] if replaced else start
    count = len(spans) + (0 if replaced else 1)
    _write_atomic(path, [
        _HEADER.pack(MAGIC, VERSION, vocab.digest(), vocab.size, count),
        data[_HEADER.size:start], record, data[stop:]])


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
