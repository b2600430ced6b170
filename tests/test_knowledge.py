import pickle
import struct

import numpy as np
import pytest

from tmembed import cotm, knowledge
from tmembed.corpus import Vocabulary
from conftest import make_store
import oracles
from oracles import (Clause, clause_tuples, load_store_fieldwise,
                     save_store_loopwise, _validate_entry)


def test_from_bank_extracts_nonzero_weight_clauses():
    bank = cotm.init_bank(3, 1, 4, N=8, T=10, s=3.0)
    bank.set_states(np.s_[0, [1, 6]], 9)
    bank.weights[0, 0] = 2
    bank.set_states(np.s_[1, 3], 9)
    bank.weights[1, 0] = 0   # zero weight: dropped
    bank.weights[2, 0] = -1  # empty clause, nonzero weight: kept
    k = knowledge.from_bank(bank, word=5)
    assert k.word == 5
    assert k == knowledge.WordKnowledge(5, [((1, 6), 2), ((), -1)])


def test_from_bank_rejects_an_output_out_of_range():
    bank = cotm.init_bank(3, 2, 4, N=8, T=10, s=3.0)
    for output in (-1, 2):
        with pytest.raises(ValueError, match=f"^output id {output} out of range$"):
            knowledge.from_bank(bank, 0, output=output)


def random_bank(rng):
    """A bank with several outputs, zero weights, an empty clause and a
    clause that includes every literal, each drawn at random."""
    C, O, V, N = (int(rng.integers(1, 9)), int(rng.integers(1, 4)),
                  int(rng.integers(1, 7)), int(rng.integers(1, 9)))
    bank = cotm.init_bank(C, O, V, N=N, T=10, s=3.0)
    bank.set_states(
        np.s_[:], rng.integers(1, 2 * N + 1, size=bank.states.shape))
    bank.weights[:] = rng.integers(-3, 4, size=bank.weights.shape)
    if rng.random() < 0.5:
        bank.set_states(np.s_[int(rng.integers(C))], N)  # empty
    if rng.random() < 0.5:
        bank.set_states(np.s_[int(rng.integers(C))], N + 1)  # every literal
    return bank


def assert_int64_arrays(k):
    assert all(a.dtype == np.int64 and a.ndim == 1 for a in k.clauses)


def test_from_bank_and_filter_match_the_tuple_oracles_on_random_banks():
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(300):
        bank = random_bank(rng)
        included = bank.included()
        if (~included.any(1)).any():
            seen.add("empty")
        if included.all(1).any():
            seen.add("full")
        for output in range(bank.num_outputs):
            k = knowledge.from_bank(bank, 7, output)
            assert k.word == 7
            assert_int64_arrays(k)
            want = oracles.from_bank(bank, 7, output)
            assert clause_tuples(k) == want
            for q in (0, 1):
                cut = knowledge.filter_by_polarity(k, q)
                assert cut.word == 7
                assert_int64_arrays(cut)
                assert clause_tuples(cut) == tuple(
                    oracles.filter_by_polarity(want, q))
    assert {"empty", "full"} <= seen


def test_filter_matches_the_tuple_oracle_on_random_stores():
    # each entry, and a copy with some weights zeroed (neither q keeps those)
    rng = np.random.default_rng(15)
    for _ in range(40):
        _, store = random_store(rng, V=int(rng.integers(1, 8)))
        for entry in store.entries.values():
            zeroed = knowledge.WordKnowledge(entry.word, [
                (c.literals, c.weight * int(rng.integers(2)))
                for c in clause_tuples(entry)])
            for k in (entry, zeroed):
                for q in (0, 1):
                    cut = knowledge.filter_by_polarity(k, q)
                    assert_int64_arrays(cut)
                    assert clause_tuples(cut) == tuple(
                        oracles.filter_by_polarity(clause_tuples(k), q))
            for q in (2, -1):
                with pytest.raises(ValueError) as want:
                    oracles.filter_by_polarity(clause_tuples(entry), q)
                with pytest.raises(ValueError, match=f"^{want.value}$"):
                    knowledge.filter_by_polarity(entry, q)


def test_load_matches_the_tuple_reader_on_random_stores(tmp_path):
    # the clause arrays load keeps are the fieldwise reader's Clause tuples
    rng = np.random.default_rng(16)
    path = tmp_path / "store.tmk"
    for _ in range(40):
        vocab, store = random_store(rng, V=int(rng.integers(1, 8)))
        knowledge.save(store, path)
        got, want = knowledge.load(path, vocab), load_store_fieldwise(path, vocab)
        assert {w: clause_tuples(k) for w, k in got.entries.items()} == {
            w: clause_tuples(k) for w, k in want.entries.items()}
        assert {w: clause_tuples(k) for w, k in store.entries.items()} == {
            w: clause_tuples(k) for w, k in got.entries.items()}
        for k in got.entries.values():
            assert_int64_arrays(k)


def test_an_empty_entry_is_built_saved_and_loaded(tmp_path):
    vocab = Vocabulary.from_words(["w0", "w1"])
    store = knowledge.KnowledgeStore(vocab_hash=vocab.digest(), V=2)
    store.entries[1] = knowledge.WordKnowledge(word=1, clauses=())
    assert_int64_arrays(store.entries[1])
    assert store.entries[1].clauses.weights.size == 0
    knowledge.save(store, tmp_path / "new.tmk")
    save_store_loopwise(store, tmp_path / "reference.tmk")
    assert (tmp_path / "new.tmk").read_bytes() == (
        tmp_path / "reference.tmk").read_bytes()
    loaded = knowledge.load(tmp_path / "new.tmk", vocab)
    assert loaded.entries == store.entries


def test_entries_compare_by_value():
    k = knowledge.WordKnowledge(3, [((0, 2), 1), ((1,), -2)])
    same = knowledge.WordKnowledge(3, [([0, 2], 1), (np.array([1]), -2)])
    assert (k == same) is True and (k != same) is False
    for other in (knowledge.WordKnowledge(3, [((0, 3), 1), ((1,), -2)]),
                  knowledge.WordKnowledge(3, [((0, 2), 1), ((1,), -1)]),
                  knowledge.WordKnowledge(3, [((0,), 1), ((2, 1), -2)]),
                  knowledge.WordKnowledge(3, [((0, 2), 1)]),
                  knowledge.WordKnowledge(4, [((0, 2), 1), ((1,), -2)])):
        assert (k == other) is False and (k != other) is True
    assert k != clause_tuples(k)
    assert {1: k, 2: knowledge.WordKnowledge(2, ())} == {
        1: same, 2: knowledge.WordKnowledge(2, [])}


def test_entries_pickle_by_value():
    bank = cotm.init_bank(3, 1, 4, N=8, T=10, s=3.0)
    bank.set_states(np.s_[0, [1, 6]], 9)
    bank.weights[:, 0] = [2, -1, 0]
    for k in (knowledge.from_bank(bank, 5), knowledge.WordKnowledge(1, ())):
        back = pickle.loads(pickle.dumps(k))
        assert back == k
        assert_int64_arrays(back)


def test_filter_by_polarity():
    k = knowledge.WordKnowledge(0, [((0,), 3), ((1,), -2), ((2,), 1)])
    assert knowledge.filter_by_polarity(k, 1) == knowledge.WordKnowledge(
        0, [((0,), 3), ((2,), 1)])
    assert knowledge.filter_by_polarity(k, 0) == knowledge.WordKnowledge(
        0, [((1,), -2)])
    all_pos = knowledge.WordKnowledge(0, [((0,), 5)])
    assert knowledge.filter_by_polarity(all_pos, 0) == knowledge.WordKnowledge(
        0, [])
    with pytest.raises(ValueError, match="target bit"):
        knowledge.filter_by_polarity(k, 2)


def test_polarity_filters_partition_clauses():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(0, 10))
        weights = rng.choice([-3, -1, 1, 2, 7], size=n)
        clauses = tuple(Clause((i,), int(w)) for i, w in enumerate(weights))
        k = knowledge.WordKnowledge(0, clauses)
        pos = clause_tuples(knowledge.filter_by_polarity(k, 1))
        neg = clause_tuples(knowledge.filter_by_polarity(k, 0))
        assert len(pos) + len(neg) == len(clauses)
        assert set(pos).isdisjoint(neg)
        assert set(pos) | set(neg) == set(clauses)


def three_word_store():
    _, store = make_store({
        0: [((0, 3, 5), 2), ((1,), -1)],
        1: [((2, 4), 1)],
        2: [],
    }, V=3)
    store.failures[2] = "no supporting documents for word 2"
    return store


def test_save_load_round_trip(tmp_path):
    vocab = Vocabulary.from_words(["w0", "w1", "w2"])
    store = three_word_store()
    path = tmp_path / "store.tmk"
    knowledge.save(store, path)
    loaded = knowledge.load(path, vocab)
    assert loaded.vocab_hash == store.vocab_hash
    assert loaded.V == store.V
    assert loaded.entries == store.entries
    assert loaded.failures == store.failures


def test_save_is_idempotent(tmp_path):
    vocab = Vocabulary.from_words(["w0", "w1", "w2"])
    store = three_word_store()
    p1, p2 = tmp_path / "a.tmk", tmp_path / "b.tmk"
    knowledge.save(store, p1)
    knowledge.save(knowledge.load(p1, vocab), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_with_wrong_vocabulary(tmp_path):
    store = three_word_store()
    path = tmp_path / "store.tmk"
    knowledge.save(store, path)
    other = Vocabulary.from_words(["x0", "x1", "x2"])
    with pytest.raises(ValueError, match="knowledge/vocabulary mismatch"):
        knowledge.load(path, other)


def test_load_truncated_file_names_last_good_word(tmp_path):
    vocab = Vocabulary.from_words(["w0", "w1", "w2"])
    store = three_word_store()
    path = tmp_path / "store.tmk"
    knowledge.save(store, path)
    data = path.read_bytes()
    # cut inside the final record
    (tmp_path / "cut.tmk").write_bytes(data[:-3])
    with pytest.raises(ValueError, match="last good word index: 1"):
        knowledge.load(tmp_path / "cut.tmk", vocab)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bogus.tmk"
    path.write_bytes(b"NOPE" + b"\x00" * 50)
    with pytest.raises(ValueError, match="bad magic"):
        knowledge.load(path, Vocabulary.from_words(["a"]))


def test_load_refuses_a_format_1_header(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    path.write_bytes(data[:4] + struct.pack("<H", 1) + data[6:])
    with pytest.raises(ValueError,
                       match="^unsupported knowledge format version 1$"):
        knowledge.load(path, vocab)


def test_export_text(tmp_path):
    vocab = Vocabulary.from_words(["car", "road", "driver"])
    _, store = make_store({0: [((1, 2), 3), ((1, 4), -2)]}, V=3)
    store.vocab_hash = vocab.digest()
    path = tmp_path / "dump.txt"
    knowledge.export_text(store, vocab, path)
    text = path.read_text()
    assert "= car" in text
    assert "road AND driver @+3" in text
    assert "road AND ¬road @-2" in text


def test_save_rejects_invalid_knowledge(tmp_path):
    _, store = make_store({0: [((2, 1), 1)]}, V=3)  # not increasing
    with pytest.raises(ValueError, match="strictly increasing"):
        knowledge.save(store, tmp_path / "bad.tmk")
    _, store = make_store({0: [((1,), 0)]}, V=3)  # zero weight
    with pytest.raises(ValueError, match="zero weight"):
        knowledge.save(store, tmp_path / "bad.tmk")


@pytest.mark.parametrize("weight", [2**31, -2**31 - 1, 2**70])
def test_a_weight_outside_i32_is_rejected_and_writes_nothing(tmp_path, weight):
    vocab, path, data = saved_three_word_store(tmp_path)
    store = three_word_store()

    def entry():  # a weight outside int64 is refused as the entry is built
        return knowledge.WordKnowledge(1, [((0,), 1), ((1,), weight)])

    message = "^word 1: clause weight outside the i32 range$"
    with pytest.raises(ValueError, match=message):
        store.entries[1] = entry()
        knowledge.save(store, path)
    with pytest.raises(ValueError, match=message):
        knowledge.replace_word(path, vocab, 1, lambda: (entry(), None))
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.tmk"]


@pytest.mark.parametrize("literal", [2**63, 2**64, -2**63 - 1, -2**64])
def test_a_literal_outside_int64_is_refused_as_the_entry_is_built(literal):
    message = "^word 1: clause literal outside the int64 range$"
    with pytest.raises(ValueError, match=message):
        knowledge.WordKnowledge(1, [((0,), 1), ((1, literal), -1)])
    assert knowledge.WordKnowledge(1, [((2**63 - 1,), 1)]).clauses.literals \
        .tolist() == [2**63 - 1]


def test_the_i32_extremes_round_trip(tmp_path):
    vocab = Vocabulary.from_words(["w0", "w1"])
    _, store = make_store({1: [((0,), 2**31 - 1), ((1, 2), -2**31)]}, V=2)
    knowledge.save(store, tmp_path / "k.tmk")
    assert knowledge.load(tmp_path / "k.tmk", vocab).entries == store.entries


def saved_three_word_store(tmp_path):
    vocab = Vocabulary.from_words(["w0", "w1", "w2"])
    path = tmp_path / "store.tmk"
    knowledge.save(three_word_store(), path)
    return vocab, path, path.read_bytes()


def test_load_rejects_bytes_after_the_last_record(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    path.write_bytes(data + b"\x00" * 8)
    with pytest.raises(ValueError, match=(
            rf"^corrupt knowledge file: 8 bytes after the last of 3 records, "
            rf"at byte {len(data)} \(last good word index: 2\)")):
        knowledge.load(path, vocab)


def test_load_rejects_a_header_count_below_the_records(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    header = struct.calcsize("<4sH32sII")
    first_end = header + 4 + struct.unpack_from("<I", data, header)[0]
    path.write_bytes(data[:header - 4] + struct.pack("<I", 1) + data[header:])
    with pytest.raises(ValueError, match=(
            rf"^corrupt knowledge file: {len(data) - first_end} bytes after "
            rf"the last of 1 records, at byte {first_end} "
            rf"\(last good word index: 0\)")):
        knowledge.load(path, vocab)


def record_spans(data):
    """[(start, end)] of each record of a saved store."""
    pos, spans = struct.calcsize("<4sH32sII"), []
    while pos < len(data):
        end = pos + 4 + struct.unpack_from("<I", data, pos)[0]
        spans.append((pos, end))
        pos = end
    return spans


def test_load_rejects_records_out_of_order_or_repeated(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    (a, b), (_, c), (_, d) = record_spans(data)
    head, r0, r1, r2 = data[:a], data[a:b], data[b:c], data[c:d]
    path.write_bytes(head + r1 + r0 + r2)
    with pytest.raises(ValueError, match=(
            rf"record for word 0 at byte {a + len(r1)} is out of order "
            rf"\(last good word index: 1\)")):
        knowledge.load(path, vocab)
    path.write_bytes(head + r0 + r0 + r2)
    with pytest.raises(ValueError, match="record for word 0 at byte .* is out of order"):
        knowledge.load(path, vocab)


def test_load_rejects_flags_save_never_writes(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    (a, _), (b, _), _ = record_spans(data)
    flag_at = b + 8  # record_len and word come first
    path.write_bytes(data[:flag_at] + b"\x02" + data[flag_at + 1:])
    with pytest.raises(ValueError, match="record for word 1 has flag 2"):
        knowledge.load(path, vocab)
    # a trained record (flag 0) that carries a message
    store = three_word_store()
    knowledge.save(store, path)
    data = path.read_bytes()
    _, _, (c, _) = record_spans(data)
    path.write_bytes(data[:c + 8] + b"\x00" + data[c + 9:])
    with pytest.raises(ValueError, match="record for word 2 has flag 0 and a 34-byte message"):
        knowledge.load(path, vocab)


@pytest.mark.parametrize("offset", [0, 5])
def test_load_names_a_failure_message_that_is_not_utf8(tmp_path, offset):
    vocab, path, data = saved_three_word_store(tmp_path)
    bad = data.index(b"no supporting documents for word 2") + offset
    path.write_bytes(data[:bad] + b"\xff" + data[bad + 1:])
    with pytest.raises(ValueError, match=(
            rf"^corrupt knowledge file: failure message of word 2 at byte "
            rf"{bad} is not UTF-8 \(last good word index: 1\)$")):
        knowledge.load(path, vocab)


def test_load_matches_the_fieldwise_reader_on_damaged_stores(tmp_path):
    """Random byte flips, cuts and insertions: load gives the reader's store,
    or its message; faults only load checks may come first."""
    load_only = ("bytes after the last", "is out of order", " has flag ")
    rng = np.random.default_rng(5)
    vocab, store = random_store(rng, V=5)
    path = tmp_path / "store.tmk"
    knowledge.save(store, path)
    data = path.read_bytes()
    for trial in range(600):
        cut = int(rng.integers(len(data)))
        kind = trial % 4
        if kind == 0:
            damaged = data[:cut] + bytes([int(rng.integers(256))]) + data[cut + 1:]
        elif kind == 1:
            damaged = data[:cut]
        elif kind == 2:
            damaged = data[:cut] + bytes(rng.integers(0, 256, 4, dtype=np.uint8)) + data[cut:]
        else:  # zero a 4-byte cell past the header: weights, counts, literals
            cell = 46 + int(rng.integers((len(data) - 46) // 4)) * 4
            damaged = data[:cell] + bytes(4) + data[cell + 4:]
        path.write_bytes(damaged)
        try:
            want = load_store_fieldwise(path, vocab)
        except ValueError as err:
            want = str(err)
        try:
            got = knowledge.load(path, vocab)
        except ValueError as err:
            got = str(err)
            if any(m in got for m in load_only):
                continue
            if " is not UTF-8 " in got:  # the reader's bare codec error
                assert want.startswith("'utf-8' codec can't decode"), (trial, cut)
                continue
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, (trial, cut)
        else:
            assert (got.entries, got.failures) == (want.entries, want.failures)


def random_knowledge(rng, word, V, sign=None):
    clauses = []
    for _ in range(int(rng.integers(0, 5))):
        lits = np.sort(rng.choice(2 * V, size=int(rng.integers(0, 2 * V + 1)),
                                  replace=False))
        # small weights and ones near the i32 limits
        weight = int(rng.integers(1, 4) if rng.random() < 0.5 else rng.integers(1, 2**31))
        weight *= sign or (-1 if rng.random() < 0.5 else 1)
        clauses.append((lits.tolist(), weight))
    return knowledge.WordKnowledge(word=word, clauses=clauses)


def failed(word, msg):
    """A failed word's (entry, failure message): an empty entry."""
    return knowledge.WordKnowledge(word, ()), msg


def record(store, word, result):
    """Put a word's (entry, failure message) into the store: the store the
    bytes replace_word writes must load as."""
    store.entries[word], msg = result
    if msg is None:
        store.failures.pop(word, None)
    else:
        store.failures[word] = msg


def random_store(rng, V, absent=()):
    """A store over w0..w{V-1}: random clauses, some words failed, the words
    in `absent` left out."""
    vocab = Vocabulary.from_words([f"w{i}" for i in range(V)])
    store = knowledge.KnowledgeStore(vocab_hash=vocab.digest(), V=V)
    for w in range(V):
        if w in absent:
            continue
        result = (failed(w, f"no supporting documents for word {w} ✗")
                  if rng.random() < 0.3 else (random_knowledge(rng, w, V), None))
        record(store, w, result)
    return vocab, store


REWRITES = {
    # name: (word, words absent from the store, result kind)
    "replace": (2, (), "trained"),
    "replace_a_failed_word": (1, (), "trained"),
    "insert_first": (0, (0, 3), "trained"),
    "insert_middle": (3, (3,), "trained"),
    "insert_last": (5, (5,), "trained"),
    "insert_into_empty_store": (4, range(6), "trained"),
    "failure_with_message": (2, (), "failed"),
    "empty_clause_list": (3, (), "empty"),
    "negative_weights": (4, (1,), "negative"),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", REWRITES)
def test_replace_word_writes_what_load_record_save_writes(tmp_path, case, seed):
    word, absent, kind = REWRITES[case]
    rng = np.random.default_rng([seed, list(REWRITES).index(case)])
    vocab, store = random_store(rng, V=6, absent=absent)
    if case == "replace_a_failed_word":
        record(store, word, failed(word, "earlier failure"))
    result = {
        "trained": lambda: (random_knowledge(rng, word, 6), None),
        "failed": lambda: failed(word, f"no supporting documents for word {word}"),
        "empty": lambda: (knowledge.WordKnowledge(word=word, clauses=()), None),
        "negative": lambda: (random_knowledge(rng, word, 6, sign=-1), None),
    }[kind]()
    spliced, whole = tmp_path / "spliced.tmk", tmp_path / "whole.tmk"
    knowledge.save(store, spliced)
    expected = knowledge.load(spliced, vocab)
    record(expected, word, result)
    knowledge.save(expected, whole)
    knowledge.replace_word(spliced, vocab, word, lambda: result)
    assert spliced.read_bytes() == whole.read_bytes()
    loaded = knowledge.load(spliced, vocab)
    assert (loaded.entries, loaded.failures) == (expected.entries, expected.failures)


def test_replace_word_rejects_invalid_knowledge_and_keeps_the_file(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    bad = knowledge.WordKnowledge(1, [((3, 2), 1)])
    with pytest.raises(ValueError, match="strictly increasing"):
        knowledge.replace_word(path, vocab, 1, lambda: (bad, None))
    other = knowledge.WordKnowledge(0, ())
    with pytest.raises(ValueError, match="does not match"):
        knowledge.replace_word(path, vocab, 1, lambda: (other, None))
    with pytest.raises(ValueError, match="out of range"):
        knowledge.replace_word(path, vocab, 3, lambda: (other, None))
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.tmk"]


def test_every_cut_of_a_store_is_rejected_and_left_unchanged(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    cut_path = tmp_path / "cut.tmk"
    trained = []
    for n in range(len(data)):
        cut_path.write_bytes(data[:n])
        with pytest.raises(ValueError, match="^corrupt knowledge file: ") as err:
            knowledge.load(cut_path, vocab)
        with pytest.raises(ValueError) as oracle_err:
            load_store_fieldwise(cut_path, vocab)
        assert str(err.value) == str(oracle_err.value)
        with pytest.raises(ValueError, match="^corrupt knowledge file: "):
            knowledge.replace_word(cut_path, vocab, 1,
                                   lambda: trained.append(n) or failed(1, "x"))
        assert cut_path.read_bytes() == data[:n]
    assert trained == []


def test_load_checks_the_largest_literal_against_2V(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    _, (start, end), _ = record_spans(data)  # word 1: one clause, literals (2, 4)
    last = end - 4
    assert struct.unpack_from("<I", data, last) == (4,)
    path.write_bytes(data[:last] + struct.pack("<I", 5) + data[end:])
    assert knowledge.load(path, vocab).entries[1] == knowledge.WordKnowledge(
        1, [((2, 5), 1)])
    path.write_bytes(data[:last] + struct.pack("<I", 6) + data[end:])
    with pytest.raises(ValueError, match=r"^word 1: literal indices must be strictly increasing and < 6$"):
        knowledge.load(path, vocab)


def edge_store():
    """Weights at the i32 limits, an empty clause, an entry with no clauses
    and a failure with a non-ASCII message, entered out of word order."""
    vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3"])
    store = knowledge.KnowledgeStore(vocab_hash=vocab.digest(), V=4)
    for w, clauses in ((2, [((0, 7), 2**31 - 1), ((), -(2**31 - 1)),
                            ((1, 2, 3, 4, 5, 6), -1)]),
                       (0, []), (3, [((7,), 1)]), (1, [])):
        store.entries[w] = knowledge.WordKnowledge(w, clauses)
    store.failures[1] = "keine Dokumente für „w1“ ✗"
    return store


@pytest.mark.parametrize("case", ["empty_store", "edges"]
                         + [f"random{seed}" for seed in range(8)])
def test_save_writes_the_reference_writers_bytes(tmp_path, case):
    if case == "empty_store":
        vocab = Vocabulary.from_words(["w0", "w1"])
        store = knowledge.KnowledgeStore(vocab_hash=vocab.digest(), V=2)
    elif case == "edges":
        store = edge_store()
    else:
        rng = np.random.default_rng([int(case[6:]), 9])
        V = int(rng.integers(1, 10))
        _, store = random_store(rng, V, absent=set(rng.integers(0, V, 2).tolist()))
        order = rng.permutation(list(store.entries))
        store.entries = {int(w): store.entries[w] for w in order}
    knowledge.save(store, tmp_path / "new.tmk")
    save_store_loopwise(store, tmp_path / "reference.tmk")
    assert (tmp_path / "new.tmk").read_bytes() == (
        tmp_path / "reference.tmk").read_bytes()


INVALID_ENTRIES = {  # name: (entry key, knowledge) in a store with V=3
    "zero_weight": (1, knowledge.WordKnowledge(1, [((0, 2), 0)])),
    "decreasing": (1, knowledge.WordKnowledge(1, [((3, 2), 1)])),
    "repeated": (1, knowledge.WordKnowledge(1, [((2, 2), 1)])),
    "negative": (1, knowledge.WordKnowledge(1, [((-1, 2), 1)])),
    "literal_2V": (1, knowledge.WordKnowledge(1, [((1, 6), 1)])),
    "literal_2_32": (1, knowledge.WordKnowledge(1, [((1, 2**32 + 5), 1)])),
    "after_a_valid_clause": (1, knowledge.WordKnowledge(1, [
        ((0, 1), 2), ((), -1), ((4, 4), -1)])),
    "zero_weight_after_bad_literals": (1, knowledge.WordKnowledge(1, [
        ((3, 2), 1), ((0,), 0)])),
    "bad_literals_after_zero_weight": (1, knowledge.WordKnowledge(1, [
        ((0,), 0), ((3, 2), 1)])),
    "zero_weight_and_bad_literals": (1, knowledge.WordKnowledge(1, [
        ((3, 2), 0)])),
    "key_differs_from_word": (1, knowledge.WordKnowledge(0, [((0,), 1)])),
    "key_differs_and_bad_literals": (1, knowledge.WordKnowledge(0, [
        ((5, 0), 1)])),
}


@pytest.mark.parametrize("case", INVALID_ENTRIES)
def test_invalid_entries_give_the_reference_message_and_write_nothing(
        tmp_path, case):
    key, k = INVALID_ENTRIES[case]
    vocab, path, data = saved_three_word_store(tmp_path)
    store = three_word_store()
    store.entries[key] = k
    with pytest.raises(ValueError) as want:
        save_store_loopwise(store, tmp_path / "reference.tmk")
    with pytest.raises(ValueError) as got:
        knowledge.save(store, path)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as want:
        _validate_entry(key, k, vocab.size)
    with pytest.raises(ValueError) as got:
        knowledge.replace_word(path, vocab, key, lambda: (k, None))
    assert str(got.value) == str(want.value)
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.tmk"]


@pytest.mark.parametrize("key", [3, 5, -1])
def test_an_entry_keyed_outside_the_vocabulary_is_rejected(tmp_path, key):
    vocab, path, data = saved_three_word_store(tmp_path)
    store = three_word_store()
    store.entries[key] = knowledge.WordKnowledge(key, [((0,), 1)])
    message = f"^word index {key} out of range$"
    with pytest.raises(ValueError, match=message):
        knowledge.save(store, path)
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.tmk"]


def test_a_failure_message_longer_than_its_field_is_rejected(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    store = three_word_store()
    fits = "é" * (0xFFFF // 2) + "x"  # 65,535 UTF-8 bytes
    store.failures[2] = fits
    knowledge.save(store, path)
    assert knowledge.load(path, vocab).failures[2] == fits
    data = path.read_bytes()
    message = "^word 2: failure message longer than 65535 UTF-8 bytes$"
    store.failures[2] = fits + "x"
    with pytest.raises(ValueError, match=message):
        knowledge.save(store, path)
    with pytest.raises(ValueError, match=message):
        knowledge.replace_word(path, vocab, 2, lambda: failed(2, fits + "x"))
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.tmk"]


def test_a_failure_without_an_entry_is_rejected(tmp_path):
    vocab, path, data = saved_three_word_store(tmp_path)
    store = three_word_store()
    del store.entries[2]
    with pytest.raises(ValueError,
                       match="^word 2: failure message without an entry$"):
        knowledge.save(store, path)
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.tmk"]


def test_save_reports_the_first_invalid_entry_in_entry_order(tmp_path):
    store = three_word_store()
    store.entries = {2: knowledge.WordKnowledge(2, [((1,), 0)]),
                     0: knowledge.WordKnowledge(0, [((2, 1), 1)]),
                     1: store.entries[1]}
    with pytest.raises(ValueError) as want:
        save_store_loopwise(store, tmp_path / "reference.tmk")
    with pytest.raises(ValueError, match="^word 2: clause with zero weight$") as got:
        knowledge.save(store, tmp_path / "new.tmk")
    assert str(got.value) == str(want.value)
    assert list(tmp_path.iterdir()) == []
