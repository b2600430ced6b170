import hashlib
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tmembed import knowledge, phase1
from tmembed.corpus import Vocabulary, vectorize
from tmembed.knowledge import WordKnowledge, filter_by_polarity
import oracles
from oracles import clause_tuples, csr_rows, eligible_documents


DESK = dict(r=150, a=5, epochs=3, num_clauses=20, T=20, s=3.0, N=32)


def test_config_defaults_echo_reference_setup():
    cfg = phase1.Phase1Config()
    assert (cfg.r, cfg.a, cfg.num_clauses, cfg.T, cfg.s, cfg.epochs) == \
        (2000, 25, 1600, 3200, 5.0, 25)


def test_config_validation():
    with pytest.raises(ValueError):
        phase1.Phase1Config(r=0)
    with pytest.raises(ValueError):
        phase1.Phase1Config(a=0)
    with pytest.raises(ValueError):
        phase1.Phase1Config(epochs=0)
    for bad in ({"num_clauses": 0}, {"T": 0}, {"N": 0}, {"s": 1.0}):
        with pytest.raises(ValueError):
            phase1.Phase1Config(**bad)


def test_worked_example_builds_the_frozen_vector(worked_example):
    vocab, ds = worked_example
    rng = np.random.default_rng(0)
    x = phase1.build_x_from_documents(ds, vocab.index_of["word3"], 1, 2, rng)
    assert x.tolist() == [0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1]


def test_window_larger_than_supply_picks_everything():
    vocab = Vocabulary.from_words(["t", "f"])
    raw = [["t"]] * 10 + [["f"]] * 2
    ds = vectorize(raw, vocab)
    rng = np.random.default_rng(1)
    picked = phase1.pick_documents(phase1.document_pools(ds, 0), 0, 1, 25, rng)
    assert len(picked) == 10
    assert sorted(picked) == list(range(10))


def test_no_nonsupporting_documents():
    vocab = Vocabulary.from_words(["t"])
    ds = vectorize([["t"], ["t"]], vocab)
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="no non-supporting documents"):
        phase1.pick_documents(phase1.document_pools(ds, 0), 0, 0, 3, rng)


def test_no_supporting_documents():
    vocab = Vocabulary.from_words(["t", "ghost"])
    ds = vectorize([["t"], ["t"]], vocab)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="no supporting documents"):
        phase1.pick_documents(phase1.document_pools(ds, 1), 1, 1, 3, rng)


def test_picked_count_equals_min_of_window_and_eligible():
    rng = np.random.default_rng(4)
    for _ in range(300):
        V = int(rng.integers(2, 6))
        vocab = Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V, size=rng.integers(1, 4))]
               for _ in range(rng.integers(2, 9))]
        ds = vectorize(raw, vocab)
        word = int(rng.integers(V))
        q = int(rng.integers(2))
        a = int(rng.integers(1, 6))
        doc_sets = [set(d.tolist()) for d in csr_rows(ds.ptr, ds.words)]
        eligible = eligible_documents(doc_sets, word, q)
        pools = phase1.document_pools(ds, word)
        if not eligible:
            with pytest.raises(ValueError):
                phase1.pick_documents(pools, word, q, a, rng)
            continue
        picked = phase1.pick_documents(pools, word, q, a, rng)
        assert len(picked) == min(a, len(eligible))
        assert len(set(picked.tolist())) == len(picked)  # without replacement
        assert set(picked.tolist()) <= set(eligible)


def test_every_built_vector_is_negation_closed():
    rng = np.random.default_rng(5)
    vocab = Vocabulary.from_words(["a", "b", "c", "d"])
    raw = [["a", "b"], ["b", "c"], ["c", "d"], ["d"], ["a", "c"]]
    ds = vectorize(raw, vocab)
    for _ in range(200):
        word = int(rng.integers(4))
        q = int(rng.integers(2))
        x = phase1.build_x_from_documents(ds, word, q, 2, rng)
        assert np.array_equal(x[4:], 1 - x[:4])


def test_build_x_from_documents_matches_the_unique_oracle():
    # the same vector, dtype, error and random stream as building the
    # vector from np.unique of the picked documents (tests/oracles.py)
    rng = np.random.default_rng(14)
    for _ in range(40):
        V = int(rng.integers(2, 10))
        vocab = Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V, size=rng.integers(0, 6))]
               for _ in range(rng.integers(1, 12))]
        ds = vectorize(raw, vocab)
        seed = int(rng.integers(2**32))
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            word, q, a = int(rng.integers(V)), int(rng.integers(2)), \
                int(rng.integers(1, 5))
            pools = phase1.document_pools(ds, word)
            try:
                expected = oracles.build_x_from_documents(ds, pools, word, q,
                                                          a, theirs)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    phase1.build_x_from_documents(ds, word, q, a, mine)
            else:
                x = phase1.build_x_from_documents(ds, word, q, a, mine)
                assert x.dtype == expected.dtype
                assert np.array_equal(x, expected)
            assert mine.bit_generator.state == theirs.bit_generator.state


def cooccurrence_corpus():
    raw = [["w0", "w1"]] * 30 + [["w2", "w3"]] * 30
    vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3"])
    return vocab, vectorize(raw, vocab)


def test_train_word_learns_cooccurrence():
    # w0 only ever appears beside w1: positive clauses should carry w1's
    # literal (index 1) and stay inside the pattern {w0, w1, not-w2, not-w3}
    _, ds = cooccurrence_corpus()
    cfg = phase1.Phase1Config(seed=0, **DESK)
    k = phase1.train_word(ds, 0, cfg)
    pos = clause_tuples(filter_by_polarity(k, 1))
    assert pos
    pattern = {0, 1, 6, 7}
    for c in pos:
        assert set(c.literals) <= pattern
    frac_w1 = sum(1 for c in pos if 1 in c.literals) / len(pos)
    assert frac_w1 >= 0.5


def test_train_word_respects_clause_budget():
    _, ds = cooccurrence_corpus()
    cfg = phase1.Phase1Config(seed=1, **DESK)
    k = phase1.train_word(ds, 0, cfg)
    assert k.clauses.weights.size <= cfg.num_clauses
    assert k.clauses.weights.all()


def test_train_word_determinism():
    _, ds = cooccurrence_corpus()
    cfg = phase1.Phase1Config(seed=2, **DESK)
    assert phase1.train_word(ds, 0, cfg) == phase1.train_word(ds, 0, cfg)


def test_train_word_rejects_absent_word():
    vocab = Vocabulary.from_words(["a", "ghost"])
    ds = vectorize([["a"]], vocab)
    cfg = phase1.Phase1Config(r=2, a=1, epochs=1, num_clauses=2, T=4, s=2.0,
                              N=4, seed=0)
    with pytest.raises(ValueError, match="no supporting documents"):
        phase1.train_word(ds, 1, cfg)


def test_train_all_covers_vocabulary_and_records_failures():
    # w0 appears in every document: its q=0 draws cannot be satisfied
    vocab = Vocabulary.from_words(["w0", "w1", "w2"])
    raw = [["w0", "w1"], ["w0", "w2"], ["w0", "w1", "w2"]]
    ds = vectorize(raw, vocab)
    cfg = phase1.Phase1Config(r=20, a=2, epochs=1, num_clauses=4, T=4, s=2.0,
                              N=8, seed=0)
    store = phase1.train_all(ds, vocab, cfg)
    assert set(store.entries) == {0, 1, 2}
    assert 0 in store.failures
    assert store.entries[0] == WordKnowledge(0, ())
    assert 1 not in store.failures and 2 not in store.failures


def test_train_all_matches_individual_training():
    vocab, ds = cooccurrence_corpus()
    cfg = phase1.Phase1Config(seed=3, **DESK)
    store = phase1.train_all(ds, vocab, cfg)
    for w in range(vocab.size):
        assert store.entries[w] == phase1.train_word(ds, w, cfg)


def test_train_all_parallel_equals_serial():
    vocab, ds = cooccurrence_corpus()
    cfg = phase1.Phase1Config(r=40, a=3, epochs=1, num_clauses=8, T=8, s=2.0,
                              N=8, seed=4)
    serial = phase1.train_all(ds, vocab, cfg, parallelism=1)
    parallel = phase1.train_all(ds, vocab, cfg, parallelism=2)
    assert serial.entries == parallel.entries
    assert serial.failures == parallel.failures


# Run in a fresh interpreter, so that it can choose its start method before
# any pool exists: trains batch_corpus's store at parallelism 1 and 2 under
# a budget of two banks per batch, and prints the start method, the number
# of batches and each saved store's sha256.
START_METHOD_CHILD = """
import hashlib, multiprocessing, sys
from tmembed import knowledge, phase1
from tmembed.corpus import Vocabulary, vectorize
import numpy as np

if __name__ == "__main__":
    method, out = sys.argv[1], sys.argv[2]
    multiprocessing.set_start_method(method)
    rng = np.random.default_rng(22)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(7)])
    raw = [[f"w{i}" for i in (0, 1, 2, 4, 6) if rng.random() < 0.4] + ["w5"]
           for _ in range(24)]
    ds = vectorize(raw, vocab)
    cfg = phase1.Phase1Config(r=20, a=3, epochs=2, num_clauses=6, T=6, s=2.0,
                              N=8, seed=21)
    phase1.BATCH_CELLS = 2 * cfg.num_clauses * 2 * ds.V
    digests = []
    for parallelism in (1, 2):
        store = phase1.train_all(ds, vocab, cfg, parallelism=parallelism)
        knowledge.save(store, out)
        with open(out, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    print(multiprocessing.get_start_method(),
          len(phase1._batches(ds.V, phase1.batch_size(ds.V, cfg), 2)),
          *digests)
"""


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_train_all_parallel_equals_serial_under_every_start_method(
        tmp_path, method):
    # workers that are not forked import the package afresh and receive the
    # corpus pickled; forkserver is Linux's default from Python 3.14
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = tmp_path / "child.py"
    script.write_text(START_METHOD_CHILD)
    src = os.path.dirname(os.path.dirname(phase1.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script), method,
                           str(tmp_path / "k.tmk")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    used, batches, serial, parallel = done.stdout.split()
    assert (used, int(batches)) == (method, 4)
    assert serial == parallel


# sha256 of the store that train_all saves for pinned_corpus under PINNED_CFG,
# as the serial reference implementation writes it. Any change to the random
# stream, the training, the failure handling or the store format moves it.
PINNED_STORE_SHA256 = \
    "0b665adb2778c630c28e3bd3597c0012eaa782c9cd23a1433eaa6bd2b336128a"
PINNED_CFG = phase1.Phase1Config(r=60, a=4, epochs=2, num_clauses=10, T=10,
                                 s=3.0, N=16, seed=11)


def pinned_corpus():
    # w0 is in every document, so its first q=0 draw fails
    vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3", "w4"])
    raw = ([["w0", "w1", "w2"]] * 6 + [["w0", "w3", "w4"]] * 6
           + [["w0", "w1", "w4"]] * 3)
    return vocab, vectorize(raw, vocab)


@pytest.mark.parametrize("parallelism", [1, 2, 8])
def test_train_all_store_bytes_are_pinned(tmp_path, parallelism):
    vocab, ds = pinned_corpus()
    store = phase1.train_all(ds, vocab, PINNED_CFG, parallelism=parallelism)
    assert store.failures == {0: "no non-supporting documents for word 0"}
    path = tmp_path / "k.tmk"
    knowledge.save(store, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_STORE_SHA256


# sha256 of what the pinned store holds, whatever its byte layout: each
# entry's word, clause count, weights, counts and literals as int64 bytes in
# word order, then the failures. Any change to the random stream, the
# training or the failure handling moves it; a change of store format alone
# does not.
PINNED_ENTRIES_SHA256 = \
    "7c25a9985a6a7bff2026744f07b34e37a02914f56415c235bc861b049d9f0fc1"


def entries_sha256(store):
    h = hashlib.sha256()
    for w in sorted(store.entries):
        k = store.entries[w]
        h.update(np.array([w, k.clauses.weights.size], dtype=np.int64).tobytes())
        for column in k.clauses:
            h.update(column.astype(np.int64).tobytes())
    h.update(repr(sorted(store.failures.items())).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("parallelism", [1, 2, 8])
def test_train_all_store_entries_are_pinned(tmp_path, parallelism):
    vocab, ds = pinned_corpus()
    store = phase1.train_all(ds, vocab, PINNED_CFG, parallelism=parallelism)
    path = tmp_path / "k.tmk"
    knowledge.save(store, path)
    loaded = knowledge.load(path, vocab)
    assert (loaded.entries, loaded.failures) == (store.entries, store.failures)
    assert entries_sha256(loaded) == PINNED_ENTRIES_SHA256


@pytest.mark.parametrize("past", [-1, 0, 3], ids=["-1", "V", "V+3"])
def test_a_word_index_out_of_range_fails_before_any_draw(past):
    # -1 would wrap around the word table, and V and V + 3 fall off its end
    _, ds = cooccurrence_corpus()
    w = -1 if past < 0 else ds.V + past
    message = f"word index {w} out of range"
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for q in (0, 1):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            phase1.build_x_from_documents(ds, w, q, 3, rng)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            phase1.document_pools(ds, w)
    assert rng.bit_generator.state == state
    entry, error = phase1.train_words(ds, [w], phase1.Phase1Config(**DESK))[0]
    assert error == message
    assert entry == WordKnowledge(w, ())


@pytest.mark.parametrize("q", [2, -1])
def test_pick_documents_rejects_a_target_bit_other_than_0_or_1(q):
    _, ds = cooccurrence_corpus()
    pools = phase1.document_pools(ds, 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"target bit must be 0 or 1, got {q}"):
        phase1.pick_documents(pools, 0, q, 3, rng)
    with pytest.raises(ValueError, match="target bit"):
        phase1.build_x_from_documents(ds, 0, q, 3, rng)


# Seven words: w3 is in no document, so it fails before training; w5 is in
# every document, so it fails at its first q=0 draw. Under BATCH_CELLS of
# three banks the serial batches are [w0 w1] [w2 w3] [w4 w5 w6]: w5 fails
# in mid-batch and the vocabulary does not divide evenly into batches.
BATCH_CFG = phase1.Phase1Config(r=20, a=3, epochs=2, num_clauses=6, T=6,
                                s=2.0, N=8, seed=21)


def batch_corpus():
    rng = np.random.default_rng(22)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(7)])
    raw = [[f"w{i}" for i in (0, 1, 2, 4, 6) if rng.random() < 0.4] + ["w5"]
           for _ in range(24)]
    return vocab, vectorize(raw, vocab)


@pytest.fixture(scope="module")
def loopwise_batch_words():
    """Each word of batch_corpus trained alone by the oracle: its clause
    tuples, or its error message."""
    _, ds = batch_corpus()
    out = {}
    for w in range(ds.V + 1):  # w7 is out of range
        try:
            out[w] = oracles.train_word_loopwise(ds, w, BATCH_CFG)
        except ValueError as err:
            out[w] = str(err)
    assert all(out[w] for w in (0, 1, 2, 4, 6))  # every trained word learned
    return out


def assert_matches_loopwise(entry, error, word, expected):
    if isinstance(expected, str):
        assert error == expected
        assert entry == WordKnowledge(word, ())
    else:
        assert error is None
        assert entry.word == word
        assert clause_tuples(entry) == expected


@pytest.mark.parametrize("parallelism", [1, 2, 8])
def test_train_all_batches_match_each_word_trained_alone(
        monkeypatch, loopwise_batch_words, parallelism):
    vocab, ds = batch_corpus()
    monkeypatch.setattr(phase1, "BATCH_CELLS",
                        3 * BATCH_CFG.num_clauses * 2 * ds.V)
    assert phase1.batch_size(ds.V, BATCH_CFG) == 3
    if parallelism == 1:
        assert phase1._batches(ds.V, 3, 1) == [range(0, 2), range(2, 4),
                                               range(4, 7)]
    store = phase1.train_all(ds, vocab, BATCH_CFG, parallelism=parallelism)
    assert store.failures == {3: "no supporting documents for word 3",
                              5: "no non-supporting documents for word 5"}
    for w in range(ds.V):
        assert_matches_loopwise(store.entries[w], store.failures.get(w), w,
                                loopwise_batch_words[w])


def test_a_failing_word_leaves_the_rest_of_its_batch_alone(
        loopwise_batch_words):
    # any order, a word twice, failures first, in mid-batch and last
    _, ds = batch_corpus()
    words = [5, 6, 3, 0, 5, 7, 2, 4]
    results = phase1.train_words(ds, words, BATCH_CFG)
    assert len(results) == len(words)
    for w, (entry, error) in zip(words, results):
        assert_matches_loopwise(entry, error, w, loopwise_batch_words[w])
    assert results[5][1] == "word index 7 out of range"
    assert phase1.train_words(ds, [], BATCH_CFG) == []


# w2 is in every document, and under EVERYWHERE_CFG (one step) its only
# target bit is 1, so it never draws the q=0 example it cannot have. It
# fails all the same, before training starts, as under any longer run.
EVERYWHERE_CFG = phase1.Phase1Config(r=1, a=2, epochs=1, num_clauses=4, T=4,
                                     s=2.0, N=8, seed=0)
EVERYWHERE_ERROR = "no non-supporting documents for word 2"


def everywhere_corpus():
    vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3"])
    raw = [["w0", "w2"], ["w1", "w2"], ["w2", "w3"], ["w0", "w1", "w2", "w3"]]
    return vocab, vectorize(raw, vocab)


@pytest.fixture(scope="module")
def loopwise_everywhere_words():
    _, ds = everywhere_corpus()
    assert np.random.default_rng([EVERYWHERE_CFG.seed, 2]).integers(2) == 1
    # the per-step loop alone never meets w2's failure
    oracles.train_word_loopwise(ds, 2, EVERYWHERE_CFG)
    out = {w: oracles.train_word_loopwise(ds, w, EVERYWHERE_CFG)
           for w in (0, 1, 3)}
    out[2] = EVERYWHERE_ERROR
    return out


def test_train_word_fails_a_word_in_every_document_that_never_draws_q0():
    _, ds = everywhere_corpus()
    with pytest.raises(ValueError, match=f"^{EVERYWHERE_ERROR}$"):
        phase1.train_word(ds, 2, EVERYWHERE_CFG)


def test_train_words_fails_a_word_in_every_document_in_mid_batch(
        loopwise_everywhere_words):
    _, ds = everywhere_corpus()
    words = [0, 1, 2, 3]
    results = phase1.train_words(ds, words, EVERYWHERE_CFG)
    assert [error for _, error in results] == [None, None, EVERYWHERE_ERROR,
                                               None]
    for w, (entry, error) in zip(words, results):
        assert_matches_loopwise(entry, error, w, loopwise_everywhere_words[w])


@pytest.mark.parametrize("parallelism", [1, 2])
def test_train_all_fails_a_word_in_every_document_that_never_draws_q0(
        loopwise_everywhere_words, parallelism):
    vocab, ds = everywhere_corpus()
    store = phase1.train_all(ds, vocab, EVERYWHERE_CFG,
                             parallelism=parallelism)
    assert store.failures == {2: EVERYWHERE_ERROR}
    for w in range(ds.V):
        assert_matches_loopwise(store.entries[w], store.failures.get(w), w,
                                loopwise_everywhere_words[w])


@pytest.mark.parametrize("parallelism", [0, -1])
def test_train_all_rejects_parallelism_below_1_before_any_work(
        monkeypatch, parallelism):
    vocab, ds = pinned_corpus()
    monkeypatch.setattr(phase1, "train_words", None)  # any work fails
    with pytest.raises(ValueError, match="^parallelism must be >= 1$"):
        phase1.train_all(ds, vocab, PINNED_CFG, parallelism=parallelism)


def test_batches_cut_words_into_even_contiguous_shares():
    for num_words in range(40):
        for size in range(1, 7):
            for workers in range(1, 5):
                batches = phase1._batches(num_words, size, workers)
                assert [w for b in batches for w in b] == list(range(num_words))
                lengths = [len(b) for b in batches]
                assert all(1 <= n <= size for n in lengths)
                if lengths:
                    assert max(lengths) - min(lengths) <= 1
                    assert len(batches) % workers == 0 or max(lengths) == 1
                # no more batches than evenness needs
                assert len(batches) < -(-num_words // size) + workers


def test_batch_size_follows_the_cell_budget():
    wide = phase1.Phase1Config(num_clauses=160)
    small = phase1.Phase1Config(num_clauses=64)
    assert phase1.batch_size(202, small) == 20
    assert phase1.batch_size(200, wide) == 8
    assert phase1.batch_size(2000, phase1.Phase1Config()) == 1
