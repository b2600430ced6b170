import pickle
import re
from collections import Counter

import numpy as np
import pytest

from tmembed import corpus
from oracles import (csr_rows, df_ranking, negation_closed_vector,
                     vectorize_loopwise)


def test_tokenize_lowercases_and_strips_punctuation():
    assert corpus.tokenize("The movie, was GREAT!") == ["the", "movie", "was",
                                                        "great"]
    assert corpus.tokenize("...") == []
    assert corpus.tokenize("") == []


def test_build_vocabulary_df_order_ties_lexicographic():
    vocab = corpus.build_vocabulary([["a", "b"], ["b", "c"]], max_vocab=3)
    assert vocab.words == ("b", "a", "c")


def test_build_vocabulary_single_token():
    vocab = corpus.build_vocabulary([["a"]], max_vocab=10)
    assert vocab.size == 1


def test_build_vocabulary_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        corpus.build_vocabulary([], max_vocab=5)
    with pytest.raises(ValueError, match="empty corpus"):
        corpus.build_vocabulary([[], []], max_vocab=5)


def test_build_vocabulary_uses_document_frequency_not_term_frequency():
    # "x" appears 5 times in one document, "y" once in each of two.
    vocab = corpus.build_vocabulary([["x"] * 5, ["y"], ["y"]], max_vocab=1)
    assert vocab.words == ("y",)


def test_build_vocabulary_matches_brute_force_ranking():
    rng = np.random.default_rng(3)
    alphabet = [f"t{i}" for i in range(12)]
    for _ in range(25):
        raw = [[alphabet[j] for j in rng.integers(0, 12, size=rng.integers(1, 9))]
               for _ in range(rng.integers(1, 10))]
        cut = int(rng.integers(1, 14))
        vocab = corpus.build_vocabulary(raw, cut)
        assert list(vocab.words) == df_ranking(raw)[:cut]


def test_vocabulary_index_round_trip():
    vocab = corpus.build_vocabulary([["a", "b"], ["b", "c"]], max_vocab=3)
    for i, w in enumerate(vocab.words):
        assert vocab.index_of[w] == i


def test_vectorize_collapses_duplicates_and_drops_oov():
    vocab = corpus.Vocabulary.from_words(["w2", "w3", "w4"])
    ds = corpus.vectorize([["w3", "w2", "w4", "w3"], ["zzz", "qqq"]], vocab)
    docs = csr_rows(ds.ptr, ds.words)
    assert docs[0].tolist() == [0, 1, 2]
    assert docs[1].size == 0  # all-OOV document kept as empty


def test_worked_example_inverted_index(worked_example):
    vocab, ds = worked_example
    w3 = vocab.index_of["word3"]
    assert list(ds.containing(w3)) == [0, 1]


def test_inverted_index_round_trip_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        V = int(rng.integers(2, 8))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V, size=rng.integers(0, 6))]
               for _ in range(rng.integers(1, 10))]
        ds = corpus.vectorize(raw, vocab)
        docs = csr_rows(ds.ptr, ds.words)
        for w in range(V):
            for d in range(ds.num_docs):
                assert (d in ds.containing(w)) == (w in docs[d])


def test_vectorize_matches_the_loop_oracle():
    # every row of both CSR tables holds the same values and dtype as the
    # arrays built by appending every (document, word) pair in a loop, with
    # empty documents, out-of-vocabulary-only documents, words no document
    # holds, and no documents at all
    rng = np.random.default_rng(12)
    seen = Counter()
    for trial in range(60):
        V = int(rng.integers(1, 12))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V + 3, size=rng.integers(0, 8))]
               for _ in range(0 if trial < 3 else rng.integers(1, 15))]
        mine = corpus.vectorize(raw, vocab)
        docs, inverted = vectorize_loopwise(raw, vocab)
        assert mine.V == V and mine.num_docs == len(raw)
        for table in (mine.ptr, mine.words, mine.iptr, mine.doc_ids):
            assert table.dtype == np.int64
        for got, want in ((csr_rows(mine.ptr, mine.words), docs),
                          (csr_rows(mine.iptr, mine.doc_ids), inverted)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        seen["no documents"] += not raw
        seen["empty document"] += any(d.size == 0 for d in docs)
        seen["oov-only document"] += any(
            doc and not any(t in vocab.index_of for t in doc) for doc in raw)
        seen["word in no document"] += any(d.size == 0 for d in inverted)
    assert min(seen.values()) >= 3 and len(seen) == 4


def test_containing_and_not_containing_partition_the_documents():
    # for every word: the ascending ids of the documents that hold it and of
    # those that do not, which together are every document once
    rng = np.random.default_rng(16)
    for trial in range(30):
        V = int(rng.integers(1, 10))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V + 3, size=rng.integers(0, 6))]
               for _ in range(0 if trial < 2 else rng.integers(1, 15))]
        ds = corpus.vectorize(raw, vocab)
        for w in range(V):
            yes, no = ds.containing(w), ds.not_containing(w)
            assert yes.dtype == no.dtype == np.int64
            assert yes.tolist() == [d for d, doc in enumerate(raw)
                                    if f"w{w}" in doc]
            assert sorted(yes.tolist() + no.tolist()) == list(range(len(raw)))
            assert np.all(np.diff(no) > 0)


def test_pickle_round_trip_keeps_the_tables():
    vocab = corpus.Vocabulary.from_words(["a", "b", "c", "d"])
    ds = corpus.vectorize([["a", "b"], [], ["zzz"], ["c", "b", "c"]], vocab)
    back = pickle.loads(pickle.dumps(ds))
    assert back.V == ds.V
    for name in ("ptr", "words", "iptr", "doc_ids"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    for ids in ([], [0], [3, 1, 2, 3]):
        assert np.array_equal(back.vector(ids), ds.vector(ids))


def test_vector_matches_the_negation_closed_union_oracle():
    # random corpora with empty and out-of-vocabulary-only documents; id
    # lists that are empty, hold one id, or repeat ids, as lists and arrays
    rng = np.random.default_rng(13)
    seen = Counter()
    for _ in range(80):
        V = int(rng.integers(1, 10))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V + 3, size=rng.integers(0, 6))]
               for _ in range(rng.integers(1, 10))]
        ds = corpus.vectorize(raw, vocab)
        held = [{vocab.index_of[t] for t in doc if t in vocab.index_of}
                for doc in raw]
        for size in (0, 1, int(rng.integers(2, 12))):
            ids = rng.integers(0, ds.num_docs, size=size)
            union = set().union(*(held[d] for d in ids))
            want = negation_closed_vector(union, V)
            for given in (ids, ids.tolist()):
                got = ds.vector(given)
                assert got.dtype == want.dtype == np.uint8
                assert np.array_equal(got, want)
            seen["empty ids"] += size == 0
            seen["repeated ids"] += len(set(ids.tolist())) < size
            seen["empty document picked"] += any(not held[d] for d in ids)
        seen["oov-only document"] += any(
            doc and not any(t in vocab.index_of for t in doc) for doc in raw)
    assert min(seen.values()) >= 5 and len(seen) == 4



def test_vectors_build_each_row_from_its_own_documents():
    # rows of 0, 1 or several ids, repeated ids and empty documents, as
    # lists and arrays; row i is the union of the next counts[i] ids
    rng = np.random.default_rng(23)
    for _ in range(60):
        V = int(rng.integers(1, 8))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V + 2, size=rng.integers(0, 5))]
               for _ in range(rng.integers(1, 9))]
        ds = corpus.vectorize(raw, vocab)
        held = [{vocab.index_of[t] for t in doc if t in vocab.index_of}
                for doc in raw]
        counts = rng.integers(0, 4, size=rng.integers(1, 6)).tolist()
        ids = rng.integers(0, ds.num_docs, size=sum(counts))
        want = np.stack([negation_closed_vector(
            set().union(*(held[d] for d in ids[sum(counts[:i]):][:n])), V)
            for i, n in enumerate(counts)])
        for given in (ids, ids.tolist()):
            got = ds.vectors(given, counts)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="document id 9 out of range for"):
        ds.vectors([0, 9], [1, 1])
    assert ds.vectors([], [0, 0]).tolist() == [[0] * V + [1] * V] * 2


def test_vector_rejects_an_id_outside_the_document_set():
    vocab = corpus.Vocabulary.from_words(["a", "b"])
    ds = corpus.vectorize([["a"], ["b"]], vocab)
    for ids, bad in (([-1], -1), ([0, -2, 1], -2), ([2], 2), ([1, 0, 5], 5),
                     (np.array([0, 2]), 2)):
        with pytest.raises(ValueError,
                           match=f"document id {bad} out of range for 2"):
            ds.vector(ids)
    assert ds.vector([]).tolist() == [0, 0, 1, 1]
    assert ds.vector(np.empty(0, dtype=np.int64)).tolist() == [0, 0, 1, 1]
    assert ds.vector([1, 0, 1]).tolist() == [1, 1, 0, 0]

def test_determinism():
    raw = [["b", "a"], ["c", "b"], ["a"]]
    v1 = corpus.build_vocabulary(raw, 3)
    v2 = corpus.build_vocabulary(raw, 3)
    assert v1.words == v2.words
    d1 = corpus.vectorize(raw, v1)
    d2 = corpus.vectorize(raw, v2)
    for name in ("ptr", "words", "iptr", "doc_ids"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))


def test_not_containing_is_complement():
    vocab = corpus.Vocabulary.from_words(["a", "b"])
    ds = corpus.vectorize([["a"], ["b"], ["a", "b"]], vocab)
    assert list(ds.not_containing(0)) == [1]
    assert list(ds.not_containing(1)) == [0]


def test_vocabulary_file_round_trip(tmp_path):
    vocab = corpus.build_vocabulary([["a", "b"], ["b", "c"]], max_vocab=3)
    path = tmp_path / "vocab.txt"
    corpus.save_vocabulary(vocab, path)
    assert path.read_text() == "b\na\nc\n"
    assert corpus.load_vocabulary(path).words == vocab.words


def test_a_vocabulary_file_that_repeats_a_token_names_both_lines(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\nbad\ngood\n\ngood\nbad\n")  # blank lines count
    with pytest.raises(ValueError) as err:
        corpus.load_vocabulary(path)
    assert str(err.value) == \
        f"{path}:5: duplicate token 'good' (first on line 3)"


def test_read_corpus_and_labels(tmp_path):
    cpath = tmp_path / "docs.txt"
    cpath.write_text("The cat sat.\nDogs bark!\n")
    assert corpus.read_corpus(cpath) == [["the", "cat", "sat"], ["dogs", "bark"]]
    lpath = tmp_path / "labels.txt"
    lpath.write_text("1\n0\n")
    assert corpus.read_labels(lpath) == [1, 0]


def test_a_bad_byte_is_located_by_line_across_the_whole_file(tmp_path):
    # far past the reader's first chunk, with \r\n, \r and \n line ends, as
    # text mode counts them
    path = tmp_path / "docs.txt"
    ends = [b"\r\n", b"\r", b"\n"]
    lines = [b"caf\xc3\xa9 %d" % i + ends[i % 3] for i in range(1, 5000)]
    lines[3999] = b"bad \xe9 byte\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:4000: not UTF-8 (invalid continuation byte: byte 0xe9)")):
        corpus.read_corpus(path)
    path.write_bytes(b"".join(lines[:3999]))
    assert len(corpus.read_corpus(path)) == 3999
