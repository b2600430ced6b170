from collections import Counter

import numpy as np
import pytest

from tmembed import corpus
from oracles import df_ranking, negation_closed_vector, vectorize_loopwise


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
    assert set(ds.docs[0]) == {0, 1, 2}
    assert ds.docs[1].size == 0  # all-OOV document kept as empty


def test_worked_example_inverted_index(worked_example):
    vocab, ds = worked_example
    w3 = vocab.index_of["word3"]
    assert list(ds.inverted[w3]) == [0, 1]


def test_inverted_index_round_trip_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        V = int(rng.integers(2, 8))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V, size=rng.integers(0, 6))]
               for _ in range(rng.integers(1, 10))]
        ds = corpus.vectorize(raw, vocab)
        for w in range(V):
            for d in range(ds.num_docs):
                assert (d in ds.inverted[w]) == (w in ds.docs[d])


def test_vectorize_matches_the_loop_oracle():
    # the same arrays and dtypes as appending every (document, word) pair in
    # a loop, with empty documents, out-of-vocabulary tokens, words no
    # document holds, and no documents at all
    rng = np.random.default_rng(12)
    seen = Counter()
    for trial in range(60):
        V = int(rng.integers(1, 12))
        vocab = corpus.Vocabulary.from_words([f"w{i}" for i in range(V)])
        raw = [[f"w{j}" for j in rng.integers(0, V + 3, size=rng.integers(0, 8))]
               for _ in range(0 if trial < 3 else rng.integers(1, 15))]
        mine, theirs = corpus.vectorize(raw, vocab), vectorize_loopwise(raw, vocab)
        assert mine.V == theirs.V
        for got, want in ((mine.docs, theirs.docs),
                          (mine.inverted, theirs.inverted)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        seen["no documents"] += not raw
        seen["empty document"] += any(d.size == 0 for d in mine.docs)
        seen["word in no document"] += any(d.size == 0 for d in mine.inverted)
    assert min(seen.values()) >= 3 and len(seen) == 3


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
        for size in (0, 1, int(rng.integers(2, 12))):
            ids = rng.integers(0, ds.num_docs, size=size)
            union = set().union(*(set(ds.docs[d].tolist()) for d in ids))
            want = negation_closed_vector(union, V)
            for given in (ids, ids.tolist()):
                got = ds.vector(given)
                assert got.dtype == want.dtype == np.uint8
                assert np.array_equal(got, want)
            seen["empty ids"] += size == 0
            seen["repeated ids"] += len(set(ids.tolist())) < size
            seen["empty document picked"] += any(ds.docs[d].size == 0
                                                 for d in ids)
        seen["oov-only document"] += any(
            doc and not any(t in vocab.index_of for t in doc) for doc in raw)
    assert min(seen.values()) >= 5 and len(seen) == 4



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
    assert all(np.array_equal(a, b) for a, b in zip(d1.docs, d2.docs))
    assert all(np.array_equal(a, b) for a, b in zip(d1.inverted, d2.inverted))


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


def test_read_corpus_and_labels(tmp_path):
    cpath = tmp_path / "docs.txt"
    cpath.write_text("The cat sat.\nDogs bark!\n")
    assert corpus.read_corpus(cpath) == [["the", "cat", "sat"], ["dogs", "bark"]]
    lpath = tmp_path / "labels.txt"
    lpath.write_text("1\n0\n")
    assert corpus.read_labels(lpath) == [1, 0]
