import hashlib
import math

import numpy as np
import pytest

from tmembed import augment as aug
from tmembed import cotm
from tmembed.corpus import Vocabulary
from tmembed.phase2 import EmbeddingMatrix
from conftest import sentiment_fixture
from oracles import nearest_words_loop, pairwise_cosine_table


def toy_embeddings():
    # film is movie's nearest neighbor; chaotic is confusing's single most
    # dissimilar word; plot sits on its own axis
    vocab = Vocabulary.from_words(["movie", "film", "confusing", "chaotic",
                                   "plot"])
    rows = np.array([
        [1.0, 0.0, 0.0, 0.0],   # movie
        [1.0, 0.1, 0.0, 0.0],   # film
        [0.0, 0.0, 1.0, 0.2],   # confusing
        [0.0, 0.0, -1.0, 0.0],  # chaotic
        [0.0, 1.0, 0.0, 0.0],   # plot
    ])
    return vocab, EmbeddingMatrix(words=tuple(range(5)), rows=rows)


# ---- neighbor ranking ----

def test_duplicate_vector_ranks_first():
    vocab = Vocabulary.from_words(["a", "b", "c"])
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    emb = EmbeddingMatrix(words=(0, 1, 2), rows=rows)
    ranked = aug.nearest_words(0, emb, 2)
    assert ranked[0] == 1


def test_least_is_reversal_of_most_without_ties():
    emb = EmbeddingMatrix(words=(0, 1, 2), rows=np.array([
        [1.0, 0.0], [0.9, 0.5], [-0.2, 1.0]]))
    most = aug.nearest_words(0, emb, 2, "most")
    least = aug.nearest_words(0, emb, 2, "least")
    assert most == [1, 2]
    assert least == most[::-1]


def test_ranking_matches_brute_force_cosine_table():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4, 6))
    emb = EmbeddingMatrix(words=(0, 1, 2, 3), rows=rows)
    table = pairwise_cosine_table(rows.tolist())
    for w in range(4):
        expected = sorted((j for j in range(4) if j != w),
                          key=lambda j: (-table[(w, j)], j))
        assert aug.nearest_words(w, emb, 3) == expected


def test_nearest_words_errors_and_exclusions():
    vocab, emb = toy_embeddings()
    with pytest.raises(ValueError, match="no embedding"):
        aug.nearest_words(99, emb, 2)
    with pytest.raises(ValueError, match="order"):
        aug.nearest_words(0, emb, 2, "upside-down")
    zero = EmbeddingMatrix(words=(0, 1), rows=np.array([[0.0, 0.0],
                                                        [1.0, 0.0]]))
    with pytest.raises(ValueError, match="zero vector"):
        aug.nearest_words(0, zero, 1)
    assert aug.nearest_words(0, emb, 4, exclude=frozenset({1})) == \
        [w for w in aug.nearest_words(0, emb, 4) if w != 1]


@pytest.mark.parametrize("seed", range(6))
def test_ranking_matches_loop_oracle_on_tied_integer_rows(seed):
    # Few distinct small-integer rows give many exact cosine ties; some rows
    # are zero, word indices are shuffled and one word is listed twice.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(5, 30))
    rows = rng.integers(-2, 3, size=(k, int(rng.integers(2, 7)))).astype(float)
    rows[rng.random(k) < 0.15] = 0.0
    words = [int(w) for w in rng.permutation(3 * k)[:k]]
    words[-1] = words[0]
    emb = EmbeddingMatrix(words=tuple(words), rows=rows)
    exclude = frozenset(int(w) for w in rng.choice(words, size=3))
    for w in set(words):
        for order in ("most", "least"):
            for ex in (frozenset(), exclude):
                for n in (1, 3, k + 5):
                    try:
                        expected = nearest_words_loop(w, emb, n, order, ex)
                    except ValueError as err:
                        with pytest.raises(ValueError, match=str(err)):
                            aug.nearest_words(w, emb, n, order, ex)
                        continue
                    assert aug.nearest_words(w, emb, n, order, ex) == expected


# ---- document augmentation ----

def test_positive_review_swaps_movie_for_film():
    vocab, emb = toy_embeddings()
    doc = aug.make_document(["movie"], vocab, aug.POSITIVE)
    cfg = aug.AugmentConfig(replace_fraction=1.0, pool_size=1, seed=0)
    out = aug.augment_document(doc, emb, vocab, cfg, np.random.default_rng(0))
    assert out.tokens == ("film",)
    assert out.label == aug.POSITIVE


def test_negative_review_swaps_confusing_for_chaotic():
    vocab, emb = toy_embeddings()
    doc = aug.make_document(["confusing"], vocab, aug.NEGATIVE)
    cfg = aug.AugmentConfig(replace_fraction=1.0, pool_size=1, seed=0)
    out = aug.augment_document(doc, emb, vocab, cfg, np.random.default_rng(0))
    assert out.tokens == ("chaotic",)
    assert out.label == aug.NEGATIVE


def test_document_without_replaceable_tokens_is_unchanged():
    vocab, emb = toy_embeddings()
    doc = aug.make_document(["zebra", "xylophone"], vocab, aug.POSITIVE)
    cfg = aug.AugmentConfig(replace_fraction=0.5, pool_size=2, seed=0)
    out = aug.augment_document(doc, emb, vocab, cfg, np.random.default_rng(0))
    assert out == doc


def test_replacement_budget_is_exact_and_oov_untouched():
    vocab, emb = toy_embeddings()
    tokens = ["movie", "film", "plot", "movie", "zzz", "film", "plot",
              "movie", "film", "plot", "qqq"]
    doc = aug.make_document(tokens, vocab, aug.POSITIVE)
    frac = 0.3
    cfg = aug.AugmentConfig(replace_fraction=frac, pool_size=2, seed=0)
    rng = np.random.default_rng(1)
    out = aug.augment_document(doc, emb, vocab, cfg, rng)
    replaceable = 9  # all embedded tokens; zzz and qqq are not
    changed = sum(1 for a, b in zip(doc.tokens, out.tokens) if a != b)
    assert changed == math.ceil(frac * replaceable)
    assert out.tokens[4] == "zzz" and out.tokens[10] == "qqq"
    assert out.label == doc.label


def test_augment_corpus_is_deterministic_and_label_preserving():
    vocab, emb = toy_embeddings()
    rng = np.random.default_rng(2)
    docs = []
    toks = list(vocab.words)
    for i in range(10):
        body = [toks[j] for j in rng.integers(0, len(toks), size=5)]
        docs.append(aug.make_document(body, vocab, i % 2))
    cfg = aug.AugmentConfig(replace_fraction=0.4, pool_size=2, seed=5)
    out1 = aug.augment_corpus(docs, emb, vocab, cfg)
    out2 = aug.augment_corpus(docs, emb, vocab, cfg)
    assert out1 == out2
    assert len(out1) == 10
    assert [d.label for d in out1] == [d.label for d in docs]


def test_stopwords_never_enter_dissimilar_pools():
    vocab = Vocabulary.from_words(["the", "confusing", "chaotic", "movie"])
    rows = np.array([
        [-1.0, 0.0],  # "the" tops the dissimilar ranking unless excluded
        [1.0, 0.0],
        [-1.0, 0.3],
        [0.9, 0.1],
    ])
    emb = EmbeddingMatrix(words=(0, 1, 2, 3), rows=rows)
    doc = aug.make_document(["confusing"], vocab, aug.NEGATIVE)
    cfg = aug.AugmentConfig(replace_fraction=1.0, pool_size=1, seed=0)
    out = aug.augment_document(doc, emb, vocab, cfg, np.random.default_rng(0))
    assert out.tokens == ("chaotic",)


# ---- classifier ----

def classifier_fixture():
    vocab, train_raw, train_labels, test_raw, test_labels = sentiment_fixture()
    train = [aug.make_document(t, vocab, l)
             for t, l in zip(train_raw, train_labels)]
    test = [aug.make_document(t, vocab, l)
            for t, l in zip(test_raw, test_labels)]
    return vocab, train, test


DESK_CLS = dict(num_clauses=20, T=20, s=3.0, N=32, epochs=10)


def test_classifier_config_defaults_echo_reference_setup():
    cfg = aug.ClassifierConfig()
    assert (cfg.num_clauses, cfg.T, cfg.s, cfg.epochs) == (1000, 8000, 2.0, 10)


def test_classifier_separates_toy_corpus():
    vocab, train, test = classifier_fixture()
    bank = aug.train_classifier(train, vocab.size, aug.ClassifierConfig(
        seed=0, **DESK_CLS))
    acc, counts = aug.accuracy(bank, train)
    assert acc >= 0.95
    majority = max(counts["positive_total"], counts["negative_total"]) / \
        len(train)
    assert acc > majority


def test_classifier_replays_training_labels():
    vocab, train, _ = classifier_fixture()
    bank = aug.train_classifier(train, vocab.size, aug.ClassifierConfig(
        seed=1, **DESK_CLS))
    hits = sum(aug.classify(bank, d) == d.label for d in train)
    assert hits / len(train) >= 0.95


def test_classifier_determinism():
    vocab, train, test = classifier_fixture()
    cfg = aug.ClassifierConfig(seed=2, **DESK_CLS)
    b1 = aug.train_classifier(train, vocab.size, cfg)
    b2 = aug.train_classifier(train, vocab.size, cfg)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.weights, b2.weights)
    assert aug.accuracy(b1, test) == aug.accuracy(b2, test)


def test_classifier_rejects_single_class():
    vocab, train, _ = classifier_fixture()
    positives = [d for d in train if d.label == 1]
    with pytest.raises(ValueError, match="single-class"):
        aug.train_classifier(positives, vocab.size, aug.ClassifierConfig())


def test_empty_document_with_zero_bank_is_negative():
    vocab = Vocabulary.from_words(["a", "b"])
    bank = cotm.init_bank(4, 1, 2, N=8, T=10, s=3.0)
    doc = aug.make_document([], vocab, aug.POSITIVE)
    assert aug.classify(bank, doc) == aug.NEGATIVE


def test_degenerate_bank_is_constant():
    vocab = Vocabulary.from_words(["a", "b"])
    bank = cotm.init_bank(1, 1, 2, N=8, T=10, s=3.0)
    bank.weights[0, 0] = 3  # empty clause never fires at inference
    docs = [aug.make_document(t, vocab, 0) for t in (["a"], ["b"], [])]
    assert {aug.classify(bank, d) for d in docs} == {0}
    bank.states[0, 2] = 9  # include not-a: fires iff "a" absent
    assert aug.classify(bank, aug.make_document(["b"], vocab, 0)) == 1
    assert aug.classify(bank, aug.make_document(["a", "b"], vocab, 0)) == 0


def test_make_document_validates_label():
    vocab = Vocabulary.from_words(["a"])
    with pytest.raises(ValueError, match="label"):
        aug.make_document(["a"], vocab, 2)


# sha256 of augment_corpus's output for pinned_augment_inputs, written as the
# augment command writes aug.txt followed by aug.txt.labels. Computed with the
# per-pair ranking loop; any change to the pools, the draws or the tie-breaks
# moves it.
PINNED_AUGMENT_SHA256 = \
    "24f9e6ba2084e48792b977b502df5c7435bd1a89c0daad358ff63ae173f61fc0"


def pinned_augment_inputs():
    # small-integer rows (exact ties), a zero row, embedded stopwords, two
    # vocabulary words without an embedding and an out-of-vocabulary token
    words = ["the", "a", "of"] + [f"t{i:02d}" for i in range(13)]
    vocab = Vocabulary.from_words(words)
    rng = np.random.default_rng(3)
    rows = rng.integers(-2, 3, size=(14, 6)).astype(np.float64)
    rows[5] = 0.0
    emb = EmbeddingMatrix(words=tuple(range(14)), rows=rows)
    toks = words + ["oov"]
    docs = [aug.make_document(
        [toks[j] for j in rng.integers(0, len(toks), size=9)], vocab, d % 2)
        for d in range(40)]
    return vocab, emb, docs


def test_augment_corpus_output_is_pinned():
    vocab, emb, docs = pinned_augment_inputs()
    out = aug.augment_corpus(docs, emb, vocab, aug.AugmentConfig(
        replace_fraction=0.4, pool_size=3, seed=9))
    text = ("".join(" ".join(d.tokens) + "\n" for d in out)
            + "".join(f"{d.label}\n" for d in out))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AUGMENT_SHA256


class CountingRows(np.ndarray):
    """Embedding rows that count the matrix products taken with them."""
    products = 0

    def __matmul__(self, other):
        CountingRows.products += 1
        return np.asarray(self) @ np.asarray(other)


def test_augment_corpus_takes_one_similarity_product_per_word():
    vocab, emb, docs = pinned_augment_inputs()
    needed = set().union(*(d.word_set for d in docs)) & set(emb.words)
    nonzero = {w for w in needed if emb.rows[emb.words.index(w)].any()}
    CountingRows.products = 0
    counted = EmbeddingMatrix(words=emb.words, rows=emb.rows.view(CountingRows))
    out = aug.augment_corpus(docs, counted, vocab, aug.AugmentConfig(
        replace_fraction=0.4, pool_size=3, seed=9))
    assert CountingRows.products == len(nonzero) > 0
    text = ("".join(" ".join(d.tokens) + "\n" for d in out)
            + "".join(f"{d.label}\n" for d in out))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AUGMENT_SHA256
