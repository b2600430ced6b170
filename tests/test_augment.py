import hashlib
import math

import numpy as np
import pytest

from tmembed import augment as aug
from tmembed import cotm
from tmembed.corpus import Vocabulary, vectorize
from tmembed.phase1 import Phase1Config
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
    # a negative n would slice from the end of the ranking
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        aug.nearest_words(0, emb, -1)
    assert aug.nearest_words(0, emb, 0) == []
    assert aug.nearest_words(0, emb, 4, exclude=frozenset({1})) == \
        [w for w in aug.nearest_words(0, emb, 4) if w != 1]


@pytest.mark.parametrize("config", [aug.AugmentConfig, aug.ClassifierConfig,
                                    Phase1Config])
def test_a_negative_seed_is_refused_by_every_config(config):
    # numpy's generators refuse it too, but only once the inputs are read
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        config(seed=-1)


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

def label_pools(emb, vocab, cfg, label):
    """The label's pools of every embedded word, as augment_corpus builds
    them for the words of its corpus."""
    return aug._substitution_pools(emb, vocab, cfg, set(emb.words))[label]


def test_positive_review_swaps_movie_for_film():
    vocab, emb = toy_embeddings()
    cfg = aug.AugmentConfig(replace_fraction=1.0, pool_size=1, seed=0)
    out = aug.augment_document(["movie"],
                               label_pools(emb, vocab, cfg, aug.POSITIVE),
                               vocab, cfg, np.random.default_rng(0))
    assert out == ["film"]


def test_negative_review_swaps_confusing_for_chaotic():
    vocab, emb = toy_embeddings()
    cfg = aug.AugmentConfig(replace_fraction=1.0, pool_size=1, seed=0)
    out = aug.augment_document(["confusing"],
                               label_pools(emb, vocab, cfg, aug.NEGATIVE),
                               vocab, cfg, np.random.default_rng(0))
    assert out == ["chaotic"]


def test_document_without_replaceable_tokens_is_unchanged():
    vocab, emb = toy_embeddings()
    doc = ["zebra", "xylophone"]
    cfg = aug.AugmentConfig(replace_fraction=0.5, pool_size=2, seed=0)
    out = aug.augment_document(doc, label_pools(emb, vocab, cfg, aug.POSITIVE),
                               vocab, cfg, np.random.default_rng(0))
    assert out == doc and out is not doc


def test_replacement_budget_is_exact_and_oov_untouched():
    vocab, emb = toy_embeddings()
    tokens = ["movie", "film", "plot", "movie", "zzz", "film", "plot",
              "movie", "film", "plot", "qqq"]
    frac = 0.3
    cfg = aug.AugmentConfig(replace_fraction=frac, pool_size=2, seed=0)
    rng = np.random.default_rng(1)
    out = aug.augment_document(tokens,
                               label_pools(emb, vocab, cfg, aug.POSITIVE),
                               vocab, cfg, rng)
    replaceable = 9  # all embedded tokens; zzz and qqq are not
    changed = sum(1 for a, b in zip(tokens, out) if a != b)
    assert changed == math.ceil(frac * replaceable)
    assert len(out) == len(tokens)
    assert out[4] == "zzz" and out[10] == "qqq"


def test_augment_corpus_is_deterministic_and_label_preserving():
    vocab, emb = toy_embeddings()
    rng = np.random.default_rng(2)
    toks = list(vocab.words)
    docs = [[toks[j] for j in rng.integers(0, len(toks), size=5)]
            for _ in range(10)]
    labels = [i % 2 for i in range(10)]
    cfg = aug.AugmentConfig(replace_fraction=0.4, pool_size=2, seed=5)
    out1 = aug.augment_corpus(docs, labels, emb, vocab, cfg)
    out2 = aug.augment_corpus(docs, labels, emb, vocab, cfg)
    assert out1 == out2 != docs
    # one copy per document in order, so each keeps its label's position
    assert [len(d) for d in out1] == [len(d) for d in docs]
    assert labels == [i % 2 for i in range(10)]


def test_stopwords_never_enter_dissimilar_pools():
    vocab = Vocabulary.from_words(["the", "confusing", "chaotic", "movie"])
    rows = np.array([
        [-1.0, 0.0],  # "the" tops the dissimilar ranking unless excluded
        [1.0, 0.0],
        [-1.0, 0.3],
        [0.9, 0.1],
    ])
    emb = EmbeddingMatrix(words=(0, 1, 2, 3), rows=rows)
    cfg = aug.AugmentConfig(replace_fraction=1.0, pool_size=1, seed=0)
    out = aug.augment_document(["confusing"],
                               label_pools(emb, vocab, cfg, aug.NEGATIVE),
                               vocab, cfg, np.random.default_rng(0))
    assert out == ["chaotic"]


# ---- classifier ----

def classifier_fixture():
    """vocab, then the training and the test documents, each a DocumentSet
    and its labels."""
    vocab, train_raw, train_labels, test_raw, test_labels = sentiment_fixture()
    return (vocab, vectorize(train_raw, vocab), train_labels,
            vectorize(test_raw, vocab), test_labels)


def predictions(bank, ds):
    """The classifier's decision for each document of ds."""
    return [int(cotm.predict(bank, ds.vector([d]))[0])
            for d in range(ds.num_docs)]


DESK_CLS = dict(num_clauses=20, T=20, s=3.0, N=32, epochs=10)


def test_classifier_config_defaults_echo_reference_setup():
    cfg = aug.ClassifierConfig()
    assert (cfg.num_clauses, cfg.T, cfg.s, cfg.epochs) == (1000, 8000, 2.0, 10)


def test_classifier_separates_toy_corpus():
    vocab, train, labels, _, _ = classifier_fixture()
    bank = aug.train_classifier(train, labels, aug.ClassifierConfig(
        seed=0, **DESK_CLS))
    acc, counts = aug.accuracy(bank, train, labels)
    assert acc >= 0.95
    majority = max(counts["positive_total"], counts["negative_total"]) / \
        len(labels)
    assert acc > majority


def test_classifier_replays_training_labels():
    vocab, train, labels, _, _ = classifier_fixture()
    bank = aug.train_classifier(train, labels, aug.ClassifierConfig(
        seed=1, **DESK_CLS))
    hits = sum(p == l for p, l in zip(predictions(bank, train), labels))
    assert hits / len(labels) >= 0.95


def test_classifier_determinism():
    vocab, train, labels, test, test_labels = classifier_fixture()
    cfg = aug.ClassifierConfig(seed=2, **DESK_CLS)
    b1 = aug.train_classifier(train, labels, cfg)
    b2 = aug.train_classifier(train, labels, cfg)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.weights, b2.weights)
    assert aug.accuracy(b1, test, test_labels) == \
        aug.accuracy(b2, test, test_labels)


def test_classifier_rejects_single_class():
    vocab, _, _, _, _ = classifier_fixture()
    positives = vectorize([["good"], ["great", "plot"]], vocab)
    with pytest.raises(ValueError, match="single-class"):
        aug.train_classifier(positives, [1, 1], aug.ClassifierConfig())


def test_empty_document_with_zero_bank_is_negative():
    vocab = Vocabulary.from_words(["a", "b"])
    bank = cotm.init_bank(4, 1, 2, N=8, T=10, s=3.0)
    assert predictions(bank, vectorize([[]], vocab)) == [aug.NEGATIVE]


def test_degenerate_bank_is_constant():
    vocab = Vocabulary.from_words(["a", "b"])
    bank = cotm.init_bank(1, 1, 2, N=8, T=10, s=3.0)
    bank.weights[0, 0] = 3  # empty clause never fires at inference
    docs = vectorize([["a"], ["b"], []], vocab)
    assert predictions(bank, docs) == [0, 0, 0]
    bank.set_states(np.s_[0, 2], 9)  # include not-a: fires iff "a" absent
    assert predictions(bank, vectorize([["b"], ["a", "b"]], vocab)) == [1, 0]


def test_accuracy_over_no_documents_is_an_error():
    vocab = Vocabulary.from_words(["a", "b"])
    bank = cotm.init_bank(4, 1, 2, N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="^no documents to score$"):
        aug.accuracy(bank, vectorize([], vocab), [])


def label_checked_calls(labels):
    """Every library call that takes labels for the same three documents."""
    vocab, emb = toy_embeddings()
    raw = [["movie"], ["confusing", "plot"], []]
    ds = vectorize(raw, vocab)
    bank = cotm.init_bank(4, 1, vocab.size, N=8, T=10, s=3.0)
    return [
        lambda: aug.train_classifier(ds, labels,
                                     aug.ClassifierConfig(**DESK_CLS)),
        lambda: aug.accuracy(bank, ds, labels),
        lambda: aug.augment_corpus(raw, labels, emb, vocab,
                                   aug.AugmentConfig()),
    ]


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1, 0]],
                         ids=["fewer", "more"])
def test_library_rejects_a_label_count_other_than_the_document_count(labels):
    message = (f"^label/document count mismatch: 3 documents, "
               f"{len(labels)} labels$")
    for call in label_checked_calls(labels):
        with pytest.raises(ValueError, match=message):
            call()
    for call in label_checked_calls([0, 1, 1]):
        call()


@pytest.mark.parametrize("bad", [2, -1, "1"])
def test_library_rejects_a_label_outside_0_and_1(bad):
    message = f"^label must be 0 or 1, got {bad!r}$"
    for call in label_checked_calls([0, 1, bad]):
        with pytest.raises(ValueError, match=message):
            call()


# sha256 of the states and weights train_classifier returns for
# pinned_classifier_inputs under PINNED_CLS, and the accuracy that bank scores
# on the pinned test documents. Any change to how documents become inputs,
# to the example order or to the draws moves them.
PINNED_CLS = aug.ClassifierConfig(num_clauses=10, T=10, s=3.0, N=16, epochs=2,
                                  seed=4)
PINNED_STATES_SHA256 = \
    "851980c455bba68093a0c6ab6c19392a82cf259c5b664c72bcc8c9c2bd33db62"
PINNED_WEIGHTS_SHA256 = \
    "d15855e1d13eac4641590236b57b689653d68e982595081e81d1bff0a843704b"
PINNED_ACCURACY = (33 / 43, {"positive_correct": 16, "positive_total": 22,
                             "negative_correct": 17, "negative_total": 21})


def pinned_classifier_inputs():
    # the sentiment fixture plus empty and out-of-vocabulary-only documents
    vocab, train_raw, train_labels, test_raw, test_labels = sentiment_fixture()
    train_raw, train_labels = train_raw + [[], ["zzz"]], train_labels + [0, 1]
    test_raw = test_raw + [[], ["zzz", "qqq"], ["good", "zzz"]]
    test_labels = test_labels + [1, 0, 1]
    return (vectorize(train_raw, vocab), train_labels,
            vectorize(test_raw, vocab), test_labels)


def test_classifier_bank_and_accuracy_are_pinned():
    train, train_labels, test, test_labels = pinned_classifier_inputs()
    bank = aug.train_classifier(train, train_labels, PINNED_CLS)
    assert (bank.states.dtype, bank.weights.dtype) == (np.int32, np.int32)
    assert hashlib.sha256(bank.states.tobytes()).hexdigest() == \
        PINNED_STATES_SHA256
    assert hashlib.sha256(bank.weights.tobytes()).hexdigest() == \
        PINNED_WEIGHTS_SHA256
    assert aug.accuracy(bank, test, test_labels) == PINNED_ACCURACY


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
    docs = [[toks[j] for j in rng.integers(0, len(toks), size=9)]
            for _ in range(40)]
    return vocab, emb, docs, [d % 2 for d in range(40)]


def augmented_text(out, labels):
    """out and labels as the augment command writes aug.txt, aug.txt.labels."""
    return ("".join(" ".join(d) + "\n" for d in out)
            + "".join(f"{label}\n" for label in labels))


def test_augment_corpus_output_is_pinned():
    vocab, emb, docs, labels = pinned_augment_inputs()
    out = aug.augment_corpus(docs, labels, emb, vocab, aug.AugmentConfig(
        replace_fraction=0.4, pool_size=3, seed=9))
    text = augmented_text(out, labels)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AUGMENT_SHA256


class CountingRows(np.ndarray):
    """Embedding rows that count the matrix products taken with them."""
    products = 0

    def __matmul__(self, other):
        CountingRows.products += 1
        return np.asarray(self) @ np.asarray(other)


def test_augment_corpus_takes_one_similarity_product_per_word():
    vocab, emb, docs, labels = pinned_augment_inputs()
    needed = {vocab.index_of[t] for d in docs for t in d
              if t in vocab.index_of} & set(emb.words)
    nonzero = {w for w in needed if emb.rows[emb.words.index(w)].any()}
    CountingRows.products = 0
    counted = EmbeddingMatrix(words=emb.words, rows=emb.rows.view(CountingRows))
    out = aug.augment_corpus(docs, labels, counted, vocab, aug.AugmentConfig(
        replace_fraction=0.4, pool_size=3, seed=9))
    assert CountingRows.products == len(nonzero) > 0
    text = augmented_text(out, labels)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AUGMENT_SHA256
