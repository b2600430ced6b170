import numpy as np
import pytest
from scipy.stats import chi2_contingency

from tmembed import cotm, phase2
from tmembed.corpus import Vocabulary
from tmembed.phase1 import Phase1Config
from conftest import make_store
from oracles import naive_embedding, two_level_union


def desk_cfg(**kw):
    base = dict(r=100, a=3, epochs=2, num_clauses=12, T=12, s=3.0, N=16, seed=0)
    base.update(kw)
    return Phase1Config(**base)


# ---- input construction ----

def test_two_level_expansion_follows_clause_links():
    # "drive" -> clause {vehicle, license}; vehicle has its own positive
    # clauses; license has no entry, so it is activated but not expanded
    drive, vehicle, license_, road = 0, 1, 2, 3
    _, store = make_store({
        drive: [((vehicle, license_), 2)],
        vehicle: [((road,), 1), ((vehicle,), 3)],
    }, V=6)
    rng = np.random.default_rng(0)
    x = phase2.build_x_phase2(store, drive, 1, a=10, rng=rng)
    assert set(np.flatnonzero(x).tolist()) == {vehicle, license_, road}


def test_single_literal_clause_with_unknown_word():
    _, store = make_store({0: [((4,), 1)]}, V=6)
    rng = np.random.default_rng(1)
    x = phase2.build_x_phase2(store, 0, 1, a=1, rng=rng)
    assert x.sum() == 1 and x[4] == 1


def test_negated_literals_activate_but_never_expand():
    V = 5
    neg3 = V + 3  # negation of word 3
    _, store = make_store({
        0: [((neg3,), 1)],
        3: [((1, 2), 5)],  # would leak literals 1,2 if negations expanded
    }, V=V)
    rng = np.random.default_rng(2)
    x = phase2.build_x_phase2(store, 0, 1, a=10, rng=rng)
    assert set(np.flatnonzero(x).tolist()) == {neg3}


def test_no_negation_closure_is_applied():
    _, store = make_store({0: [((1,), 1)]}, V=4)
    rng = np.random.default_rng(3)
    x = phase2.build_x_phase2(store, 0, 1, a=1, rng=rng)
    assert x.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]  # negation half untouched


def test_polarity_selection_uses_q():
    _, store = make_store({0: [((1,), 2), ((2,), -3)]}, V=4)
    rng = np.random.default_rng(4)
    assert phase2.build_x_phase2(store, 0, 1, 5, rng)[1] == 1
    assert phase2.build_x_phase2(store, 0, 0, 5, rng)[2] == 1


def test_build_errors():
    _, store = make_store({0: [((1,), 2)]}, V=4)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="no knowledge entry"):
        phase2.build_x_phase2(store, 3, 1, 2, rng)
    with pytest.raises(ValueError, match="no q-polarity knowledge"):
        phase2.build_x_phase2(store, 0, 0, 2, rng)


def test_window_truncates_sampled_clauses():
    # five disjoint single-literal clauses, a=1: exactly one literal active
    # (literals 1..5 have no entries of their own, so no level-2 growth)
    _, store = make_store({0: [((i + 1,), 1) for i in range(5)]}, V=8)
    rng = np.random.default_rng(6)
    seen = set()
    for _ in range(40):
        x = phase2.build_x_phase2(store, 0, 1, a=1, rng=rng)
        assert x.sum() == 1
        seen.add(int(np.flatnonzero(x)[0]))
    assert len(seen) > 1  # sampling actually varies


def random_toy_store(rng):
    V = int(rng.integers(4, 9))
    entries = {}
    for w in range(V):
        if rng.random() < 0.3:
            continue
        clauses = []
        for _ in range(int(rng.integers(1, 4))):  # at most 3 < a clauses
            size = int(rng.integers(1, 4))
            lits = sorted(rng.choice(2 * V, size=size, replace=False).tolist())
            weight = int(rng.choice([-2, -1, 1, 2]))
            clauses.append((tuple(lits), weight))
        entries[w] = clauses
    return entries, make_store(entries, V)[1], V


def test_expansion_equals_exhaustive_union_when_window_covers_all():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(30):
        entries, store, V = random_toy_store(rng)
        for word in entries:
            for q in (0, 1):
                expected = two_level_union(entries, word, q, V)
                has_polarity = any((w > 0) == bool(q)
                                   for _, w in entries[word])
                if not has_polarity:
                    continue
                x = phase2.build_x_phase2(store, word, q, a=10, rng=rng)
                assert set(np.flatnonzero(x).tolist()) == expected
                checked += 1
    assert checked > 20


# ---- embedding extraction ----

def test_extract_embedding_zero_bank():
    bank = cotm.init_bank(3, 2, 4, N=8, T=10, s=3.0)
    assert phase2.extract_embedding(bank, 0).tolist() == [0.0] * 8


def test_extract_embedding_single_clause():
    bank = cotm.init_bank(1, 1, 4, N=8, T=10, s=3.0)
    bank.states[0, [3, 7]] = 9
    bank.weights[0, 0] = 2
    e = phase2.extract_embedding(bank, 0)
    assert e[3] == 2 and e[7] == 2 and e.sum() == 4


def test_extract_embedding_matches_naive_double_loop():
    rng = np.random.default_rng(8)
    for _ in range(10):
        bank = cotm.init_bank(5, 3, 4, N=8, T=10, s=3.0)
        bank.states[:] = rng.integers(1, 17, size=bank.states.shape)
        bank.weights[:] = rng.integers(-4, 5, size=bank.weights.shape)
        for o in range(3):
            expected = naive_embedding(bank.states.tolist(),
                                       bank.weights.tolist(), bank.N, o)
            assert phase2.extract_embedding(bank, o).tolist() == expected


def test_extract_embedding_is_linear_in_weights():
    rng = np.random.default_rng(9)
    bank = cotm.init_bank(6, 1, 5, N=8, T=10, s=3.0)
    bank.states[:] = rng.integers(1, 17, size=bank.states.shape)
    w1 = rng.integers(-3, 4, size=(6, 1)).astype(np.int32)
    w2 = rng.integers(-3, 4, size=(6, 1)).astype(np.int32)
    bank.weights = w1
    e1 = phase2.extract_embedding(bank, 0)
    bank.weights = w2
    e2 = phase2.extract_embedding(bank, 0)
    bank.weights = w1 + w2
    assert np.array_equal(phase2.extract_embedding(bank, 0), e1 + e2)


# ---- training loop ----

def two_word_disjoint_store():
    _, store = make_store({
        0: [((0, 2), 2), ((2, 14), 1), ((0,), -1)],
        1: [((5, 7), 2), ((7, 19), 1), ((5,), -1)],
        2: [((0, 2), 1), ((2,), -1)],
        5: [((5, 19), 1), ((7,), -2)],
    }, V=12)
    return store


def test_train_embedding_shapes_and_determinism():
    store = two_word_disjoint_store()
    cfg = desk_cfg()
    bank, emb = phase2.train_embedding(store, [0, 1], cfg)
    assert emb.rows.shape == (2, 24)
    assert emb.words == (0, 1)
    assert bank.num_outputs == 2
    _, emb2 = phase2.train_embedding(store, [0, 1], cfg)
    assert np.array_equal(emb.rows, emb2.rows)


def test_train_embedding_single_target_degenerates():
    store = two_word_disjoint_store()
    bank, emb = phase2.train_embedding(store, [0], desk_cfg())
    assert emb.rows.shape == (1, 24)
    assert bank.num_outputs == 1


def test_disjoint_knowledge_gives_disjoint_embeddings():
    store = two_word_disjoint_store()
    cfg = desk_cfg(r=200, epochs=3, num_clauses=16, T=16, N=32)
    _, emb = phase2.train_embedding(store, [0, 1], cfg)
    e0, e1 = emb.rows
    pos0 = set(np.flatnonzero(e0 > 0).tolist())
    pos1 = set(np.flatnonzero(e1 > 0).tolist())
    assert pos0 and pos1
    assert not pos0 & pos1  # supporting evidence never overlaps
    active0 = set(np.flatnonzero(e0).tolist())
    active1 = set(np.flatnonzero(e1).tolist())
    jaccard = len(active0 & active1) / len(active0 | active1)
    assert jaccard < 0.3
    cos = float(e0 @ e1 / (np.linalg.norm(e0) * np.linalg.norm(e1)))
    assert abs(cos) < 0.2


def test_train_embedding_validates_targets():
    store = two_word_disjoint_store()
    with pytest.raises(ValueError, match="duplicate"):
        phase2.train_embedding(store, [0, 0], desk_cfg())
    with pytest.raises(ValueError, match="missing from knowledge store"):
        phase2.train_embedding(store, [0, 9], desk_cfg())


def test_train_embedding_aborts_on_majority_skips():
    _, store = make_store({0: []}, V=4)  # entry exists, no clauses at all
    with pytest.raises(RuntimeError, match="skipped"):
        phase2.train_embedding(store, [0], desk_cfg())


def test_shuffle_positions_are_uniform():
    _, store = make_store({
        w: [((w,), 1), ((w + 8, w + 9), -1)] for w in range(4)
    }, V=8)
    cfg = desk_cfg(r=500, epochs=4, num_clauses=4, T=4, seed=11)
    stats = phase2.Phase2Stats()
    phase2.train_embedding(store, [0, 1, 2, 3], cfg, stats)
    assert stats.position_counts.sum() == 4 * 2000
    _, p, _, _ = chi2_contingency(stats.position_counts)
    assert p > 0.01


# ---- persistence ----

def test_save_load_embeddings_dense_and_sparse(tmp_path):
    vocab = Vocabulary.from_words([f"w{i}" for i in range(4)])
    rows = np.array([[0.0, 2.0, -1.0, 0.0, 0.0, 0.0, 3.0, 0.0],
                     [1.0, 0.0, 0.0, 0.0, -5.0, 0.0, 0.0, 0.0]])
    emb = phase2.EmbeddingMatrix(words=(2, 0), rows=rows)
    dense = tmp_path / "emb.txt"
    phase2.save_embeddings(emb, vocab, dense)
    tokens, loaded = phase2.load_embeddings(dense)
    assert tokens == ["w2", "w0"]
    assert np.array_equal(loaded, rows)
    sparse = tmp_path / "emb.sparse.txt"
    phase2.save_embeddings(emb, vocab, sparse, sparse=True)
    tokens_s, loaded_s = phase2.load_embeddings(sparse, num_literals=8)
    assert tokens_s == tokens
    assert np.array_equal(loaded_s, rows)


def test_load_embeddings_keeps_zero_rows_and_narrow_dense_rows(tmp_path):
    # save_embeddings(sparse=True) writes a bare token for a zero row, and a
    # dense file may be narrower than the 2V literal space
    sparse = tmp_path / "emb.sparse.txt"
    sparse.write_text("w0 1:2.5\nw1\nw2 0:-1\n")
    tokens, rows = phase2.load_embeddings(sparse, num_literals=4)
    assert tokens == ["w0", "w1", "w2"]
    assert rows.tolist() == [[0, 2.5, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]]
    dense = tmp_path / "emb.txt"
    dense.write_text("w0 1 2\nw1 0 3\n")
    tokens, rows = phase2.load_embeddings(dense, num_literals=6)
    assert rows.tolist() == [[1, 2, 0, 0, 0, 0], [0, 3, 0, 0, 0, 0]]


def test_load_embeddings_rejects_a_truncated_dense_row(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("w0 1 2 3 4\nw1 5 6 7 8\nw2 9 1\n")
    with pytest.raises(ValueError, match=r"emb.txt:3: 2 values, but line 1 "
                                         r"has 4"):
        phase2.load_embeddings(path)


def test_load_embeddings_rejects_a_negative_literal_index(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("w0 0:1 2:4\nw1 -1:3.0\n")
    with pytest.raises(ValueError, match=r"emb.txt:2: negative literal index"):
        phase2.load_embeddings(path, num_literals=4)


def test_load_embeddings_rejects_a_duplicate_token(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("w0 1 0\nw1 0 1\nw0 1 1\n")
    with pytest.raises(ValueError, match=r"emb.txt:3: duplicate token 'w0' "
                                         r"\(first on line 1\)"):
        phase2.load_embeddings(path)


def test_load_embeddings_names_the_line_of_a_malformed_cell(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("w0 1 0\nw1 0 x\n")
    with pytest.raises(ValueError, match=r"emb.txt:2: could not convert"):
        phase2.load_embeddings(path)


def test_token_vectors_maps_rows():
    vocab = Vocabulary.from_words(["a", "b", "c"])
    emb = phase2.EmbeddingMatrix(words=(1, 2), rows=np.eye(2, 6))
    tv = phase2.token_vectors(emb, vocab)
    assert set(tv) == {"b", "c"}
    assert tv["b"][0] == 1.0
