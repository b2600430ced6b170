import hashlib
import re
from collections import Counter
from itertools import count
from math import comb

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

import oracles
from tmembed import cotm, knowledge, phase1, phase2
from tmembed.corpus import Vocabulary, vectorize
from tmembed.knowledge import WordKnowledge, filter_by_polarity
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
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(0)
    x = phase2.build_x_phase2(index, drive, 1, a=10, rng=rng)
    assert set(np.flatnonzero(x).tolist()) == {vehicle, license_, road}


def test_single_literal_clause_with_unknown_word():
    _, store = make_store({0: [((4,), 1)]}, V=6)
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(1)
    x = phase2.build_x_phase2(index, 0, 1, a=1, rng=rng)
    assert x.sum() == 1 and x[4] == 1


def test_negated_literals_activate_but_never_expand():
    V = 5
    neg3 = V + 3  # negation of word 3
    _, store = make_store({
        0: [((neg3,), 1)],
        3: [((1, 2), 5)],  # would leak literals 1,2 if negations expanded
    }, V=V)
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(2)
    x = phase2.build_x_phase2(index, 0, 1, a=10, rng=rng)
    assert set(np.flatnonzero(x).tolist()) == {neg3}


def test_no_negation_closure_is_applied():
    _, store = make_store({0: [((1,), 1)]}, V=4)
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(3)
    x = phase2.build_x_phase2(index, 0, 1, a=1, rng=rng)
    assert x.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]  # negation half untouched


def test_polarity_selection_uses_q():
    _, store = make_store({0: [((1,), 2), ((2,), -3)]}, V=4)
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(4)
    assert phase2.build_x_phase2(index, 0, 1, 5, rng)[1] == 1
    assert phase2.build_x_phase2(index, 0, 0, 5, rng)[2] == 1


def test_build_errors():
    _, store = make_store({0: [((1,), 2)]}, V=4)
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="no knowledge entry"):
        phase2.build_x_phase2(index, 3, 1, 2, rng)
    with pytest.raises(ValueError, match="no q-polarity knowledge"):
        phase2.build_x_phase2(index, 0, 0, 2, rng)
    # a missing entry is reported before a bad target bit
    with pytest.raises(ValueError, match="no knowledge entry"):
        phase2.build_x_phase2(index, 3, 2, 2, rng)
    with pytest.raises(ValueError, match="target bit must be 0 or 1, got 2"):
        phase2.build_x_phase2(index, 0, 2, 2, rng)


def test_window_truncates_sampled_clauses():
    # five disjoint single-literal clauses, a=1: exactly one literal active
    # (literals 1..5 have no entries of their own, so no level-2 growth)
    _, store = make_store({0: [((i + 1,), 1) for i in range(5)]}, V=8)
    index = phase2.PolarityIndex(store)
    rng = np.random.default_rng(6)
    seen = set()
    for _ in range(40):
        x = phase2.build_x_phase2(index, 0, 1, a=1, rng=rng)
        assert x.sum() == 1
        seen.add(int(np.flatnonzero(x)[0]))
    assert len(seen) > 1  # sampling actually varies


def test_a_literal_outside_the_literal_space_raises_and_never_wraps():
    # literals -1 and 2V = 8 would wrap or fall off a length-8 vector, so
    # the index refuses them as it is built, naming the word
    good = {2: [((0,), 1)], 3: [((3, 6), 1)]}
    for word, clauses in ((0, [((1, 8), 1)]), (1, [((-1,), 1)])):
        _, store = make_store({**good, word: clauses}, V=4)
        with pytest.raises(ValueError, match=f"^word {word}: literal indices"):
            phase2.PolarityIndex(store)
    _, store = make_store(good, V=4)
    rng = np.random.default_rng(15)
    x = phase2.build_x_phase2(phase2.PolarityIndex(store), 3, 1, 2, rng)
    assert np.flatnonzero(x).tolist() == [3, 6]


def test_below_is_uniform_even_where_the_modulus_would_not_be():
    # 2**64 mod 3 * 2**61 is 2**62: without drawing the words below it
    # again, the lower two thirds of the bound would each come up 3/8 of
    # the time
    rng = np.random.default_rng(16)
    n = np.array([3 * 2**61] * 3000 + [1] * 10 + [7] * 3000, dtype=np.int64)
    x = phase2._below(rng, n)
    assert x.dtype == np.int64 and (x >= 0).all() and (x < n).all()
    thirds = np.bincount(x[:3000] // 2**61, minlength=3)
    assert chisquare(thirds).pvalue > 1e-3
    assert not x[3000:3010].any()
    assert chisquare(np.bincount(x[3010:], minlength=7)).pvalue > 1e-3


@pytest.mark.parametrize("a", [1, 2, 3, 4, 6])
def test_subsets_are_uniform_and_independent_per_range(a):
    # ranges of 1, 3, 4 and 6 ids, kept by drawing the kept or the
    # left-out ids; every pair of subsets of the last two ranges is equally
    # likely, so each is uniform and the two are independent
    starts, counts = np.array([0, 10, 20, 30]), np.array([1, 3, 4, 6])
    rng = np.random.default_rng([17, a])
    joint = Counter()
    for _ in range(4000):
        ids = phase2._subsets(starts, counts, a, rng).tolist()
        per = [frozenset(i for i in ids if s <= i < s + n)
               for s, n in zip(starts.tolist(), counts.tolist())]
        assert sorted(ids) == sorted(set(ids)) and len(ids) == sum(map(len, per))
        assert [len(p) for p in per] == [min(a, n) for n in counts.tolist()]
        joint[per[2], per[3]] += 1
    assert len(joint) == comb(4, min(a, 4)) * comb(6, min(a, 6))
    if len(joint) > 1:
        assert chisquare(list(joint.values())).pvalue > 1e-3


def test_subsets_of_one_range_twice_are_drawn_apart():
    # the same word expanded through two clauses: two independent draws
    rng = np.random.default_rng(18)
    together = Counter()
    for _ in range(3000):
        ids = phase2._subsets(np.array([5, 5]), np.array([4, 4]), 2, rng)
        assert len(ids) == 4 and set(ids.tolist()) <= {5, 6, 7, 8}
        together[len(set(ids.tolist()))] += 1
    # the second pair repeats the first with probability 1/6
    assert set(together) <= {2, 3, 4}
    assert abs(together[2] / 3000 - 1 / 6) < 4 * (5 / 36 / 3000) ** 0.5


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
        index = phase2.PolarityIndex(store)
        for word in entries:
            for q in (0, 1):
                expected = two_level_union(entries, word, q, V)
                has_polarity = any((w > 0) == bool(q)
                                   for _, w in entries[word])
                if not has_polarity:
                    continue
                x = phase2.build_x_phase2(index, word, q, a=10, rng=rng)
                assert set(np.flatnonzero(x).tolist()) == expected
                checked += 1
    assert checked > 20


def random_expansion_store(rng):
    """A toy store for comparing expansions: words carry up to six clauses,
    so small windows sample; literals repeat across a word's clauses, some
    are negated, some words have no entry, some an empty entry and some
    only one polarity."""
    V = int(rng.integers(3, 9))
    entries = {}
    for w in range(V):
        if rng.random() < 0.2:
            continue
        sign = int(rng.choice([-1, 1])) if rng.random() < 0.3 else 0
        clauses = []
        for _ in range(int(rng.integers(0, 7))):
            size = int(rng.integers(1, 5))
            lits = sorted(rng.choice(2 * V, size=size, replace=False).tolist())
            weight = int(rng.integers(1, 4)) * (sign or int(rng.choice([-1, 1])))
            clauses.append((tuple(lits), weight))
        entries[w] = clauses
    return make_store(entries, V)[1]


def active_sets(build, source, word, q, a, rng, n):
    """How often each active-literal set came out of n expansions; source
    is what build reads (a PolarityIndex, or the oracle's store)."""
    return Counter(frozenset(np.flatnonzero(
        build(source, word, q, a, rng)).tolist()) for _ in range(n))


def homogeneity_p(mine: Counter, theirs: Counter) -> float:
    """Chi-square p-value that two equally sized samples of active sets
    share one law. Sets seen fewer than 10 times in both samples together
    are pooled into one category."""
    rare = {s for s in mine.keys() | theirs.keys() if mine[s] + theirs[s] < 10}
    common = (mine.keys() | theirs.keys()) - rare
    table = [[sample[s] for s in common] + [sum(sample[s] for s in rare)]
             for sample in (mine, theirs)]
    table = [row for row in zip(*table) if sum(row)]
    if len(table) < 2:
        return 1.0
    return chi2_contingency(np.array(table).T)[1]


# Every case of the expansion on one store: V=5, literals 5-9 negate words
# 0-4. Word 0's positive clauses share literal 1 (word 1 is expanded once per
# sampled clause that carries it, and a window of 2 draws 2 of its 5
# positive clauses each time), and both polarities carry negated literals.
# Word 2 has only positive clauses, fewer than some windows, word 3 only
# negative ones, and word 4 has no entry, so it is activated but never
# expanded.
LAW_STORE = {
    0: [((1, 2), 1), ((1, 8), 2), ((3,), 1), ((0, 6), -1), ((4,), -2),
        ((2, 8), -1)],
    1: [((3,), 1), ((4,), 2), ((2, 9), 1), ((7,), 1), ((5, 8), 1),
        ((0,), -1), ((3, 7), -1)],
    2: [((1, 4), 1), ((7,), 1)],
    3: [((4,), -1), ((1,), -2)],
}
LAW_CASES = {  # (word, q, a)
    "a < n": (0, 1, 1),
    "a < n, literal 1 in two sampled clauses": (0, 1, 2),
    "a >= n at level 1, a < n at level 2": (2, 1, 2),
    "negated literals": (0, 0, 2),
    "negative expansions": (1, 0, 1),
    "positive-only word": (2, 1, 1),
    "negative-only word": (3, 0, 1),
}


@pytest.mark.parametrize("case", LAW_CASES)
def test_expansion_law_matches_the_filtering_oracle(case):
    # the active-literal set has the law of the expansion that filtered the
    # store on every call (tests/oracles.py); only the random stream may
    # differ
    word, q, a = LAW_CASES[case]
    _, store = make_store(LAW_STORE, V=5)
    index = phase2.PolarityIndex(store)
    mine = active_sets(phase2.build_x_phase2, index, word, q, a,
                       np.random.default_rng([31, word, q, a]), 3000)
    theirs = active_sets(oracles.build_x_phase2, store, word, q, a,
                         np.random.default_rng([32, word, q, a]), 3000)
    assert len(mine) > 1
    assert homogeneity_p(mine, theirs) > 1e-3


@pytest.mark.parametrize("seed", range(8))
def test_expansion_law_matches_the_filtering_oracle_on_random_stores(seed):
    rng = np.random.default_rng([33, seed])
    store = random_expansion_store(rng)
    cases = [(w, q) for w, k in store.entries.items() for q in (0, 1)
             if filter_by_polarity(k, q).clauses.weights.size]
    word, q = cases[int(rng.integers(len(cases)))]
    a = int(rng.integers(1, 4))
    mine = active_sets(phase2.build_x_phase2, phase2.PolarityIndex(store),
                       word, q, a, np.random.default_rng([34, seed]), 1500)
    theirs = active_sets(oracles.build_x_phase2, store, word, q, a,
                         np.random.default_rng([35, seed]), 1500)
    assert homogeneity_p(mine, theirs) > 1e-3


def test_expansion_matches_the_filtering_oracle():
    # the same error, dtype and law of the active set as the expansion that
    # filtered the store on every call (tests/oracles.py), all calls on a
    # store sharing one index; the law is compared over 20 expansions of
    # every call that succeeds
    rng = np.random.default_rng(12)
    seen = Counter()
    mine, theirs = Counter(), Counter()
    for si in range(40):
        store = random_expansion_store(rng)
        index = phase2.PolarityIndex(store)
        mine_rng = np.random.default_rng(int(rng.integers(2**32)))
        their_rng = np.random.default_rng(int(rng.integers(2**32)))
        for query in range(25):
            word = int(rng.integers(store.V + 1))
            q, a = int(rng.integers(2)), int(rng.integers(1, 5))
            try:
                expected = oracles.build_x_phase2(store, word, q, a, their_rng)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    phase2.build_x_phase2(index, word, q, a, mine_rng)
                seen["no entry" if word not in store.entries
                     else "no polarity"] += 1
                continue
            x = phase2.build_x_phase2(index, word, q, a, mine_rng)
            assert x.dtype == expected.dtype and x.shape == expected.shape
            n = filter_by_polarity(store.entries[word], q).clauses.weights.size
            seen["a < n" if a < n else "a >= n"] += 1
            key = (si, query)
            for sample, build, source, r in (
                    (mine, phase2.build_x_phase2, index, mine_rng),
                    (theirs, oracles.build_x_phase2, store, their_rng)):
                for s, count in active_sets(build, source, word, q, a, r,
                                            20).items():
                    sample[key, s] += count
    assert min(seen[k] for k in ("no entry", "no polarity", "a < n",
                                 "a >= n")) > 25
    assert homogeneity_p(mine, theirs) > 1e-3


def test_a_direct_call_filters_each_word_once_per_polarity(monkeypatch):
    # the index a call reads filters every entry of the whole store once for
    # each q; the call itself filters nothing, whether or not it fails on
    # its word or q
    calls = []

    def record(entry, q):
        calls.append((entry.word, q))
        return filter_by_polarity(entry, q)

    monkeypatch.setattr(phase2, "filter_by_polarity", record)
    rng = np.random.default_rng(13)
    for _ in range(40):
        store = random_expansion_store(rng)
        every = sorted((w, q) for w in store.entries for q in (0, 1))
        for word in range(store.V + 1):
            for q in (0, 1, 2):
                calls.clear()
                index = phase2.PolarityIndex(store)
                assert sorted(calls) == every
                calls.clear()
                try:
                    phase2.build_x_phase2(index, word, q, 2, rng)
                except ValueError:
                    pass
                assert calls == []


def test_a_literal_in_two_sampled_clauses_is_expanded_twice():
    # both of word 0's clauses carry literal 1, so a=2 expands word 1 twice:
    # two independent 2-of-4 draws of its single-word clauses, so more than
    # two of them show with probability 5/6 (one draw alone shows exactly two)
    _, store = make_store({
        0: [((1, 9), 1), ((1, 2), 2)],
        1: [((3,), 1), ((4,), 1), ((5,), 1), ((6, 7), 1)],
        2: [((2,), -1)],  # no positive clause, so never expanded at q=1
    }, V=8)
    n = 3000
    for build, source, seed in (
            (phase2.build_x_phase2, phase2.PolarityIndex(store), 36),
            (oracles.build_x_phase2, store, 37)):
        rng = np.random.default_rng(seed)
        shown = Counter()
        for _ in range(n):
            x = build(source, 0, 1, 2, rng)
            assert x[[1, 2, 9]].all()
            shown[int(x[[3, 4, 5, 6]].sum())] += 1
        assert set(shown) <= {2, 3, 4}
        more = (shown[3] + shown[4]) / n
        assert abs(more - 5 / 6) < 4 * (5 / 36 / n) ** 0.5
    # clause (6, 7) shows whole or not at all
    mine = active_sets(phase2.build_x_phase2, phase2.PolarityIndex(store), 0,
                       1, 2, np.random.default_rng(38), n)
    assert all((6 in s) == (7 in s) for s in mine)
    theirs = active_sets(oracles.build_x_phase2, store, 0, 1, 2,
                         np.random.default_rng(39), n)
    assert homogeneity_p(mine, theirs) > 1e-3


def pinned_phase1_store():
    """A Phase-1 store over two five-word topics: most words have more
    clauses of a polarity than PINNED_PHASE2_CFG.a, some have fewer."""
    rng = np.random.default_rng(21)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(10)])
    raw = [[f"w{w}" for w in
            (rng.choice(5, size=3, replace=False) + 5 * (d % 2)).tolist()]
           for d in range(60)]
    cfg = Phase1Config(r=40, a=4, epochs=2, num_clauses=12, T=12, s=3.0,
                       N=16, seed=5)
    return phase1.train_all(vectorize(raw, vocab), vocab, cfg, parallelism=1)


# sha256 of the embedding rows train_embedding learns from
# pinned_phase1_store under PINNED_PHASE2_CFG, as the expansion that draws
# each level's clauses in one exact subset draw produces them. Any change to
# the random stream, the expansion or the training moves it; the law tests
# above must pass with any new digest. Word 3 of that store has no negative
# clause, so its q=0 word-examples are skipped.
PINNED_EMBEDDING_SHA256 = \
    "7d97a30f50205a53235352b6d4729cbda8bf32ed134ec6291320b25425ad2357"
PINNED_PHASE2_CFG = Phase1Config(r=30, a=2, epochs=2, num_clauses=12, T=12,
                                 s=3.0, N=16, seed=9)


def test_train_embedding_rows_are_pinned():
    store = pinned_phase1_store()
    stats = phase2.Phase2Stats()
    _, emb = phase2.train_embedding(store, range(10), PINNED_PHASE2_CFG, stats)
    assert (stats.attempts, stats.skips) == (600, 28)
    assert hashlib.sha256(emb.rows.tobytes()).hexdigest() == \
        PINNED_EMBEDDING_SHA256


def test_train_embedding_filters_each_word_and_polarity_once(monkeypatch):
    calls = Counter()

    def record(entry, q):
        calls[entry.word, q] += 1
        return filter_by_polarity(entry, q)

    monkeypatch.setattr(phase2, "filter_by_polarity", record)
    store = pinned_phase1_store()
    phase2.train_embedding(store, range(10), PINNED_PHASE2_CFG)
    assert set(calls.values()) == {1}
    assert len(calls) <= 2 * len(store.entries)


def test_train_embedding_calls_build_x_phase2_once_per_word_example(
        monkeypatch):
    # through the module global, so a wrapper sees every attempt and every
    # skip as a raised ValueError
    calls, raised = [], []
    original = phase2.build_x_phase2

    def counted(*args):
        calls.append(args[1])
        try:
            return original(*args)
        except ValueError:
            raised.append(args[1])
            raise

    monkeypatch.setattr(phase2, "build_x_phase2", counted)
    _, store = make_store({0: [((1,), 2), ((2,), -1)], 1: [((0,), 1)]}, V=4)
    stats = phase2.Phase2Stats()
    phase2.train_embedding(store, [0, 1], desk_cfg(r=40, epochs=2), stats)
    assert len(calls) == stats.attempts == 2 * 40 * 2
    assert len(raised) == stats.skips > 0 and set(raised) == {1}
    assert stats.skipped_words == Counter(raised)


@pytest.mark.parametrize("key, entry, message", [
    (1, (1, [((0, 8), 1)]), "word 1: literal indices"),  # at 2V
    (1, (1, [((0, 9), -1)]), "word 1: literal indices"),  # above 2V
    (1, (1, [((-1,), 1)]), "word 1: literal indices"),
    (1, (1, [((2, 0), 1)]), "word 1: literal indices"),  # unsorted
    (1, (1, [((0,), 1), ((2,), 0)]), "word 1: clause with zero weight"),
    (1, (1, [((0,), 2**31)]), "word 1: clause weight outside the i32"),
    (4, (4, [((0,), 1)]), "word index 4 out of range"),  # keyed at V
    (1, (2, [((0,), 1)]), "entry key 1 does not match knowledge word 2"),
], ids=["literal-at-2V", "literal-above-2V", "negative-literal",
        "unsorted-literals", "zero-weight", "weight-beyond-i32", "key-at-V",
        "key-not-its-word"])
def test_train_embedding_refuses_an_entry_save_refuses_before_any_draw(
        monkeypatch, tmp_path, key, entry, message):
    # the refused entry is not a target, but the targets' clauses reach it
    calls = []
    monkeypatch.setattr(phase2, "build_x_phase2",
                        lambda *args: calls.append(args))
    _, store = make_store({0: [((1, 2), 1), ((1,), -1)],
                           2: [((0, 1), 1), ((3,), -2)]}, V=4)
    store.entries[key] = WordKnowledge(*entry)
    with pytest.raises(ValueError, match=f"^{message}"):
        knowledge.save(store, tmp_path / "k.tmk")
    with pytest.raises(ValueError, match=f"^{message}"):
        phase2.train_embedding(store, [0, 2], desk_cfg())
    assert calls == []


# ---- embedding extraction ----

def test_extract_embedding_zero_bank():
    bank = cotm.init_bank(3, 2, 4, N=8, T=10, s=3.0)
    assert phase2.extract_embedding(bank, 0).tolist() == [0.0] * 8


def test_extract_embedding_single_clause():
    bank = cotm.init_bank(1, 1, 4, N=8, T=10, s=3.0)
    bank.set_states(np.s_[0, [3, 7]], 9)
    bank.weights[0, 0] = 2
    e = phase2.extract_embedding(bank, 0)
    assert e[3] == 2 and e[7] == 2 and e.sum() == 4


def test_extract_embedding_matches_naive_double_loop():
    rng = np.random.default_rng(8)
    for _ in range(10):
        bank = cotm.init_bank(5, 3, 4, N=8, T=10, s=3.0)
        bank.set_states(np.s_[:], rng.integers(1, 17, size=bank.states.shape))
        bank.weights[:] = rng.integers(-4, 5, size=bank.weights.shape)
        for o in range(3):
            expected = naive_embedding(bank.states.tolist(),
                                       bank.weights.tolist(), bank.N, o)
            assert phase2.extract_embedding(bank, o).tolist() == expected


def test_extract_embedding_is_linear_in_weights():
    rng = np.random.default_rng(9)
    bank = cotm.init_bank(6, 1, 5, N=8, T=10, s=3.0)
    bank.set_states(np.s_[:], rng.integers(1, 17, size=bank.states.shape))
    w1 = rng.integers(-3, 4, size=(6, 1)).astype(np.int32)
    w2 = rng.integers(-3, 4, size=(6, 1)).astype(np.int32)
    bank.weights = w1
    e1 = phase2.extract_embedding(bank, 0)
    bank.weights = w2
    e2 = phase2.extract_embedding(bank, 0)
    bank.weights = w1 + w2
    assert np.array_equal(phase2.extract_embedding(bank, 0), e1 + e2)


# ---- training loop ----

DISJOINT = {
    0: [((0, 2), 2), ((2, 14), 1), ((0,), -1)],
    1: [((5, 7), 2), ((7, 19), 1), ((5,), -1)],
    2: [((0, 2), 1), ((2,), -1)],
    5: [((5, 19), 1), ((7,), -2)],
}


def two_word_disjoint_store():
    return make_store(DISJOINT, V=12)[1]


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


def test_disjoint_knowledge_gives_disjoint_inputs():
    # every expanded input of word 0 misses every expanded input of word 1
    index = phase2.PolarityIndex(two_word_disjoint_store())
    rng = np.random.default_rng(0)
    for q in (0, 1):
        for a in (1, 2, 3):
            seen = {0: set(), 1: set()}
            for _ in range(40):
                for w in seen:
                    x = phase2.build_x_phase2(index, w, q, a, rng)
                    seen[w].update(np.flatnonzero(x).tolist())
            assert seen[0] and seen[1]
            assert not seen[0] & seen[1]


def test_disjoint_knowledge_embeds_further_apart_than_shared_knowledge():
    # over seeds 0-19, the two disjoint words are less alike than any pair
    # that carries the same clauses (largest 0.069 against smallest 0.673
    # when this was written)
    disjoint = two_word_disjoint_store()
    _, shared = make_store({**DISJOINT, 1: DISJOINT[0]}, V=12)

    def cosines(store):
        out = []
        for seed in range(20):
            cfg = desk_cfg(r=200, epochs=3, num_clauses=16, T=16, N=32,
                           seed=seed)
            e0, e1 = phase2.train_embedding(store, [0, 1], cfg)[1].rows
            out.append(float(e0 @ e1 / (np.linalg.norm(e0)
                                        * np.linalg.norm(e1))))
        return out

    assert max(cosines(disjoint)) < min(cosines(shared))


def test_train_embedding_validates_targets():
    store = two_word_disjoint_store()
    with pytest.raises(ValueError, match="duplicate"):
        phase2.train_embedding(store, [0, 0], desk_cfg())
    with pytest.raises(ValueError, match="missing from knowledge store"):
        phase2.train_embedding(store, [0, 9], desk_cfg())
    with pytest.raises(ValueError, match="^no target words$"):
        phase2.train_embedding(store, [], desk_cfg())


def test_train_embedding_aborts_on_majority_skips():
    _, store = make_store({0: []}, V=4)  # entry exists, no clauses at all
    with pytest.raises(RuntimeError, match="skipped"):
        phase2.train_embedding(store, [0], desk_cfg())


def shuffle_position_counts(monkeypatch, store, targets, cfg):
    """How often train_embedding expands each target (row) at each place of
    its example's shuffled order (column). Every word-example calls the
    module's build_x_phase2 once, skipped or not, so call n is at place
    n mod k."""
    k = len(targets)
    counts = np.zeros((k, k), dtype=np.int64)
    calls = count()
    original = phase2.build_x_phase2

    def counted(*args):
        counts[targets.index(args[1]), next(calls) % k] += 1
        return original(*args)

    monkeypatch.setattr(phase2, "build_x_phase2", counted)
    phase2.train_embedding(store, targets, cfg)
    return counts


def test_shuffle_positions_are_uniform(monkeypatch):
    _, store = make_store({
        w: [((w,), 1), ((w + 8, w + 9), -1)] for w in range(4)
    }, V=8)
    cfg = desk_cfg(r=500, epochs=4, num_clauses=4, T=4, seed=11)
    counts = shuffle_position_counts(monkeypatch, store, [0, 1, 2, 3], cfg)
    assert counts.sum() == 4 * 2000
    _, p, _, _ = chi2_contingency(counts)
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
    # rows exactly num_literals wide
    assert phase2.load_embeddings(dense, num_literals=2)[1].tolist() == [
        [1, 2], [0, 3]]
    assert phase2.load_embeddings(sparse, num_literals=2)[1].tolist() == [
        [0, 2.5], [0, 0], [-1, 0]]


@pytest.mark.parametrize("text, line, width", [
    ("w0 0:1 9:2\n", 1, 10),
    ("w0 0:1 3:2\nw1\nw2 4:1\n", 3, 5),
    ("w0 1 2 3 4 5 6\n", 1, 6),
    ("w0 3:1\nw1 1 2 3 4 5\n", 2, 5),
], ids=["sparse", "sparse_at_the_bound", "dense", "dense_after_sparse"])
def test_load_embeddings_rejects_a_row_wider_than_num_literals(
        tmp_path, text, line, width):
    # an embedding file over a larger vocabulary than the caller's
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "
                                         rf"row is {width} literals wide, "
                                         rf"more than 4$"):
        phase2.load_embeddings(path, num_literals=4)
    assert phase2.load_embeddings(path)[1].shape[1] == width


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


@pytest.mark.parametrize("row", ["3:1 3:2", "0:1 3:1 1:2 3:2 1:5"])
def test_load_embeddings_rejects_a_literal_listed_twice(tmp_path, row):
    # a second value for a literal would silently replace the first
    path = tmp_path / "emb.txt"
    path.write_text(f"w0 0:1\nw1 {row}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "
                                         rf"literal 3 listed twice$"):
        phase2.load_embeddings(path, num_literals=4)


def test_load_embeddings_rejects_a_duplicate_token(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("w0 1 0\nw1 0 1\nw0 1 1\n")
    with pytest.raises(ValueError, match=r"emb.txt:3: duplicate token 'w0' "
                                         r"\(first on line 1\)"):
        phase2.load_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("text", ["w0 1 0\nw1 0 {}\n", "w0 0:1\nw1 1:{}\n"],
                         ids=["dense", "sparse"])
def test_load_embeddings_rejects_a_non_finite_value(tmp_path, text, value):
    path = tmp_path / "emb.txt"
    path.write_text(text.format(value))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "
                                         rf"non-finite value$"):
        phase2.load_embeddings(path, num_literals=2)


@pytest.mark.parametrize("text", ["w0 1e308 1e308\n", "w0 0:1e308 1:1e308\n"],
                         ids=["dense", "sparse"])
def test_load_embeddings_keeps_finite_values_whose_sum_overflows(tmp_path,
                                                                 text):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    assert phase2.load_embeddings(path)[1].tolist() == [[1e308, 1e308]]


def test_load_embeddings_names_the_line_of_a_malformed_cell(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("w0 1 0\nw1 0 x\n")
    with pytest.raises(ValueError, match=r"emb.txt:2: could not convert"):
        phase2.load_embeddings(path)
