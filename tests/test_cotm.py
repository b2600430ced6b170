import numpy as np
import pytest

from tmembed import cotm
from oracles import naive_clause_output, naive_predict, negation_closed_vector


def random_bank(rng, num_clauses, num_outputs, V, N=8, T=10, s=3.0):
    bank = cotm.init_bank(num_clauses, num_outputs, V, N, T, s)
    bank.set_states(
        np.s_[:], rng.integers(1, 2 * N + 1, size=bank.states.shape))
    bank.weights[:] = rng.integers(-5, 6, size=bank.weights.shape)
    return bank


# ---- clause evaluation ----

def test_clause_with_first_and_last_negated_literal():
    # clause {x1, not-xV} fires when both literals are 1
    V = 4
    bank = cotm.init_bank(1, 1, V, N=8, T=10, s=3.0)
    bank.set_states(np.s_[0, 0], 9)          # x1
    bank.set_states(np.s_[0, 2 * V - 1], 9)  # negation of the last feature
    x = negation_closed_vector([0, 1], V)  # feature V-1 absent
    assert x[0] == 1 and x[2 * V - 1] == 1
    assert cotm.clause_output(bank, 0, x, "infer") == 1
    assert cotm.clause_output(bank, 0, x, "train") == 1
    y = negation_closed_vector([0, V - 1], V)  # last feature present
    assert cotm.clause_output(bank, 0, y, "infer") == 0


def test_empty_clause_convention():
    bank = cotm.init_bank(2, 1, 3, N=8, T=10, s=3.0)
    x = negation_closed_vector([1], 3)
    assert cotm.clause_output(bank, 0, x, "infer") == 0
    assert cotm.clause_output(bank, 0, x, "train") == 1


def test_clause_output_matches_naive_loop_on_all_inputs():
    rng = np.random.default_rng(5)
    V = 4  # 2V = 8 literals, enumerate all 2^8 raw inputs
    bank = random_bank(rng, 6, 1, V)
    states = bank.states.tolist()
    for code in range(256):
        x = np.array([(code >> i) & 1 for i in range(8)], dtype=np.uint8)
        for c in range(6):
            for mode, train in (("train", True), ("infer", False)):
                assert cotm.clause_output(bank, c, x, mode) == \
                    naive_clause_output(states, bank.N, c, x.tolist(), train)


def test_clause_output_validation():
    bank = cotm.init_bank(2, 1, 3, N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cotm.clause_output(bank, 0, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="clause id"):
        cotm.clause_output(bank, 7, np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="mode"):
        cotm.clause_output(bank, 0, np.zeros(6, dtype=np.uint8), "bogus")


# ---- prediction ----

def test_predict_zero_weights_gives_zeros():
    bank = cotm.init_bank(4, 3, 5, N=8, T=10, s=3.0)
    x = negation_closed_vector([0, 4], 5)
    assert cotm.predict(bank, x).tolist() == [0, 0, 0]


def test_predict_single_positive_vote():
    bank = cotm.init_bank(1, 1, 3, N=8, T=10, s=3.0)
    bank.set_states(np.s_[0, 1], 9)
    bank.weights[0, 0] = 3
    x = negation_closed_vector([1], 3)
    assert cotm.predict(bank, x).tolist() == [1]


def test_predict_tie_at_zero_is_zero():
    bank = cotm.init_bank(2, 1, 2, N=8, T=10, s=3.0)
    bank.set_states(np.s_[:, 0], 9)
    bank.weights[0, 0] = 2
    bank.weights[1, 0] = -2
    x = negation_closed_vector([0], 2)
    # both clauses fire, so the vote is 2 - 2 = 0
    assert [cotm.clause_output(bank, c, x) for c in range(2)] == [1, 1]
    assert cotm.predict(bank, x).tolist() == [0]


def test_predict_matches_naive_on_all_closed_inputs():
    rng = np.random.default_rng(9)
    V = 6
    for _ in range(3):
        bank = random_bank(rng, 4, 2, V)
        states = bank.states.tolist()
        weights = bank.weights.tolist()
        for code in range(2 ** V):
            feats = [i for i in range(V) if (code >> i) & 1]
            x = negation_closed_vector(feats, V)
            assert cotm.predict(bank, x).tolist() == \
                naive_predict(states, weights, bank.N, x.tolist())


# ---- updates ----

def test_invalidation_increments_false_literal_from_boundary():
    # matching clause, q=0: an excluded false literal moves one step up
    N = 16
    bank = cotm.init_bank(1, 1, 2, N=N, T=10, s=3.0)
    # include literal 0 so the clause matches x
    bank.set_states(np.s_[0, 0], N + 1)
    x = negation_closed_vector([0], 2)  # bits [1, 0, 0, 1]
    rng = np.random.default_rng(0)
    before = bank.states[0].copy()
    for _ in range(200):
        cotm.update(bank, x, 0, 0, rng)
        if bank.states[0, 1] != before[1]:
            break
    assert bank.states[0, 1] == N + 1
    assert bank.states[0, 2] == N + 1  # the other false literal moved too
    assert bank.weights[0, 0] < 0


def test_invalidation_drives_matching_clause_to_reject():
    N = 16
    bank = cotm.init_bank(1, 1, 2, N=N, T=10, s=3.0)
    bank.set_states(np.s_[0, 0], N + 1)
    bank.weights[0, 0] = 1
    x = negation_closed_vector([0], 2)
    rng = np.random.default_rng(1)
    for step in range(200):
        if cotm.clause_output(bank, 0, x, "infer") == 0:
            break
        cotm.update(bank, x, 0, 0, rng)
    assert cotm.clause_output(bank, 0, x, "infer") == 0


def test_large_s_leaves_false_literals_untouched_on_memorization():
    # 1/s -> 0: false literals of a matching clause keep their state
    bank = cotm.init_bank(2, 1, 4, N=8, T=10, s=1e12)
    x = negation_closed_vector([0, 2], 4)
    rng = np.random.default_rng(2)
    false_idx = np.flatnonzero(x == 0)
    before = bank.states[:, false_idx].copy()
    for _ in range(200):
        cotm.update(bank, x, 0, 1, rng)
    assert np.array_equal(bank.states[:, false_idx], before)
    # while true literals were memorized with probability (s-1)/s ~ 1
    assert (bank.states[:, np.flatnonzero(x == 1)] > 8).all()


def test_states_saturate_at_upper_bound():
    N = 4
    bank = cotm.init_bank(1, 1, 2, N=N, T=10, s=1e12)
    bank.set_states(np.s_[0, :], 2 * N)
    x = np.ones(4, dtype=np.uint8)  # every literal true: pure memorization
    rng = np.random.default_rng(3)
    for _ in range(50):
        cotm.update(bank, x, 0, 1, rng)
    assert (bank.states == 2 * N).all()


def test_state_bounds_under_update_storm():
    rng = np.random.default_rng(4)
    N = 5
    bank = cotm.init_bank(6, 2, 4, N=N, T=8, s=2.0)
    for _ in range(3000):
        x = rng.integers(0, 2, size=8).astype(np.uint8)
        cotm.update(bank, x, int(rng.integers(2)), int(rng.integers(2)), rng)
        assert bank.states.min() >= 1
        assert bank.states.max() <= 2 * N


def test_no_reinforcement_at_the_voting_margin():
    # q=1 with the vote clamped at +T: activation probability is zero
    T = 6
    bank = cotm.init_bank(1, 1, 2, N=8, T=T, s=3.0)
    bank.set_states(np.s_[0, 0], 9)
    bank.weights[0, 0] = T
    x = negation_closed_vector([0], 2)
    rng = np.random.default_rng(5)
    states, weights = bank.states.copy(), bank.weights.copy()
    for _ in range(500):
        cotm.update(bank, x, 0, 1, rng)
    assert np.array_equal(bank.states, states)
    assert np.array_equal(bank.weights, weights)


def test_no_invalidation_at_negative_margin():
    T = 6
    bank = cotm.init_bank(1, 1, 2, N=8, T=T, s=3.0)
    bank.set_states(np.s_[0, 0], 9)
    bank.weights[0, 0] = -T
    x = negation_closed_vector([0], 2)
    rng = np.random.default_rng(6)
    states, weights = bank.states.copy(), bank.weights.copy()
    for _ in range(500):
        cotm.update(bank, x, 0, 0, rng)
    assert np.array_equal(bank.states, states)
    assert np.array_equal(bank.weights, weights)


def test_activation_probability_is_half_at_zero_vote():
    # empty clause: train output 1, infer output 0, so the vote stays 0 and
    # each q=0 update decrements the weight with probability exactly 1/2
    n = 20000
    bank = cotm.init_bank(1, 1, 2, N=8, T=10, s=3.0)
    x = np.ones(4, dtype=np.uint8)  # no false literals: states never move
    rng = np.random.default_rng(7)
    for _ in range(n):
        cotm.update(bank, x, 0, 0, rng)
    hits = -int(bank.weights[0, 0])
    # five sigmas around n/2
    assert abs(hits - n / 2) < 5 * (n * 0.25) ** 0.5


def test_memorization_increments_weight_invalidation_decrements():
    bank = cotm.init_bank(1, 1, 2, N=8, T=1, s=1e12)
    x = np.ones(4, dtype=np.uint8)
    rng = np.random.default_rng(8)
    # T=1, vote 0 -> p_act = 1/2; run until one memorization lands
    while bank.weights[0, 0] == 0:
        cotm.update(bank, x, 0, 1, rng)
    assert bank.weights[0, 0] == 1


def test_update_validation():
    bank = cotm.init_bank(2, 2, 3, N=8, T=10, s=3.0)
    rng = np.random.default_rng(0)
    x = negation_closed_vector([0], 3)
    with pytest.raises(ValueError, match="target bit"):
        cotm.update(bank, x, 0, 2, rng)
    with pytest.raises(ValueError, match="output id"):
        cotm.update(bank, x, 5, 1, rng)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cotm.update(bank, np.zeros(4, dtype=np.uint8), 0, 1, rng)


# ---- initialization ----

def test_init_bank_state():
    bank = cotm.init_bank(3, 2, 4, N=8, T=10, s=3.0)
    assert (bank.states == 8).all()
    assert (bank.weights == 0).all()
    x = negation_closed_vector([1, 3], 4)
    assert all(cotm.clause_output(bank, c, x, "infer") == 0 for c in range(3))
    assert cotm.predict(bank, x).tolist() == [0, 0]


def test_init_bank_determinism():
    b1 = cotm.init_bank(3, 2, 4, N=8, T=10, s=3.0)
    b2 = cotm.init_bank(3, 2, 4, N=8, T=10, s=3.0)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.weights, b2.weights)


def test_init_bank_rejects_bad_hyperparameters():
    for args in [(0, 1, 2), (1, 0, 2), (1, 1, 0)]:
        with pytest.raises(ValueError):
            cotm.init_bank(*args, N=8, T=10, s=3.0)
    with pytest.raises(ValueError):
        cotm.init_bank(1, 1, 2, N=0, T=10, s=3.0)
    with pytest.raises(ValueError):
        cotm.init_bank(1, 1, 2, N=8, T=0, s=3.0)
    with pytest.raises(ValueError):
        cotm.init_bank(1, 1, 2, N=8, T=10, s=1.0)


# ---- the states and their include mask ----

def test_a_direct_write_to_the_states_or_the_mask_raises():
    bank = cotm.init_bank(2, 1, 3, N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="read-only"):
        bank.states[0, 0] = 9
    with pytest.raises(ValueError, match="read-only"):
        bank.included()[0, 0] = True
    assert (bank.states == 8).all() and not bank.included().any()


def test_set_states_refreshes_the_mask():
    N = 8
    bank = cotm.init_bank(3, 1, 2, N=N, T=10, s=3.0)
    x = negation_closed_vector([0], 2)  # bits [1, 0, 0, 1]
    bank.set_states(np.s_[1, [0, 3]], 9)
    assert bank.included().tolist() == [[False] * 4,
                                        [True, False, False, True],
                                        [False] * 4]
    assert [cotm.clause_output(bank, c, x) for c in range(3)] == [0, 1, 0]
    bank.set_states(np.s_[1, 3], N)
    bank.set_states(np.s_[2], 2 * N)
    assert bank.included().tolist() == [[False] * 4,
                                        [True, False, False, False],
                                        [True] * 4]
    assert np.array_equal(bank.included(), bank.states > N)
    assert [cotm.clause_output(bank, c, x) for c in range(3)] == [0, 1, 0]
    assert [cotm.clause_output(bank, c, np.ones(4), "infer")
            for c in range(3)] == [0, 1, 1]


@pytest.mark.parametrize("values", [0, 17, [9, 0], [17, 9], 9.0, -(2 ** 40)])
def test_set_states_outside_the_range_raises_and_leaves_the_bank(values):
    rng = np.random.default_rng(11)
    bank = random_bank(rng, 3, 1, 4)
    states, included = bank.states.copy(), bank.included().copy()
    with pytest.raises(ValueError, match=r"states must"):
        bank.set_states(np.s_[1, [2, 5]], values)
    assert np.array_equal(bank.states, states)
    assert np.array_equal(bank.included(), included)


def test_a_bank_is_built_only_from_states_in_range_and_matching_weights():
    states = np.full((2, 4), 8, dtype=np.int32)
    weights = np.zeros((2, 1), dtype=np.int32)
    bank = cotm.ClauseBank(states=states, weights=weights, N=8, T=10, s=3.0)
    states[0, 0] = 16  # the bank holds its own copy
    assert (bank.states == 8).all() and not bank.included().any()
    for bad in (0, 17):
        wrong = states.copy()
        wrong[1, 2] = bad
        with pytest.raises(ValueError, match=r"states must lie in \[1, 16\]"):
            cotm.ClauseBank(states=wrong, weights=weights, N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="states must be integers"):
        cotm.ClauseBank(states=states.astype(float), weights=weights,
                        N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="weights have 3 rows for 2 clauses"):
        cotm.ClauseBank(states=states, weights=np.zeros((3, 1), np.int32),
                        N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="2-D"):
        cotm.ClauseBank(states=states[0], weights=weights, N=8, T=10, s=3.0)
    with pytest.raises(ValueError, match="N must be"):
        cotm.ClauseBank(states=states, weights=weights, N=0, T=10, s=3.0)


# ---- vector constructors ----

def test_negation_closed_vector():
    x = negation_closed_vector([1, 2, 3, 5], 8)
    assert x.tolist() == [0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1]
    with pytest.raises(ValueError, match="feature index"):
        negation_closed_vector([8], 8)
