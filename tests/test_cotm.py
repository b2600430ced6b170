from fractions import Fraction

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


# ---- feedback masks ----

def digits_of(s):
    return cotm.init_bank(1, 1, 1, N=1, T=1, s=s)._digits


def test_base256_digits_are_exact():
    for s in (1.5, 2, 3, 5, 7.3, 1e12):
        digits = digits_of(s)
        assert digits[-1] != 0
        assert sum(Fraction(d, 256 ** (k + 1))
                   for k, d in enumerate(digits)) == Fraction(1.0 / s)
    assert digits_of(2) == (128,)
    assert digits_of(1.5) == (170,) * 6 + (168,)
    assert cotm._base256_digits(0.5 + 2 ** -32) == (128, 0, 0, 1)
    assert cotm._base256_digits(2.0 ** -1074) == (0,) * 134 + (64,)
    assert digits_of(float("inf")) == ()


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 5.0, 7.3])
def test_mask_rate_is_binomial(s):
    # 1000 x 1024 cells, each True w.p. p = 1/s: within five sigmas
    rng = np.random.default_rng([17, int(10 * s)])
    n, p = 1000 * 1024, 1.0 / s
    mask = cotm._bernoulli_mask(rng.bit_generator, (1000, 1024), digits_of(s))
    assert mask.shape == (1000, 1024) and mask.dtype == bool
    assert abs(int(mask.sum()) - n * p) < 5 * (n * p * (1 - p)) ** 0.5


class ScriptedBits:
    """A bit generator whose random_raw serves the given bytes, one list per
    call, padded to whole 64-bit words read little-endian; it records the
    number of words each call asked for."""

    def __init__(self, rounds):
        self.rounds, self.sizes = list(rounds), []

    def random_raw(self, size):
        self.sizes.append(size)
        data = bytes(self.rounds.pop(0))
        data += b"\xee" * (8 * size - len(data))
        return np.array([int.from_bytes(data[i:i + 8], "little")
                         for i in range(0, len(data), 8)], dtype=np.uint64)


def test_a_cell_that_ties_a_digit_reads_the_next_byte_to_the_last_digit():
    # p = 1/1.5 has the digits 170 (six times) and 168. Cells 0-2 tie the
    # first six and are decided by the seventh; cell 1 ties all seven, so
    # U >= p. Cell 5 is decided by its second byte, cells 3 and 4 by their
    # first. Each round reads one 64-bit word.
    digits = digits_of(1.5)
    bits = ScriptedBits([[170, 170, 170, 169, 171, 170],
                         [170, 170, 170, 0]]
                        + [[170, 170, 170]] * 4
                        + [[167, 168, 169]])
    mask = cotm._bernoulli_mask(bits, (2, 3), digits)
    assert mask.tolist() == [[True, False, False], [True, False, True]]
    assert bits.sizes == [1] * 7 and not bits.rounds
    bits = ScriptedBits([[128, 128, 127, 0, 128], [0, 1, 0], [0, 0], [0, 1]])
    mask = cotm._bernoulli_mask(bits, (1, 5), (128, 0, 0, 1))
    assert mask.tolist() == [[True, False, True, True, False]]


def test_mask_draws_span_words_and_drop_the_rest_of_the_last_one():
    # 17 cells read three words; the next call starts on a fresh word
    rng = np.random.default_rng(5)
    words = np.random.default_rng(5).bit_generator.random_raw(4)
    stream = b"".join(int(w).to_bytes(8, "little") for w in words)
    assert cotm._random_bytes(rng.bit_generator, 17).tobytes() == stream[:17]
    assert cotm._random_bytes(rng.bit_generator, 2).tobytes() == stream[24:26]


def test_a_seeded_mask_is_pinned():
    # the stream reads words little-endian on any host
    rng = np.random.default_rng(2024)
    assert cotm._random_bytes(rng.bit_generator, 12).tolist() == [
        232, 202, 212, 61, 86, 72, 3, 173, 217, 208, 163, 23]
    rng = np.random.default_rng(2024)
    mask = cotm._bernoulli_mask(rng.bit_generator, (4, 16), digits_of(3))
    assert np.packbits(mask).tobytes().hex() == "1611374020b52bdb"


def test_digits_are_worked_out_once_per_bank(monkeypatch):
    calls = []
    digits = cotm._base256_digits
    monkeypatch.setattr(cotm, "_base256_digits",
                        lambda p: calls.append(p) or digits(p))
    bank = cotm.init_bank(6, 2, 4, N=4, T=8, s=3.0)
    rng = np.random.default_rng(14)
    for _ in range(100):
        x = rng.integers(0, 2, size=8).astype(np.uint8)
        cotm.update(bank, x, int(rng.integers(2)), int(rng.integers(2)), rng)
    assert calls == [1.0 / 3.0]
    for name, value in (("N", 5), ("T", 9), ("s", 2.0)):
        with pytest.raises(AttributeError):
            setattr(bank, name, value)
    assert (bank.N, bank.T, bank.s) == (4, 8, 3.0)


def test_infinite_s_never_lowers_a_state_and_draws_only_the_selection():
    # p = 1/s = 0: no mask cell is True and no byte is drawn
    bank = cotm.init_bank(4, 1, 3, N=4, T=10, s=float("inf"))
    rng, selection = np.random.default_rng(15), np.random.default_rng(15)
    x = negation_closed_vector([0], 3)
    for _ in range(50):
        cotm.update(bank, x, 0, 1, rng)
        selection.random(4)
    assert rng.bit_generator.state == selection.bit_generator.state
    assert (bank.states[:, x == 0] == 4).all()
    assert (bank.states[:, x == 1] > 4).all()
    with pytest.raises(ValueError, match="s must be > 1"):
        cotm.init_bank(1, 1, 1, N=4, T=10, s=float("nan"))


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
    # 2N must fit the int32 states
    for N in (2**30, 2**31, 2**40):
        with pytest.raises(ValueError, match=f"N must be <= 1073741823, .*{N}"):
            cotm.ClauseBank(states=states, weights=weights, N=N, T=10, s=3.0)
        with pytest.raises(ValueError, match=f"N must be <= 1073741823, .*{N}"):
            cotm.init_bank(2, 1, 2, N, 10, 3.0)
    bank = cotm.init_bank(2, 1, 2, 2**30 - 1, 10, 3.0)
    assert (bank.states == 2**30 - 1).all() and not bank.included().any()


# ---- vector constructors ----

def test_negation_closed_vector():
    x = negation_closed_vector([1, 2, 3, 5], 8)
    assert x.tolist() == [0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1]
    with pytest.raises(ValueError, match="feature index"):
        negation_closed_vector([8], 8)
