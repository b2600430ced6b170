"""cotm.update stepped in lockstep with the dense update of tests/oracles.py.

The oracle is the dense update the library replaced, with its feedback
masks drawn by oracles.bernoulli_mask, a cell-by-cell comparison of random
bytes with 1/s (byte_update). Each case builds one bank, gives a copy to
each side and steps both with generators of one seed. After every step the
states, the weights and the generator states must be equal, so the library
draws exactly the oracle's uniforms and bytes, in the oracle's order, and
applies the same feedback; and the bank's include mask must equal
states > N. Errors are checked against the float update, which raises the
same ones before any draw.
"""

import itertools

import numpy as np
import pytest

from oracles import DenseBank, byte_update, update as dense_update
from tmembed import cotm

STEPS = 40


def random_states(rng, C, V, N, style):
    """A [C, 2V] bank with cells at 1 and 2N and, mostly, an empty clause 0."""
    shape = (C, 2 * V)
    if style == "uniform":
        states = rng.integers(1, 2 * N + 1, size=shape)
    elif style == "extremes":
        states = rng.choice([1, N, N + 1, 2 * N], size=shape)
    else:  # "sparse", as training leaves a bank: nearly every literal excluded
        states = np.maximum(N - rng.integers(0, 3, size=shape), 1)
        hit = rng.random(shape) < 0.05
        states[hit] = rng.integers(N + 1, 2 * N + 1, size=int(hit.sum()))
    states[-1, rng.integers(2 * V)] = 2 * N
    states[-1, rng.integers(2 * V)] = 1
    if C > 1 or style == "sparse":
        states[0] = np.minimum(states[0], N)  # no included literal
    return states.astype(np.int32)


def random_input(rng, V):
    """A binary literal vector; most are not negation-closed."""
    kind = rng.integers(4)
    if kind == 0:
        f = rng.random(V) < rng.random()
        x = np.concatenate([f, ~f])
    elif kind == 1:
        x = np.ones(2 * V, dtype=bool)  # no false literal: every clause fires
    else:
        x = rng.random(2 * V) < rng.random()
    return x.astype(np.uint8)


def bank_pair(states, weights, N, T, s):
    return (cotm.ClauseBank(states=states.copy(), weights=weights.copy(),
                            N=N, T=T, s=s),
            DenseBank(states=states.copy(), weights=weights.copy(),
                      N=N, T=T, s=s))


def assert_same(bank, oracle, rng, oracle_rng):
    assert np.array_equal(bank.states, oracle.states)
    assert bank.states.dtype == oracle.states.dtype
    assert np.array_equal(bank.weights, oracle.weights)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert np.array_equal(bank.included(), oracle.states > oracle.N)


@pytest.mark.parametrize("C,V", list(itertools.product((1, 2, 40, 160),
                                                        (1, 3, 200))))
def test_update_steps_in_lockstep_with_the_dense_oracle(C, V):
    rng = np.random.default_rng([C, V])
    for i, (N, s) in enumerate(itertools.product((1, 4, 32), (1.5, 2.0, 5.0))):
        outputs = 1 + i % 3
        T = int(rng.choice([1, 3, 10]))
        style = str(rng.choice(["uniform", "extremes", "sparse"]))
        states = random_states(rng, C, V, N, style)
        weights = rng.integers(-2 * T, 2 * T + 1,
                               size=(C, outputs)).astype(np.int32)
        bank, oracle = bank_pair(states, weights, N, T, s)
        seed = int(rng.integers(2 ** 32))
        lib_rng, oracle_rng = (np.random.default_rng(seed),
                               np.random.default_rng(seed))
        for _ in range(STEPS):
            x = random_input(rng, V)
            o, q = int(rng.integers(outputs)), int(rng.integers(2))
            cotm.update(bank, x, o, q, lib_rng)
            byte_update(oracle, x, o, q, oracle_rng)
            assert_same(bank, oracle, lib_rng, oracle_rng)


# (length change of x, or None for a [1, 2V] matrix; output id; target
# bit); the first error wins
BAD_CALLS = [(-1, 0, 1), (1, 0, 0), (None, 0, 1), (-1, 5, 2), (0, 0, 2),
             (0, 0, -1), (0, -1, 2), (0, -1, 1), (0, 2, 0), (0, 2, 1)]


@pytest.mark.parametrize("dx,o,q", BAD_CALLS)
def test_update_raises_the_oracles_errors_before_any_draw(dx, o, q):
    rng = np.random.default_rng(3)
    C, V, N = 3, 4, 4
    bank, oracle = bank_pair(random_states(rng, C, V, N, "uniform"),
                             rng.integers(-3, 4, size=(C, 2)).astype(np.int32),
                             N, 3, 2.0)
    if dx is None:
        x = np.ones((1, 2 * V), dtype=np.uint8)
    else:
        x = np.ones(2 * V + dx, dtype=np.uint8)
    lib_rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    untouched = np.random.default_rng(9).bit_generator.state
    with pytest.raises(ValueError) as lib_err:
        cotm.update(bank, x, o, q, lib_rng)
    with pytest.raises(ValueError) as oracle_err:
        dense_update(oracle, x, o, q, oracle_rng)
    assert str(lib_err.value) == str(oracle_err.value)
    assert_same(bank, oracle, lib_rng, oracle_rng)
    assert lib_rng.bit_generator.state == untouched
