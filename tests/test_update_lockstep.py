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

from oracles import (DenseBank, _clamped_vote, _clause_outputs, byte_update,
                     update as dense_update)
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


@pytest.mark.parametrize("B", [1, 2, 7])
@pytest.mark.parametrize("s", [1.5, 2.0, 5.0])
def test_update_stack_steps_each_bank_in_lockstep_with_the_oracle(B, s):
    # B banks of C clauses in one stack, each beside byte_update on a bank
    # and a generator of its own; each bank draws its own target bit, so a
    # step mixes them. Bank 0's weights are large, so its vote often
    # saturates; random_states leaves clause 0 empty.
    rng = np.random.default_rng([B, int(s * 2)])
    C, V, N, T = 5, 4, 8, 3
    dense, dense_rngs, rngs = [], [], []
    for b in range(B):
        states = random_states(rng, C, V, N, str(rng.choice(
            ["uniform", "extremes", "sparse"])))
        high = 4 * T if b == 0 else 2 * T
        weights = rng.integers(-high // 2, high + 1,
                               size=(C, 1)).astype(np.int32)
        dense.append(DenseBank(states=states, weights=weights, N=N, T=T,
                               s=s))
        seed = int(rng.integers(2 ** 32))
        dense_rngs.append(np.random.default_rng(seed))
        rngs.append(np.random.default_rng(seed))
    stack = cotm.ClauseBank(
        states=np.concatenate([d.states for d in dense]),
        weights=np.concatenate([d.weights for d in dense]), N=N, T=T, s=s)
    seen = {"saturated": 0, "q mixed": 0, "empty clause": 0}
    for _ in range(STEPS):
        x = np.stack([random_input(rng, V) for _ in range(B)])
        q = rng.integers(2, size=B).tolist()
        seen["q mixed"] += len(set(q)) == 2
        for b, oracle in enumerate(dense):
            out_train, out_infer = _clause_outputs(oracle, x[b])
            v = _clamped_vote(oracle, out_infer, 0)
            seen["saturated"] += v == (T if q[b] == 1 else -T)
            seen["empty clause"] += not oracle.included().any(axis=1).all()
            byte_update(oracle, x[b], 0, q[b], dense_rngs[b])
        cotm.update_stack(stack, x, q, rngs)
        for b, oracle in enumerate(dense):
            rows = slice(b * C, (b + 1) * C)
            assert np.array_equal(stack.states[rows], oracle.states)
            assert np.array_equal(stack.weights[rows], oracle.weights)
            assert np.array_equal(stack.included()[rows],
                                  oracle.states > N)
            assert rngs[b].bit_generator.state == \
                dense_rngs[b].bit_generator.state
    assert seen["saturated"] > 0
    assert B == 1 or seen["q mixed"] > 0
    assert seen["empty clause"] > 0
