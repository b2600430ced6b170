"""Coalesced Tsetlin Machine core.

One shared clause bank serves multiple outputs through per-output signed
clause weights. Each literal of each clause is a two-action automaton over
states [1, 2N]; states above N include the literal in the clause conjunction.

Input vectors ("literal vectors") have length 2V: positions [0, V) are the
original features, [V, 2V) their negations. Negation closure
(bits[i+V] == 1 - bits[i]) is a property of how callers build the vector
(`corpus.DocumentSet.vector` for documents), not of this module; the bank
accepts any binary vector of the right length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ClauseBank:
    """Automata states plus per-output clause weights and the update hyperparameters.

    states:  [num_clauses, 2V] ints in [1, 2N]
    weights: [num_clauses, num_outputs] signed ints, start at 0
    """

    states: np.ndarray
    weights: np.ndarray
    N: int
    T: int
    s: float

    @property
    def num_clauses(self) -> int:
        return self.states.shape[0]

    @property
    def num_literals(self) -> int:
        return self.states.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.weights.shape[1]

    def included(self) -> np.ndarray:
        """Boolean [num_clauses, 2V]: literal is part of the clause conjunction."""
        return self.states > self.N


def init_bank(num_clauses: int, num_outputs: int, V: int, N: int, T: int,
              s: float) -> ClauseBank:
    """All states at N (excluded, one step from inclusion), all weights zero."""
    if num_clauses < 1 or num_outputs < 1 or V < 1:
        raise ValueError("num_clauses, num_outputs and V must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if T < 1:
        raise ValueError("T must be >= 1")
    if s <= 1.0:
        raise ValueError("s must be > 1")
    states = np.full((num_clauses, 2 * V), N, dtype=np.int32)
    weights = np.zeros((num_clauses, num_outputs), dtype=np.int32)
    return ClauseBank(states=states, weights=weights, N=N, T=T, s=s)


def _check_input(bank: ClauseBank, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != bank.num_literals:
        raise ValueError(
            f"dimension mismatch: expected literal vector of length "
            f"{bank.num_literals}, got shape {x.shape}")
    return x


def _clause_outputs(bank: ClauseBank, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(train-mode, infer-mode) outputs for every clause.

    A clause fires when every included literal is 1 in x. A clause with no
    included literals fires in train mode but not in infer mode.
    """
    included = bank.included()
    violated = (included & (x == 0)[None, :]).any(axis=1)
    out_train = ~violated
    out_infer = out_train & included.any(axis=1)
    return out_train, out_infer


def clause_output(bank: ClauseBank, c: int, x, mode: str = "infer") -> int:
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if not 0 <= c < bank.num_clauses:
        raise ValueError(f"clause id {c} out of range")
    out_train, out_infer = _clause_outputs(bank, _check_input(bank, x))
    return int((out_train if mode == "train" else out_infer)[c])


def predict(bank: ClauseBank, x) -> np.ndarray:
    """Unit-step multi-output prediction; a tied vote of 0 yields 0."""
    x = _check_input(bank, x)
    _, out_infer = _clause_outputs(bank, x)
    votes = bank.weights.T.astype(np.int64) @ out_infer
    return (votes > 0).astype(np.uint8)


def vote_sum(bank: ClauseBank, x, o: int) -> int:
    """Weighted clause vote for output o, clamped to [-T, T]."""
    _, out_infer = _clause_outputs(bank, _check_input(bank, x))
    return _clamped_vote(bank, out_infer, o)


def _clamped_vote(bank: ClauseBank, out_infer: np.ndarray, o: int) -> int:
    if not 0 <= o < bank.num_outputs:
        raise ValueError(f"output id {o} out of range")
    v = int(bank.weights[:, o].astype(np.int64) @ out_infer)
    return max(-bank.T, min(bank.T, v))


def update(bank: ClauseBank, x, o: int, q: int, rng: np.random.Generator) -> None:
    """One training step on output o with target bit q.

    Each clause is selected independently with probability
    (T - clamp(v)) / 2T when q=1, (T + clamp(v)) / 2T when q=0, where v is the
    clamped vote sum for o. Selected clauses receive one of three updates keyed
    on their train-mode output:

      q=1, fires:       memorize true literals w.p. (s-1)/s, forget false ones
                        w.p. 1/s; weight[o] += 1
      q=1, silent:      forget every literal w.p. 1/s
      q=0, fires:       bump every excluded false literal one step toward
                        inclusion (deterministic); weight[o] -= 1
      q=0, silent:      nothing

    States saturate at [1, 2N].
    """
    x = _check_input(bank, x)
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")

    out_train, out_infer = _clause_outputs(bank, x)
    v = _clamped_vote(bank, out_infer, o)
    p_act = (bank.T - v) / (2 * bank.T) if q == 1 else (bank.T + v) / (2 * bank.T)
    active = rng.random(bank.num_clauses) < p_act

    x_false = x == 0
    lo, hi = 1, 2 * bank.N
    if q == 1:
        memorize = active & out_train
        forget = active & ~out_train
        n_mem = int(memorize.sum())
        if n_mem:
            u = rng.random((n_mem, bank.num_literals))
            rows = bank.states[memorize]
            rows += (~x_false)[None, :] & (u < (bank.s - 1.0) / bank.s)
            rows -= x_false[None, :] & (u < 1.0 / bank.s)
            np.clip(rows, lo, hi, out=rows)
            bank.states[memorize] = rows
            bank.weights[memorize, o] += 1
        n_forget = int(forget.sum())
        if n_forget:
            u = rng.random((n_forget, bank.num_literals))
            rows = bank.states[forget]
            rows -= u < 1.0 / bank.s
            np.clip(rows, lo, hi, out=rows)
            bank.states[forget] = rows
    else:
        invalidate = active & out_train
        if invalidate.any():
            rows = bank.states[invalidate]
            rows += x_false[None, :] & (rows <= bank.N)
            bank.states[invalidate] = rows
            bank.weights[invalidate, o] -= 1
