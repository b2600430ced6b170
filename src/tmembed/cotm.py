"""Coalesced Tsetlin Machine core.

One shared clause bank serves multiple outputs through per-output signed
clause weights. Each literal of each clause is a two-action automaton over
states [1, 2N]; states above N include the literal in the clause conjunction.

The bank keeps that include mask, and for each clause whether it includes any
literal, next to the states. `ClauseBank.states` is read-only: the updates
and `ClauseBank.set_states` are the only writers, and each refreshes the mask
on the rows it writes, so clause evaluation never recomputes `states > N`.
`update` steps one bank; `update_stack` steps many single-output machines
held in one bank, each as `update` would step it alone. Both apply their
feedback through `_feedback`, the one home of the feedback rules.

Input vectors ("literal vectors") have length 2V: positions [0, V) are the
original features, [V, 2V) their negations. Negation closure
(bits[i+V] == 1 - bits[i]) is a property of how callers build the vector
(`corpus.DocumentSet.vector` for documents), not of this module; the bank
accepts any binary vector of the right length.
"""

from __future__ import annotations

import numpy as np

# The largest N whose states, up to 2N, fit in int32.
MAX_N = 2**30 - 1


def check_N(N: int) -> None:
    """Raise ValueError unless 1 <= N <= MAX_N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > MAX_N:
        raise ValueError(f"N must be <= {MAX_N}, so that 2N fits the int32 "
                         f"states, got {N}")


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class ClauseBank:
    """Automata states plus per-output clause weights and the update hyperparameters.

    states:  [num_clauses, 2V] int32 in [1, 2N], read-only; write through
             set_states
    weights: [num_clauses, num_outputs] signed ints, start at 0

    The bank copies the states it is given and keeps `included()`
    (states > N) and, per clause, whether any literal is included, exact
    after every write. N, T and s are read-only, so the base-256 digits of
    1/s that `update` compares random bytes with are worked out once.
    """

    def __init__(self, states, weights, N: int, T: int, s: float):
        check_N(N)
        if T < 1:
            raise ValueError("T must be >= 1")
        if not s > 1.0:
            raise ValueError("s must be > 1")
        states, weights = np.asarray(states), np.asarray(weights)
        if states.ndim != 2 or weights.ndim != 2:
            raise ValueError("states and weights must be 2-D arrays")
        if min(states.shape) < 1 or weights.shape[1] < 1:
            raise ValueError("num_clauses, num_outputs and V must be >= 1")
        if weights.shape[0] != states.shape[0]:
            raise ValueError(
                f"weights have {weights.shape[0]} rows for "
                f"{states.shape[0]} clauses")
        self._N, self._T, self._s = N, T, s
        self._digits = _base256_digits(1.0 / s)
        self._check_states(states)
        self._states = states.astype(np.int32)
        self._included = self._states > N
        self._nonempty = self._included.any(axis=1)
        self.weights = weights

    @property
    def N(self) -> int:
        return self._N

    @property
    def T(self) -> int:
        return self._T

    @property
    def s(self) -> float:
        return self._s

    @property
    def states(self) -> np.ndarray:
        return _readonly(self._states)

    @property
    def num_clauses(self) -> int:
        return self._states.shape[0]

    @property
    def num_literals(self) -> int:
        return self._states.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.weights.shape[1]

    def included(self) -> np.ndarray:
        """Boolean [num_clauses, 2V], read-only: literal is part of the
        clause conjunction. The bank's own mask, so it follows later writes."""
        return _readonly(self._included)

    def set_states(self, index, values) -> None:
        """states[index] = values, for integers in [1, 2N]; refreshes the mask.

        A rejected write leaves the bank unchanged.
        """
        values = np.asarray(values)
        self._check_states(values)
        self._states[index] = values
        np.greater(self._states, self.N, out=self._included)
        np.any(self._included, axis=1, out=self._nonempty)

    def take(self, clauses) -> "ClauseBank":
        """A new bank of copies of the given clauses (an index array or a
        slice), with the same N, T and s."""
        return ClauseBank(self._states[clauses],
                          self.weights[clauses].copy(), self._N, self._T,
                          self._s)

    def _check_states(self, states: np.ndarray) -> None:
        if not np.issubdtype(states.dtype, np.integer):
            raise ValueError(f"states must be integers, got {states.dtype}")
        if states.size and (states.min() < 1 or states.max() > 2 * self.N):
            raise ValueError(f"states must lie in [1, {2 * self.N}]")

    def _set_rows(self, clauses: np.ndarray, rows: np.ndarray) -> None:
        """The states of the given clauses, and their part of the mask."""
        self._states[clauses] = rows
        included = rows > self._N
        self._included[clauses] = included
        self._nonempty[clauses] = included.any(axis=1)


def init_bank(num_clauses: int, num_outputs: int, V: int, N: int, T: int,
              s: float) -> ClauseBank:
    """All states at N (excluded, one step from inclusion), all weights zero."""
    if num_clauses < 1 or num_outputs < 1 or V < 1:
        raise ValueError("num_clauses, num_outputs and V must be >= 1")
    check_N(N)
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


def _clause_outputs(bank: ClauseBank, x_false: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(train-mode, infer-mode) outputs for every clause, given x == 0.

    A clause fires when every included literal is 1 in x. A clause with no
    included literals fires in train mode but not in infer mode.
    """
    out_train = ~(bank._included & x_false).any(axis=1)
    return out_train, out_train & bank._nonempty


def clause_output(bank: ClauseBank, c: int, x, mode: str = "infer") -> int:
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if not 0 <= c < bank.num_clauses:
        raise ValueError(f"clause id {c} out of range")
    out_train, out_infer = _clause_outputs(bank, _check_input(bank, x) == 0)
    return int((out_train if mode == "train" else out_infer)[c])


def predict(bank: ClauseBank, x) -> np.ndarray:
    """Unit-step multi-output prediction; a tied vote of 0 yields 0."""
    _, out_infer = _clause_outputs(bank, _check_input(bank, x) == 0)
    votes = bank.weights[out_infer].sum(axis=0, dtype=np.int64)
    return (votes > 0).astype(np.uint8)


def _base256_digits(p: float) -> tuple[int, ...]:
    """The base-256 digits of p in [0, 1) after the point, up to its last
    nonzero one; exact, since a double's denominator is a power of two."""
    num, den = p.as_integer_ratio()
    digits = []
    while num:
        num *= 256
        digits.append(num // den)
        num %= den
    return tuple(digits)


_LITTLE_U64 = np.dtype("<u8")


def _random_bytes(bitgen, n: int) -> np.ndarray:
    """The next n bytes of bitgen's raw 64-bit words, read little-endian;
    the unused bytes of the last word are dropped."""
    raw = bitgen.random_raw((n + 7) // 8).astype(_LITTLE_U64, copy=False)
    return raw.view(np.uint8)[:n]


def _bernoulli_mask(bitgen, shape: tuple[int, int], digits) -> np.ndarray:
    """Boolean mask, each cell independently True with probability p.

    digits are p's base-256 digits. A cell reads one random byte per digit as
    the next digit of a uniform U and is True iff U < p: it is decided by the
    first byte that differs from p's digit, and only cells that tie draw
    another byte, in ascending cell order. A cell that ties every digit has
    U >= p.
    """
    if not digits:
        return np.zeros(shape, dtype=bool)
    b = _random_bytes(bitgen, shape[0] * shape[1])
    mask = b < digits[0]
    if len(digits) > 1:  # a tie on the only digit leaves U >= p
        tied = (b == digits[0]).nonzero()[0]
        for d in digits[1:]:
            if not tied.size:
                break
            b = _random_bytes(bitgen, tied.size)
            mask[tied[b < d]] = True
            tied = tied[b == d]
    return mask.reshape(shape)


def update(bank: ClauseBank, x, o: int, q: int, rng: np.random.Generator) -> None:
    """One training step on output o with target bit q.

    Each clause is selected independently with probability
    (T - clamp(v)) / 2T when q=1, (T + clamp(v)) / 2T when q=0, where v is
    the sum of o's weights over the fired, non-empty clauses, clamped to
    [-T, T]. Selected clauses receive one of three updates keyed on their
    train-mode output (`_feedback`):

      q=1, fires:       memorize true literals w.p. (s-1)/s, forget false ones
                        w.p. 1/s; weight[o] += 1
      q=1, silent:      forget every literal w.p. 1/s
      q=0, fires:       bump every excluded false literal one step toward
                        inclusion (deterministic); weight[o] -= 1
      q=0, silent:      nothing

    States saturate at [1, 2N].

    Every call draws the C selection uniforms with rng.random; with a
    saturated vote (selection probability 0) it returns after that draw.
    Then one mask m, each cell True w.p. 1/s, is drawn over the n memorized
    clauses' [n, 2V] cells, and one over the forgotten clauses' cells, from
    rng's raw bytes (`_bernoulli_mask`). Memorize raises true literals where
    not m and lowers false ones where m; forget lowers every literal where
    m. The law is the dense float update's, but the stream of draws is not.
    Only the rewritten rows of the include mask are refreshed.
    """
    x = _check_input(bank, x)
    if q not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {q!r}")
    if not 0 <= o < bank.num_outputs:
        raise ValueError(f"output id {o} out of range")

    x_false = x == 0
    out_train, out_infer = _clause_outputs(bank, x_false)
    v = int(bank.weights[:, o][out_infer].sum(dtype=np.int64))
    p_act = _selection_probability(bank._T, v, q)
    u = rng.random(bank.num_clauses)
    if p_act == 0:
        return
    active = u < p_act
    fires = active & out_train
    if q == 1:
        memorize = fires.nonzero()[0]
        forget = (active ^ fires).nonzero()[0]
        memorize_mask = forget_mask = None
        if memorize.size:
            memorize_mask = _bernoulli_mask(
                rng.bit_generator, (memorize.size, bank.num_literals),
                bank._digits)
        if forget.size:
            forget_mask = _bernoulli_mask(
                rng.bit_generator, (forget.size, bank.num_literals),
                bank._digits)
        _feedback(bank, o, memorize, x_false, memorize_mask, forget,
                  forget_mask, _NO_CLAUSES, None)
    else:
        _feedback(bank, o, _NO_CLAUSES, None, None, _NO_CLAUSES, None,
                  fires.nonzero()[0], x_false)


def update_stack(bank: ClauseBank, x: np.ndarray, q, rngs) -> None:
    """One `update` of output 0 on each of B machines stacked in one bank.

    Machine b owns the C = num_clauses / B clauses from b * C on and steps
    on the binary input x[b] with target bit q[b], drawing its selection
    uniforms and then its memorize and forget masks from rngs[b] as
    `update` draws them. So each machine, and each generator, ends where
    `update` leaves them on a bank of its own. x and q are not checked; a
    stack of one is `update`.
    """
    B = len(rngs)
    if B == 1:
        return update(bank, x[0], 0, q[0], rngs[0])
    C, L = bank.num_clauses // B, bank.num_literals
    u = np.empty((B, C))
    for u_b, rng in zip(u, rngs):
        rng.random(out=u_b)
    x_false = x == 0
    out_train = ~(bank._included.reshape(B, C, L)
                  & x_false[:, None]).any(axis=2)
    out_infer = out_train & bank._nonempty.reshape(B, C)
    v = (bank.weights.reshape(B, C) * out_infer).sum(axis=1, dtype=np.int64)
    active = u < np.array([_selection_probability(bank._T, v_b, q_b)
                           for v_b, q_b in zip(v.tolist(), q)])[:, None]
    fires = active & out_train
    rewarded = np.array(q, dtype=bool)[:, None]
    memorize = fires & rewarded
    forget = (active ^ fires) & rewarded
    memorize_masks, forget_masks = [], []
    for rng, m, f in zip(rngs, memorize.sum(axis=1).tolist(),
                         forget.sum(axis=1).tolist()):
        if m:
            memorize_masks.append(
                _bernoulli_mask(rng.bit_generator, (m, L), bank._digits))
        if f:
            forget_masks.append(
                _bernoulli_mask(rng.bit_generator, (f, L), bank._digits))
    invalidate = (fires ^ memorize).ravel().nonzero()[0]
    memorize = memorize.ravel().nonzero()[0]
    _feedback(bank, 0, memorize, x_false[memorize // C],
              _joined(memorize_masks), forget.ravel().nonzero()[0],
              _joined(forget_masks), invalidate, x_false[invalidate // C])


def _joined(masks: list) -> np.ndarray | None:
    return np.concatenate(masks) if masks else None


def _selection_probability(T: int, v: int, q: int) -> float:
    """The chance that a clause is selected for feedback, given target bit
    q and the vote sum v, which is clamped to [-T, T] first."""
    v = max(-T, min(T, v))
    return (T - v) / (2 * T) if q == 1 else (T + v) / (2 * T)


_NO_CLAUSES = np.empty(0, dtype=np.intp)


def _feedback(bank: ClauseBank, o: int, memorize, memorize_false,
              memorize_mask, forget, forget_mask, invalidate,
              invalidate_false) -> None:
    """Apply the feedback rules of `update` to the given clauses of output o.

    The three clause lists share no clause. Each *_false holds the cells
    where a clause's input is 0, as one row for all of its list or one row
    per clause; each mask has one row per clause, every cell True w.p. 1/s.
    """
    if memorize.size:
        rows = bank._states[memorize]
        rows += ~memorize_false  # true literals rise, unless m cancels it
        rows -= memorize_mask
        np.minimum(rows, 2 * bank._N, out=rows)
        np.maximum(rows, 1, out=rows)
        bank._set_rows(memorize, rows)
        bank.weights[memorize, o] += 1
    if forget.size:
        rows = bank._states[forget]
        rows -= forget_mask
        np.maximum(rows, 1, out=rows)
        bank._set_rows(forget, rows)
    if invalidate.size:
        rows = bank._states[invalidate]
        rows += invalidate_false  # a firing clause includes no false literal
        bank._set_rows(invalidate, rows)
        bank.weights[invalidate, o] -= 1
