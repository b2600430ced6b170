"""cotm.update against the float dense update of tests/oracles.py, in law.

The library draws its feedback masks from random bytes and the oracle from
one float64 uniform per cell, so their streams differ and only their laws
can be compared. Every trial of a case starts from one bank, applies one
update, and tallies the state each literal of each clause ends in and each
clause's new weight. A chi-square test of homogeneity then compares the
library's tallies with the oracle's.

The bank has two kinds of clause, eight of each. Firing clauses include no
false literal of x, so q=1 memorizes them and q=0 invalidates them; silent
clauses include a false literal, so q=1 makes them forget. Their states put
literals at 1 and at 2N, and one step inside each, under every feedback.
The firing clauses' weights cancel, so every clause is selected w.p. 1/2.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from oracles import DenseBank, update as dense_update
from tmembed import cotm

N, T, TRIALS = 4, 4, 1500
X = np.array([1] * 6 + [0] * 6, dtype=np.uint8)
FIRING = [1, 2, 4, 5, 7, 8] + [1, 2, 3, 4, 1, 4]
SILENT = [1, 3, 5, 8, 2, 6] + [1, 5, 8, 2, 4, 7]
STATES = np.array([FIRING] * 8 + [SILENT] * 8, dtype=np.int32)
WEIGHTS = np.array([[1], [-1]] * 4 + [[2], [-2]] * 4, dtype=np.int32)


def tally(step, make_bank, q, rng):
    """How often each (clause kind, literal or 'w', end value) came out."""
    counts = Counter()
    for _ in range(TRIALS):
        bank = make_bank()
        step(bank, X, 0, q, rng)
        states = np.asarray(bank.states)
        for c in range(len(STATES)):
            kind = "firing" if c < 8 else "silent"
            counts.update((kind, lit, int(v))
                          for lit, v in enumerate(states[c].tolist()))
            counts[kind, "w", int(bank.weights[c, 0])] += 1
    return counts


def homogeneity_p(mine: Counter, theirs: Counter) -> float:
    """Chi-square p-value that two samples of outcomes share one law;
    outcomes seen fewer than 10 times in both together are pooled."""
    rare = {k for k in mine.keys() | theirs.keys() if mine[k] + theirs[k] < 10}
    common = sorted((mine.keys() | theirs.keys()) - rare, key=str)
    table = np.array([[sample[k] for k in common]
                      + [sum(sample[k] for k in rare)]
                      for sample in (mine, theirs)])
    return chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


@pytest.mark.parametrize("s,q", list(itertools.product((1.5, 2.0, 5.0),
                                                        (1, 0))))
def test_update_law_matches_the_float_dense_oracle(s, q):
    mine = tally(cotm.update,
                 lambda: cotm.ClauseBank(STATES, WEIGHTS.copy(), N, T, s),
                 q, np.random.default_rng([41, int(10 * s), q]))
    theirs = tally(dense_update,
                   lambda: DenseBank(STATES.copy(), WEIGHTS.copy(), N, T, s),
                   q, np.random.default_rng([42, int(10 * s), q]))
    everyone = 8 * TRIALS  # clauses of one kind over all trials
    if q == 1:
        # memorize: a true literal rises, one at 2N stays; a false literal
        # falls, one at 1 stays; forget: every literal falls, but not below 1
        assert {("firing", 4, 7), ("firing", 4, 8), ("firing", 7, 1),
                ("silent", 3, 7)} <= mine.keys()
        assert mine["firing", 5, 8] == mine["firing", 6, 1] == everyone
        assert mine["silent", 0, 1] == everyone
    else:
        # invalidate: only the false literals of firing clauses rise
        assert ("firing", 9, 5) in mine
        assert mine["firing", 4, 7] == mine["silent", 3, 8] == everyone
    assert homogeneity_p(mine, theirs) > 1e-3
