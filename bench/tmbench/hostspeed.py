"""A fixed probe of how fast the host runs right now.

On a shared virtual machine the same code runs a third slower or faster for
minutes at a time, whatever the program does, so two runs minutes apart
disagree by more than any bound a later change could be held to. The probe
is a frozen loop in the style of the pipeline's hot path (a clause-bank
update on small numpy arrays, then a Python counting loop over tokens). It
imports nothing from tmembed, so no change to the program moves it.

The harness times the probe before every set-up repeat and every stage run,
and reports every clocked metric at reference speed: times are multiplied by
REFERENCE_S / (median probe time of the run), rates divided by it. The report
prints the probe median and the raw stage timings next to the scaled metrics.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Probe time that defines reference speed: a round figure near the probe's
# median on the 2-vCPU Xeon virtual machine the benchmark was defined on,
# where it ran 10-14 ms.
REFERENCE_S = 0.010

_RNG = np.random.default_rng(20250131)
_STATES = _RNG.integers(1, 65, size=(40, 1000)).astype(np.int32)
_X_FALSE = _RNG.random(1000) < 0.95
_TOKENS = " ".join(f"w{i}" for i in _RNG.integers(0, 400, 3000))
_STEPS = 60


def _work() -> int:
    rng = np.random.default_rng(0)
    states = _STATES.copy()
    for _ in range(_STEPS):
        violated = ((states > 32) & _X_FALSE[None, :]).any(axis=1)
        chosen = (rng.random(40) < 0.5) & ~violated | (rng.random(40) < 0.5)
        rows = states[chosen]
        u = rng.random(rows.shape)
        rows += ~_X_FALSE[None, :] & (u < 0.5)
        rows -= _X_FALSE[None, :] & (u < 0.5)
        np.clip(rows, 1, 64, out=rows)
        states[chosen] = rows
    counts: dict[str, int] = {}
    for token in _TOKENS.split():
        counts[token] = counts.get(token, 0) + 1
    return int(states.sum()) + len(counts)


def probe() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
