"""A first look at the coalesced clause machine.

We teach a tiny two-output machine that output 0 means "fruit context"
(apple or pear present) and output 1 means "metal context", then read the
learned conjunctive clauses back out.
"""

import numpy as np

from tmembed.corpus import Vocabulary, vectorize
from tmembed.cotm import clause_output, init_bank, predict, update
from tmembed.knowledge import from_bank

vocab = Vocabulary.from_words(["apple", "pear", "iron", "copper"])
V = vocab.size

rng = np.random.default_rng(0)
bank = init_bank(num_clauses=10, num_outputs=2, V=V, N=32, T=12, s=3.0)

# each document becomes its words plus the negations of every other word
fruit_docs = vectorize([["apple"], ["pear"], ["apple", "pear"]], vocab)
metal_docs = vectorize([["iron"], ["copper"], ["iron", "copper"]], vocab)

for _ in range(300):
    for docs, output in ((fruit_docs, 0), (metal_docs, 1)):
        x = docs.vector([rng.integers(docs.num_docs)])
        update(bank, x, output, 1, rng)   # this context supports the output
        update(bank, x, 1 - output, 0, rng)  # and contradicts the other one

probes = vectorize([["apple"], ["copper"]], vocab)
for d, word in enumerate(["apple", "copper"]):
    probe = probes.vector([d])
    print("input:", word)
    # each output's vote: its weights summed over the clauses that fire
    fired = [clause_output(bank, c, probe) for c in range(bank.num_clauses)]
    print("  votes:", bank.weights[np.flatnonzero(fired)].sum(axis=0).tolist())
    print("  prediction (fruit, metal):", predict(bank, probe))


def literal_name(l):
    return vocab.words[l] if l < V else "¬" + vocab.words[l - V]


print("\nclauses voting for 'fruit':")
# a word's clauses are arrays: weights, literal counts, all literals in order
weights, counts, literals = from_bank(bank, word=0, output=0).clauses
for weight, clause in zip(weights, np.split(literals, counts.cumsum()[:-1])):
    if weight > 0:
        body = " AND ".join(literal_name(l) for l in clause) or "(empty)"
        print(f"  {body}  @{weight:+d}")
