"""Seeded synthetic inputs: planted-topic corpora, sentiment labels, word-pair
benchmark files and planted embedding files.

Nothing here imports tmembed. The program under test only ever sees the files
these functions write, and the same seed always writes the same bytes.
"""

from __future__ import annotations

import numpy as np


def topic_words(prefix: str, topics: int, per_topic: int) -> list[list[str]]:
    """words[t][j] is the j-th token of topic t, e.g. "a3w17"."""
    return [[f"{prefix}{t}w{j}" for j in range(per_topic)] for t in range(topics)]


def planted_docs(rng: np.random.Generator, words: list[list[str]], n_docs: int,
                 doc_len: int, noise: float, zipf: float = 0.0
                 ) -> tuple[list[list[str]], list[int]]:
    """Document d belongs to topic d % T and holds doc_len distinct words of that
    topic, word j drawn with weight (j + 1) ** -zipf; each token is swapped for
    a uniformly random word of another topic w.p. noise."""
    T, per = len(words), len(words[0])
    # Gumbel top-k: weighted sampling without replacement, one row per doc.
    keys = (-zipf * np.log(np.arange(1, per + 1))
            - np.log(-np.log(rng.random((n_docs, per)))))
    picks = np.argsort(-keys, axis=1)[:, :doc_len]
    swap = rng.random((n_docs, doc_len)) < noise
    other_topic = rng.integers(1, T, size=(n_docs, doc_len)) if T > 1 else None
    other_word = rng.integers(0, per, size=(n_docs, doc_len))
    docs, topics = [], []
    for d in range(n_docs):
        t = d % T
        toks = []
        for i in range(doc_len):
            if other_topic is not None and swap[d, i]:
                toks.append(words[(t + other_topic[d, i]) % T][other_word[d, i]])
            else:
                toks.append(words[t][picks[d, i]])
        docs.append(toks)
        topics.append(t)
    return docs, topics


MARKERS = ("bad", "good")  # indexed by label


def sentiment_labels(rng: np.random.Generator, topics: list[int], n_topics: int,
                     flip: float) -> list[int]:
    """Topics in the first half read positive, the rest negative; each label is
    flipped w.p. flip, so no classifier can reach accuracy 1.0."""
    flips = rng.random(len(topics)) < flip
    return [int((t < n_topics // 2) != bool(f)) for t, f in zip(topics, flips)]


def add_markers(rng: np.random.Generator, docs: list[list[str]],
                labels: list[int] | None, fidelity: float = 1.0) -> None:
    """Insert one sentiment marker per document at a random position: the
    marker of its own label w.p. fidelity, else the other one; a uniformly
    random marker when labels is None."""
    for d, doc in enumerate(docs):
        if labels is None:
            side = int(rng.integers(2))
        else:
            side = labels[d] if rng.random() < fidelity else 1 - labels[d]
        doc.insert(int(rng.integers(len(doc) + 1)), MARKERS[side])


def planted_pairs(rng: np.random.Generator, targets: list[tuple[str, int]],
                  max_pairs: int) -> list[tuple[str, str, float]]:
    """Word pairs scored 1.0 when both words share a planted topic, else 0.0.

    All pairs when there are at most max_pairs of them, otherwise a uniform
    sample of max_pairs distinct pairs, listed in index order.
    """
    k = len(targets)
    ii, jj = np.triu_indices(k, 1)
    if ii.size > max_pairs:
        keep = np.sort(rng.choice(ii.size, size=max_pairs, replace=False))
        ii, jj = ii[keep], jj[keep]
    return [(targets[i][0], targets[j][0],
             1.0 if targets[i][1] == targets[j][1] else 0.0)
            for i, j in zip(ii.tolist(), jj.tolist())]


def planted_embeddings(rng: np.random.Generator, words: list[list[str]]
                       ) -> tuple[list[str], np.ndarray]:
    """One row of 2V small integers per word (V = all words): weight 1..4 on
    the literals of the word's own topic, plus sparse +-1 noise everywhere."""
    tokens = [w for topic in words for w in topic]
    per = len(words[0])
    V = len(tokens)
    rows = np.zeros((V, 2 * V), dtype=np.int64)
    for i in range(V):
        t = i // per
        rows[i, t * per:(t + 1) * per] = rng.integers(1, 5, size=per)
    noise = rng.random(rows.shape) < 0.02
    rows += noise * rng.choice(np.array([-1, 1]), size=rows.shape)
    return tokens, rows


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_docs(path, docs) -> None:
    write_lines(path, (" ".join(d) for d in docs))


def write_labels(path, labels) -> None:
    write_lines(path, (str(lab) for lab in labels))


def write_pairs(path, pairs) -> None:
    write_lines(path, (f"{a}\t{b}\t{s:.1f}" for a, b, s in pairs))


def write_embeddings(path, tokens, rows) -> None:
    """Dense text embedding format: token then 2V space-separated values."""
    write_lines(path, (t + " " + " ".join(map(str, r.tolist()))
                       for t, r in zip(tokens, rows)))
