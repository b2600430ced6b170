"""The three workloads: their shapes, their seeded inputs and their chain.

Every workload runs the whole pipeline (vocab, Phase 1, single-word retrain,
Phase 2, eval, augment, classify) so that every end-to-end metric exists on
every workload; the shapes decide which stage dominates.

- planted_small: the CLI chain at desk scale with tiny banks and --jobs 1.
  Updates cost ~100 us, so per-call overhead dominates; it carries the
  quality readouts.
- paper_bank: Phase 1 calls phase1.train_word in process on a handful of
  words with the paper's Phase-1 bank (1600 clauses, T=3200, s=5, N=128,
  a=25) at V=2000, and `phase1 --word` retrains one of them; the dense
  cotm.update dominates. A few dozen paper-bank updates per word carry no
  stable topic signal, so the quality tail (Phase 2 onwards) runs on a
  tiny-bank store over the corpus's top-100 words, built by `phase1
  --vocab-size`.
- corpus_wide: a 10k-document corpus with a cheap bank and --jobs 2, plus
  augment over a generated planted embedding file; cost follows documents,
  words and k.

BENCHMARK.json lists planted_small and corpus_wide; paper_bank is too noisy
on the host the benchmark was defined on to stay within the bounds (see
bench/README.md) and is run by hand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import data

# Phase-1 banks. At these sizes every word learns clauses of both polarities,
# so Phase 2 skips nothing (a skipped word-example counts as a failure).
SMALL_BANK = {"clauses": 64, "T": 64, "s": 2.0, "N": 32}
WIDE_BANK = {"clauses": 160, "T": 160, "s": 2.0, "N": 32}
PAPER_BANK = {"clauses": 1600, "T": 3200, "s": 5.0, "N": 128}
PHASE2_BANK = {"clauses": 40, "T": 40, "s": 2.0, "N": 32}
# At T=100, s=2 and 5 epochs the classifier never collapsed to one class in
# probes over ten seeds; smaller T or fewer epochs occasionally did. On
# planted_small's 400 + 400 documents it still stalled (accuracy 0.49-0.72)
# on 3 of 24 input sets at 5 epochs, 7 of 104 at 10, 3 of 74 at 20 and none
# of 44 at 30; a stall to the majority baseline fails the run. corpus_wide
# (2000 + 2000 documents) stalled once in ten runs at 5 epochs and trains
# for 10.
CLASSIFIER = {"clauses": 40, "T": 100, "s": 2.0, "N": 32}


@dataclass(frozen=True)
class Shape:
    topics: int
    per_topic: int
    docs: int
    doc_len: int
    phase1: dict                    # r, a, epochs plus bank flags
    phase2: dict
    classify: dict                  # epochs plus bank flags
    train_docs: int                 # labelled documents to augment and train on
    test_docs: int
    max_vocab: int = 0              # 0: every word of the corpus
    zipf: float = 0.0               # within-topic word frequency skew
    noise: float = 0.05
    # With a noisier marker the tiny classifier trained on augmented
    # documents sometimes fell to the majority baseline.
    label_flip: float = 0.05
    marker_fidelity: float = 0.95
    jobs: int = 1
    paper_words_per_topic: int = 0  # >0: Phase 1 is train_word on these words
    paper_topics: int = 0
    targets_per_topic: int = 0      # 0: every topic word is a target
    max_pairs: int = 2000
    pool_size: int = 3
    aug_space: tuple[int, int] | None = None   # (topics, per_topic) of a
                                               # planted embedding file
    tail_vocab: int = 0             # >0: Phase 2 onwards use a tail store
    tail_phase1: dict = field(default_factory=dict)  # over the top words
    probe: dict = field(default_factory=dict)  # Phase-1 dispatch probe
    # Independent input sets per run. A stage's cost depends a little on the
    # corpus a seed draws (how much feedback the banks still take): up to 9%
    # between five seeds at planted_small's size, 8% at corpus_wide's, timed
    # interleaved. Averaging over replicas keeps that out of the run-to-run
    # spread; corpus_wide's chain is too long for more than one.
    replicas: int = 1


# Toy shapes only check the harness: labels follow the marker exactly.
TOY_LABELS = {"label_flip": 0.0, "marker_fidelity": 1.0}


def _cfg(r, a, epochs, bank):
    return {"r": r, "a": a, "epochs": epochs, **bank}


SHAPES: dict[str, dict[str, Shape]] = {
    "planted_small": {
        "full": Shape(topics=8, per_topic=25, docs=2000, doc_len=8,
                      phase1=_cfg(40, 4, 2, SMALL_BANK),
                      phase2=_cfg(16, 4, 2, PHASE2_BANK),
                      classify={"epochs": 30, **CLASSIFIER},
                      train_docs=400, test_docs=400, replicas=3),
        "toy": Shape(topics=4, per_topic=6, docs=120, doc_len=4,
                     phase1=_cfg(10, 3, 1, SMALL_BANK),
                     phase2=_cfg(6, 3, 1, PHASE2_BANK),
                     classify={"epochs": 2, **CLASSIFIER},
                     train_docs=60, test_docs=40, **TOY_LABELS, replicas=2),
    },
    "paper_bank": {
        "full": Shape(topics=10, per_topic=200, docs=10000, doc_len=30,
                      zipf=1.0,
                      phase1=_cfg(40, 25, 1, PAPER_BANK),
                      phase2=_cfg(30, 4, 2, PHASE2_BANK),
                      classify={"epochs": 5, **CLASSIFIER},
                      train_docs=300, test_docs=300,
                      paper_words_per_topic=2, paper_topics=3,
                      targets_per_topic=5,
                      tail_vocab=100, tail_phase1=_cfg(40, 4, 2, WIDE_BANK),
                      probe={"vocab": 100, **_cfg(40, 4, 2, WIDE_BANK)}),
        "toy": Shape(topics=4, per_topic=20, docs=200, doc_len=6,
                     zipf=1.0,
                     phase1=_cfg(6, 5, 1, {**PAPER_BANK, "clauses": 64}),
                     phase2=_cfg(6, 3, 1, PHASE2_BANK),
                     classify={"epochs": 2, **CLASSIFIER},
                     train_docs=60, test_docs=40, **TOY_LABELS,
                     paper_words_per_topic=2, paper_topics=2,
                     targets_per_topic=2,
                     tail_vocab=16, tail_phase1=_cfg(6, 3, 1, WIDE_BANK),
                     probe={"vocab": 16, **_cfg(4, 3, 1, WIDE_BANK)}),
    },
    "corpus_wide": {
        "full": Shape(topics=10, per_topic=60, docs=10000, doc_len=20,
                      max_vocab=200, zipf=1.0,
                      phase1=_cfg(40, 4, 2, WIDE_BANK),
                      phase2=_cfg(20, 4, 2, PHASE2_BANK),
                      classify={"epochs": 10, **CLASSIFIER},
                      train_docs=2000, test_docs=1000, jobs=2,
                      targets_per_topic=5, pool_size=10, aug_space=(10, 50)),
        "toy": Shape(topics=3, per_topic=8, docs=150, doc_len=4,
                     max_vocab=20, zipf=1.0,
                     phase1=_cfg(4, 3, 1, WIDE_BANK),
                     phase2=_cfg(6, 3, 1, PHASE2_BANK),
                     classify={"epochs": 2, **CLASSIFIER},
                     train_docs=60, test_docs=40, **TOY_LABELS, jobs=2,
                     targets_per_topic=2, pool_size=3, aug_space=(3, 8)),
    },
}

WORKLOADS = tuple(SHAPES)


def vocab_cap(shape: Shape) -> int:
    """--max-vocab for the vocab stage: every topic word plus the markers
    unless the shape caps it."""
    return shape.max_vocab or shape.topics * shape.per_topic + len(data.MARKERS)


def flags(cfg: dict) -> list[str]:
    """CLI flags for a stage config."""
    return [arg for key, value in cfg.items()
            for arg in (f"--{key}", str(value))]


@dataclass(frozen=True)
class Inputs:
    """Paths and facts of one workload's generated inputs."""

    dir: str
    seed: int
    corpus: str
    targets: list[str]         # Phase-2 target tokens, in file order
    phase1_words: list[str]    # paper_bank: the train_word handful
    train_labels: list[int]
    test_labels: list[int]
    aug_vocab: str | None      # corpus_wide: vocabulary of the embedding file

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def setup(name: str, size: str, seed: int, directory: str,
          replica: int = 0) -> Inputs:
    """Generate and write every input of one replica of the workload from the
    seed and the replica number alone."""
    shape = SHAPES[name][size]
    os.makedirs(directory, exist_ok=True)
    path = lambda f: os.path.join(directory, f)  # noqa: E731

    def rng(stream: int) -> np.random.Generator:
        return np.random.default_rng([seed, replica, stream])

    words = data.topic_words("t", shape.topics, shape.per_topic)
    docs, _ = data.planted_docs(rng(1), words, shape.docs, shape.doc_len,
                                shape.noise, shape.zipf)
    if not shape.aug_space:
        # The classifier reads the Phase-1 vocabulary, so it must hold the
        # sentiment markers.
        data.add_markers(rng(6), docs, None)
    data.write_docs(path("corpus.txt"), docs)

    if shape.targets_per_topic:
        chosen = [(words[t][j], t) for t in range(shape.topics)
                  for j in range(shape.targets_per_topic)]
    else:
        chosen = [(w, t) for t in range(shape.topics) for w in words[t]]
    data.write_lines(path("targets.txt"), (w for w, _ in chosen))
    data.write_pairs(path("pairs.tsv"),
                     data.planted_pairs(rng(2), chosen, shape.max_pairs))

    aug_vocab = None
    label_words = words
    if shape.aug_space:
        label_words = data.topic_words("a", *shape.aug_space)
        tokens, rows = data.planted_embeddings(rng(3), label_words)
        aug_vocab = path("aug_vocab.txt")
        data.write_lines(aug_vocab, tokens + list(data.MARKERS))
        data.write_embeddings(path("planted_emb.txt"), tokens, rows)
    n_topics = len(label_words)
    labels = {}
    for stream, split, n in ((4, "train", shape.train_docs),
                             (5, "test", shape.test_docs)):
        g = rng(stream)
        ldocs, ltopics = data.planted_docs(g, label_words, n, shape.doc_len,
                                           shape.noise, shape.zipf)
        # Shuffle so labels do not simply alternate with document position.
        order = g.permutation(n)
        ldocs = [ldocs[i] for i in order]
        ltopics = [ltopics[i] for i in order]
        labels[split] = data.sentiment_labels(g, ltopics, n_topics,
                                              shape.label_flip)
        data.add_markers(g, ldocs, labels[split], shape.marker_fidelity)
        data.write_docs(path(f"{split}.txt"), ldocs)
        data.write_labels(path(f"{split}.labels"), labels[split])
    return Inputs(dir=directory, seed=seed,
                  corpus=path("corpus.txt"),
                  targets=[w for w, _ in chosen],
                  phase1_words=[words[t][j] for t in range(shape.paper_topics)
                                for j in range(shape.paper_words_per_topic)],
                  train_labels=labels["train"], test_labels=labels["test"],
                  aug_vocab=aug_vocab)
