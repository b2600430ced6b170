"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from tmembed import cli, cotm, evaluation as ev, knowledge, phase1, phase2
from tmembed.augment import (AugmentConfig, ClassifierConfig, accuracy,
                             augment_corpus, train_classifier)
from tmembed.corpus import Vocabulary, vectorize
from tmembed.phase1 import Phase1Config

from conftest import make_store
from oracles import (csr_rows, eligible_documents, naive_predict,
                     negation_closed_vector, two_level_union)
from test_phase2 import random_toy_store, shuffle_position_counts


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] C{number} FAIL: {description}")
        raise
    print(f"[ACCEPTANCE] C{number} PASS: {description}")


def test_c1_predict_matches_naive_oracle_on_all_closed_inputs():
    with criterion(1, "predict equals naive oracle on all 2^6 closed inputs"):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        V = 6
        for _ in range(5):
            bank = cotm.init_bank(8, 2, V, N=8, T=12, s=3.0)
            bank.set_states(
                np.s_[:], rng.integers(1, 17, size=bank.states.shape))
            bank.weights[:] = rng.integers(-4, 5, size=bank.weights.shape)
            states = bank.states.tolist()
            weights = bank.weights.tolist()
            for code in range(2 ** V):
                feats = [i for i in range(V) if (code >> i) & 1]
                x = negation_closed_vector(feats, V)
                assert cotm.predict(bank, x).tolist() == \
                    naive_predict(states, weights, bank.N, x.tolist())
        assert time.monotonic() - t0 < 10.0


def test_c2_feedback_invariants():
    with criterion(2, "1e6 random updates keep states in [1, 2N]; "
                      "invalidation rejects within 200 updates"):
        N = 4
        bank = cotm.init_bank(2, 1, 1, N=N, T=4, s=2.0)
        rng = np.random.default_rng(102)
        lo, hi = 1, 2 * N
        for _ in range(1_000_000):
            x = rng.integers(0, 2, size=2).astype(np.uint8)
            cotm.update(bank, x, 0, int(rng.integers(2)), rng)
            mn, mx = int(bank.states.min()), int(bank.states.max())
            assert lo <= mn and mx <= hi

        # targeted invalidation on a two-feature instance
        bank2 = cotm.init_bank(1, 1, 2, N=16, T=10, s=3.0)
        bank2.set_states(np.s_[0, 0], 17)  # clause {x0} matches x below
        bank2.weights[0, 0] = 1
        x = negation_closed_vector([0], 2)
        rng2 = np.random.default_rng(103)
        for step in range(200):
            if cotm.clause_output(bank2, 0, x, "infer") == 0:
                break
            cotm.update(bank2, x, 0, 0, rng2)
        assert cotm.clause_output(bank2, 0, x, "infer") == 0


def test_c3_worked_example_vector(worked_example):
    with criterion(3, "two-document worked example reproduces the frozen X"):
        vocab, ds = worked_example
        rng = np.random.default_rng(104)
        for _ in range(10):  # any draw must produce the same X (both docs picked)
            x = phase1.build_x_from_documents(ds, vocab.index_of["word3"], 1,
                                              2, rng)
            assert x.tolist() == [0, 1, 1, 1, 0, 1, 0, 0,
                                  1, 0, 0, 0, 1, 0, 1, 1]


def test_c4_document_pick_count_bound():
    with criterion(4, "picked documents == min(a, eligible) over 1e4 examples"):
        rng = np.random.default_rng(105)
        checked = 0
        while checked < 10_000:
            V = int(rng.integers(2, 7))
            vocab = Vocabulary.from_words([f"w{i}" for i in range(V)])
            raw = [[f"w{j}" for j in
                    rng.integers(0, V, size=rng.integers(1, 5))]
                   for _ in range(rng.integers(2, 12))]
            ds = vectorize(raw, vocab)
            doc_sets = [set(d.tolist()) for d in csr_rows(ds.ptr, ds.words)]
            for _ in range(50):
                word = int(rng.integers(V))
                q = int(rng.integers(2))
                a = int(rng.integers(1, 8))
                eligible = eligible_documents(doc_sets, word, q)
                if not eligible:
                    continue
                picked = phase1.pick_documents(ds, word, q, a, rng)
                assert len(picked) == min(a, len(eligible))
                checked += 1


def test_c5_expansion_matches_exhaustive_enumerator():
    with criterion(5, "two-level expansion equals exhaustive union on 100 "
                      "random toy stores"):
        rng = np.random.default_rng(106)
        stores = 0
        while stores < 100:
            entries, store, V = random_toy_store(rng)
            if not entries:
                continue
            stores += 1
            for word in entries:
                for q in (0, 1):
                    if not any((w > 0) == bool(q) for _, w in entries[word]):
                        continue
                    x = phase2.build_x_phase2(store, word, q, a=10, rng=rng)
                    assert set(np.flatnonzero(x).tolist()) == \
                        two_level_union(entries, word, q, V)


def test_c6_shuffle_position_uniformity(monkeypatch):
    with criterion(6, "shuffle position chi-square p > 0.01 over 1e4 "
                      "examples with k=5"):
        V = 8
        _, store = make_store({
            w: [((w,), 1), ((w + V, (w + 1) % V + V), -1)] for w in range(5)
        }, V=V)
        cfg = Phase1Config(r=2500, a=2, epochs=4, num_clauses=4, T=4, s=2.0,
                           N=8, seed=107)
        counts = shuffle_position_counts(monkeypatch, store, list(range(5)),
                                         cfg)
        assert counts.sum() == 5 * 10_000
        _, p, _, _ = chi2_contingency(counts)
        assert p > 0.01


def test_c7_rank_metric_correctness():
    with criterion(7, "closed-form rank metric fixtures at 1e-9 plus "
                      "monotone invariance on 1000 instances"):
        assert abs(ev.spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-9
        assert abs(ev.kendall([1, 2, 3, 4], [1, 3, 2, 4]) - 2.0 / 3.0) < 1e-9
        transforms = [lambda v: v ** 3, np.arctan, lambda v: 2.5 * v + 1.0,
                      lambda v: v / (1.0 + np.abs(v))]
        rng = np.random.default_rng(108)
        for _ in range(1000):
            n = int(rng.integers(3, 15))
            xs = rng.choice(np.arange(200), size=n, replace=False).astype(float)
            ys = rng.choice(np.arange(200), size=n, replace=False).astype(float)
            f = transforms[rng.integers(len(transforms))]
            g = transforms[rng.integers(len(transforms))]
            assert abs(ev.spearman(f(xs), g(ys)) - ev.spearman(xs, ys)) < 1e-9
            assert abs(ev.kendall(f(xs), g(ys)) - ev.kendall(xs, ys)) < 1e-9


def test_c8_planted_clusters_pipeline(cluster_corpus):
    with criterion(8, "planted-topic pipeline: intra-inter cosine margin "
                      ">= 0.2, spearman >= 0.6, runtime < 10 min"):
        t0 = time.monotonic()
        vocab, ds, half = cluster_corpus
        V = vocab.size
        store = phase1.train_all(ds, vocab, Phase1Config(
            r=150, a=6, epochs=2, num_clauses=24, T=24, s=3.0, N=32, seed=0))
        _, emb = phase2.train_embedding(store, list(range(V)), Phase1Config(
            r=150, a=4, epochs=2, num_clauses=24, T=24, s=3.0, N=32, seed=1))
        rows = emb.rows
        model, human, intra, inter = [], [], [], []
        for i in range(V):
            for j in range(i + 1, V):
                same = (i < half) == (j < half)
                c = ev.cosine(rows[i], rows[j])
                model.append(c)
                human.append(1.0 if same else 0.0)
                (intra if same else inter).append(c)
        margin = float(np.mean(intra) - np.mean(inter))
        rho = ev.spearman(model, human)
        elapsed = time.monotonic() - t0
        print(f"  c8 details: margin={margin:.3f} spearman={rho:.3f} "
              f"runtime={elapsed:.1f}s")
        assert margin >= 0.2
        assert rho >= 0.6
        assert elapsed < 600.0


POS_FILLERS = ["brilliant", "superb", "moving", "masterpiece"]
NEG_FILLERS = ["boring", "dull", "tedious", "clumsy"]
SHARED_FILLERS = ["plot", "actor", "scene", "music", "film", "story"]
MARKERS = {1: ["good", "great"], 0: ["bad", "awful"]}


def topical_sentiment_corpus(n, rng):
    docs, labels = [], []
    for i in range(n):
        label = i % 2
        cls = POS_FILLERS if label else NEG_FILLERS
        body = [cls[j] for j in rng.integers(0, len(cls), size=3)]
        body += [SHARED_FILLERS[j] for j in rng.integers(0, 6, size=3)]
        body.insert(int(rng.integers(len(body) + 1)),
                    MARKERS[label][int(rng.integers(2))])
        docs.append(body)
        labels.append(label)
    return docs, labels


def test_c9_end_to_end_sentiment_with_augmentation():
    with criterion(9, "augmented classifier beats majority baseline by 0.10; "
                      "augmentation delta reported"):
        words = sorted(set(POS_FILLERS + NEG_FILLERS + SHARED_FILLERS +
                           ["good", "great", "bad", "awful"]))
        vocab = Vocabulary.from_words(words)
        rng = np.random.default_rng(7)
        train_raw, train_labels = topical_sentiment_corpus(80, rng)
        test_raw, test_labels = topical_sentiment_corpus(60, rng)
        ds = vectorize(train_raw, vocab)
        store = phase1.train_all(ds, vocab, Phase1Config(
            r=120, a=5, epochs=2, num_clauses=20, T=20, s=3.0, N=32, seed=0))
        _, emb = phase2.train_embedding(store, list(range(vocab.size)),
                                        Phase1Config(r=120, a=4, epochs=2,
                                                     num_clauses=20, T=20,
                                                     s=3.0, N=32, seed=1))
        augmented = augment_corpus(train_raw, train_labels, emb, vocab,
                                   AugmentConfig(replace_fraction=0.15,
                                                 pool_size=2, seed=2))
        test = vectorize(test_raw, vocab)
        ccfg = ClassifierConfig(num_clauses=20, T=20, s=3.0, N=32, epochs=10,
                                seed=3)
        acc_aug, _ = accuracy(train_classifier(
            vectorize(train_raw + augmented, vocab), train_labels * 2, ccfg),
            test, test_labels)
        acc_plain, _ = accuracy(train_classifier(ds, train_labels, ccfg),
                                test, test_labels)
        n_pos = sum(test_labels)
        majority = max(n_pos, len(test_labels) - n_pos) / len(test_labels)
        delta = acc_aug - acc_plain
        print(f"  c9 details: majority={majority:.3f} plain={acc_plain:.3f} "
              f"augmented={acc_aug:.3f} augmentation_delta={delta:+.3f}")
        assert acc_aug >= majority + 0.10


FAST = ["--r", "40", "--a", "3", "--clauses", "8", "--T", "8", "--s", "2.0",
        "--N", "8", "--epochs", "2", "--seed", "5"]


def run_cli_pipeline(tmp, corpus, targets, bench_lines, outdir):
    outdir.mkdir()
    store = outdir / "k.tmk"
    emb = outdir / "emb.txt"
    vocabf = outdir / "vocab.txt"
    paths = {}

    def run(args):
        assert cli.main([str(a) for a in args]) == 0

    run(["vocab", corpus, "--max-vocab", 6, "--out", vocabf])
    run(["phase1", corpus, "--vocab", vocabf, "--out", store] + FAST)
    run(["phase2", store, targets, "--vocab", vocabf, "--out", emb] + FAST)
    bench = outdir / "bench.tsv"
    bench.write_text(bench_lines)
    report = outdir / "report.txt"
    run(["eval", emb, bench, "--out", report])
    labels = outdir / "labels.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(20)))
    aug_out = outdir / "augmented.txt"
    run(["augment", corpus, labels, "--vocab", vocabf, "--embeddings", emb,
         "--seed", 5, "--out", aug_out])
    cls_report = outdir / "classify.txt"
    run(["classify", "--train", corpus, "--train-labels", labels,
         "--test", corpus, "--test-labels", labels, "--vocab", vocabf,
         "--clauses", 8, "--T", 8, "--s", 2.0, "--N", 8, "--epochs", 2,
         "--seed", 5, "--out", cls_report])
    for p in (vocabf, store, emb, report, aug_out,
              outdir / "augmented.txt.labels", cls_report):
        paths[p.name] = p.read_bytes()
    return paths


def c10_inputs(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(["sun moon star"] * 10 +
                                ["car road fuel"] * 10) + "\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("sun\nmoon\ncar\n")
    bench = "sun\tmoon\t9.0\nsun\tcar\t1.0\nmoon\tcar\t2.0\n"
    return corpus, targets, bench


def test_c10_every_stage_is_bit_deterministic(tmp_path):
    with criterion(10, "identical seeds give byte-identical outputs for "
                       "every pipeline stage"):
        corpus, targets, bench = c10_inputs(tmp_path)
        first = run_cli_pipeline(tmp_path, corpus, targets, bench,
                                 tmp_path / "run1")
        second = run_cli_pipeline(tmp_path, corpus, targets, bench,
                                  tmp_path / "run2")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


# sha256 of the augment and classify outputs of C10's chain. The two
# commands' input building must not move them.
PINNED_C10_SHA256 = {
    "augmented.txt":
        "e109019758c779660cec8e70e55a39fad75e9e80f9ced2c76d73d0e756818973",
    "augmented.txt.labels":
        "35243f6df2d5a76cfd07cf35bea9d76424b48bf86d13d662f5fd493a5229e3e9",
    "classify.txt":
        "3b2e454a90d2700a7721317d70a8ee573290a0e24753f8bc73f566985d8fb89a",
}


def test_c10_augment_and_classify_outputs_are_pinned(tmp_path):
    corpus, targets, bench = c10_inputs(tmp_path)
    outputs = run_cli_pipeline(tmp_path, corpus, targets, bench,
                               tmp_path / "run")
    assert {name: hashlib.sha256(outputs[name]).hexdigest()
            for name in PINNED_C10_SHA256} == PINNED_C10_SHA256
