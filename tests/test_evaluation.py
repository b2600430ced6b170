import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tmembed import evaluation as ev


# ---- cosine ----

def test_cosine_identity():
    assert ev.cosine([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert ev.cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_hand_computed_value():
    # 32 / (sqrt(14) * sqrt(77))
    expected = 32.0 / math.sqrt(14.0 * 77.0)
    assert ev.cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)
    assert ev.cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746318461970762)


def test_cosine_errors():
    with pytest.raises(ValueError, match="zero vector"):
        ev.cosine([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="length mismatch"):
        ev.cosine([1.0], [1.0, 2.0])


def test_cosine_scale_invariance_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        a, b = rng.uniform(0.1, 10, size=2)
        assert ev.cosine(a * u, b * v) == pytest.approx(ev.cosine(u, v))
        assert ev.cosine(u, v) == pytest.approx(ev.cosine(v, u))
        assert -1.0 <= ev.cosine(u, v) <= 1.0


# ---- rank correlations ----

def test_spearman_identical_and_reversed():
    assert ev.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert ev.spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)


def test_spearman_closed_form_fixture():
    # 1 - 6*sum(d^2)/(n(n^2-1)) with d = (0,1,-1,0), n = 4
    assert ev.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8,
                                                                    abs=1e-9)


def test_kendall_identical_and_reversed():
    assert ev.kendall([1, 2, 3], [5, 6, 7]) == pytest.approx(1.0)
    assert ev.kendall([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_kendall_closed_form_fixture():
    # concordant 5, discordant 1 over 6 pairs
    assert ev.kendall([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2.0 / 3.0,
                                                                   abs=1e-9)


def test_rank_metrics_reject_degenerate_input():
    for fn in (ev.spearman, ev.kendall):
        with pytest.raises(ValueError, match="undefined correlation"):
            fn([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least two"):
            fn([1.0], [2.0])
        with pytest.raises(ValueError, match="length mismatch"):
            fn([1.0, 2.0], [1.0, 2.0, 3.0])


MONOTONE = [lambda v: v ** 3, np.arctan, lambda v: 2.5 * v + 1.0,
            lambda v: v / (1.0 + np.abs(v))]


def test_rank_metrics_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        xs = rng.choice(np.arange(100), size=n, replace=False).astype(float)
        ys = rng.choice(np.arange(100), size=n, replace=False).astype(float)
        f = MONOTONE[rng.integers(len(MONOTONE))]
        g = MONOTONE[rng.integers(len(MONOTONE))]
        assert ev.spearman(f(xs), g(ys)) == pytest.approx(ev.spearman(xs, ys),
                                                          abs=1e-9)
        assert ev.kendall(f(xs), g(ys)) == pytest.approx(ev.kendall(xs, ys),
                                                         abs=1e-9)


def test_rank_metrics_symmetry_and_bounds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        xs = rng.normal(size=8)
        ys = rng.normal(size=8)
        for fn in (ev.spearman, ev.kendall):
            assert fn(xs, ys) == pytest.approx(fn(ys, xs))
            assert -1.0 <= fn(xs, ys) <= 1.0


# ---- benchmark evaluation ----

def vectors_fixture():
    rng = np.random.default_rng(3)
    return {w: rng.normal(size=8) for w in "abcdefgh"}


def test_perfect_agreement_scores_one():
    vectors = vectors_fixture()
    pairs = []
    names = list(vectors)
    for i in range(0, 6, 2):
        a, b = names[i], names[i + 1]
        pairs.append((a, b, ev.cosine(vectors[a], vectors[b])))
    bench = ev.WordPairBenchmark(name="synthetic", pairs=tuple(pairs))
    report = ev.evaluate(vectors, bench)
    assert report.spearman == pytest.approx(1.0)
    assert report.kendall == pytest.approx(1.0)
    assert report.coverage == 1.0


def test_oov_pairs_tracked_in_coverage():
    vectors = vectors_fixture()
    names = list(vectors)
    pairs = [(names[i], names[i + 1], float(i)) for i in range(6)]
    pairs.append(("zzz", names[0], 1.0))            # OOV word
    pairs.append((names[2], names[3], 2.0))
    pairs.append((names[4], names[5], 3.0))
    pairs.append((names[0], names[5], 4.0))
    bench = ev.WordPairBenchmark(name="cov", pairs=tuple(pairs))
    report = ev.evaluate(vectors, bench)
    assert report.coverage == pytest.approx(0.9)


def test_zero_vector_embeddings_are_not_evaluable():
    vectors = {"a": np.ones(4), "b": np.zeros(4), "c": np.ones(4) * 2,
               "d": np.array([1.0, 0.0, 0.0, 0.0])}
    bench = ev.WordPairBenchmark(name="z", pairs=(
        ("a", "b", 1.0), ("a", "c", 2.0), ("a", "d", 3.0), ("c", "d", 4.0)))
    report = ev.evaluate(vectors, bench)
    assert report.coverage == pytest.approx(0.75)


def test_zero_evaluable_pairs_is_an_error():
    bench = ev.WordPairBenchmark(name="none", pairs=(("x", "y", 1.0),))
    with pytest.raises(ValueError, match="zero evaluable pairs"):
        ev.evaluate({"a": np.ones(3)}, bench)


def test_load_benchmark(tmp_path):
    path = tmp_path / "bench.tsv"
    path.write_text("# comment\nking\tqueen\t8.5\ncar\ttruck\t7.0\n")
    bench = ev.load_benchmark(path, name="toy")
    assert bench.name == "toy"
    assert bench.pairs == (("king", "queen", 8.5), ("car", "truck", 7.0))
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\n")
    with pytest.raises(ValueError, match="3 tab-separated"):
        ev.load_benchmark(bad)
    nan = tmp_path / "nan.tsv"
    nan.write_text("a\tb\tnan\n")
    with pytest.raises(ValueError, match="NaN"):
        ev.load_benchmark(nan)


def test_format_reports_table_and_machine_lines():
    reports = [
        ev.SimilarityReport("one", 0.5, 0.4, 0.9, 1.0),
        ev.SimilarityReport("two", 0.7, 0.6, 0.8, 0.5),
    ]
    text = ev.format_reports(reports)
    assert ev.REPORT_HEADER in text
    assert "Avg." in text
    assert "one.spearman=0.5" in text
    assert "Avg..mean_cosine=0.85" in text
    # single benchmark: no average row
    assert "Avg." not in ev.format_reports(reports[:1])


def test_importing_tmembed_does_not_load_scipy():
    src = str(Path(ev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tmembed.phase1; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
