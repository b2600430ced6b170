"""Word-pair similarity evaluation against human-scored benchmarks.

Model score for a pair is the cosine of the two embeddings; agreement with
the human scores is reported as Spearman (mid-rank ties) and Kendall tau-b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import open_text

REPORT_HEADER = "# C column: mean cosine of model scores over evaluable pairs"


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _check_rank_input(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("length mismatch")
    if xs.size < 2:
        raise ValueError("need at least two observations")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("undefined correlation (constant input)")
    return xs, ys


def spearman(xs, ys) -> float:
    """Pearson correlation of mid-ranks."""
    from scipy import stats  # here, so that importing tmembed skips scipy

    xs, ys = _check_rank_input(xs, ys)
    return float(stats.spearmanr(xs, ys).statistic)


def kendall(xs, ys) -> float:
    """Tau-b (tie-adjusted)."""
    from scipy import stats

    xs, ys = _check_rank_input(xs, ys)
    return float(stats.kendalltau(xs, ys, variant="b").statistic)


@dataclass(frozen=True)
class WordPairBenchmark:
    name: str
    pairs: tuple[tuple[str, str, float], ...]


def load_benchmark(path, name: str | None = None) -> WordPairBenchmark:
    """One pair per line: word_a<TAB>word_b<TAB>score."""
    pairs = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                score = float(parts[2])
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            if math.isnan(score):
                raise ValueError(f"{path}:{lineno}: NaN score")
            pairs.append((parts[0], parts[1], score))
    return WordPairBenchmark(name=name or str(path), pairs=tuple(pairs))


@dataclass(frozen=True)
class SimilarityReport:
    name: str
    spearman: float
    kendall: float
    mean_cosine: float
    coverage: float


def evaluate(vectors: Mapping[str, np.ndarray],
             bench: WordPairBenchmark) -> SimilarityReport:
    """Score every evaluable pair and correlate with the human scores.

    A pair is evaluable when both words have a nonzero embedding vector;
    the rest are excluded and reported through coverage.
    """
    model = []
    human = []
    for a, b, score in bench.pairs:
        va = vectors.get(a)
        vb = vectors.get(b)
        if va is None or vb is None:
            continue
        if not np.any(va) or not np.any(vb):
            continue
        model.append(cosine(va, vb))
        human.append(score)
    if not model:
        raise ValueError(f"benchmark {bench.name}: zero evaluable pairs")
    return SimilarityReport(
        name=bench.name,
        spearman=spearman(model, human),
        kendall=kendall(model, human),
        mean_cosine=float(np.mean(model)),
        coverage=len(model) / len(bench.pairs),
    )


def average_report(reports: list[SimilarityReport]) -> SimilarityReport:
    return SimilarityReport(
        name="Avg.",
        spearman=float(np.mean([r.spearman for r in reports])),
        kendall=float(np.mean([r.kendall for r in reports])),
        mean_cosine=float(np.mean([r.mean_cosine for r in reports])),
        coverage=float(np.mean([r.coverage for r in reports])),
    )


def format_reports(reports: list[SimilarityReport]) -> str:
    """Human-readable table followed by machine-readable key=value lines."""
    rows = list(reports)
    if len(rows) > 1:
        rows.append(average_report(rows))
    width = max(len(r.name) for r in rows)
    lines = [REPORT_HEADER,
             f"{'benchmark':<{width}}  {'S':>8}  {'K':>8}  {'C':>8}  {'cov':>6}"]
    for r in rows:
        lines.append(f"{r.name:<{width}}  {r.spearman:>8.4f}  {r.kendall:>8.4f}  "
                     f"{r.mean_cosine:>8.4f}  {r.coverage:>6.3f}")
    lines.append("")
    for r in rows:
        for key in ("spearman", "kendall", "mean_cosine", "coverage"):
            lines.append(f"{r.name}.{key}={getattr(r, key):.10g}")
    return "\n".join(lines) + "\n"
