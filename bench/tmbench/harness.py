"""Run one workload: set up, run the chain once per input replica, re-run its
stages for the rest of the time budget, check every output, and report
end-to-end metrics (untraced) or per-layer metrics (traced).

Usage (from the root of a checkout):

    python3 bench/run.py --workload planted_small --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything the run writes stays under
.bench_work/ in the checkout; the chain's artifacts are removed at exit and a
traced run leaves its spans in .bench_work/spans-<workload>-s<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from . import catalogue, hostspeed, tracer as tr, workloads as wl

SETUP_REPEATS = 9
ARTIFACTS = ("vocab.txt", "k.tmk", "tail_vocab.txt", "tail.tmk", "emb.txt",
             "report.txt", "aug.txt", "aug.txt.labels", "acc.txt")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values):
    """(p, value) for the highest of p50..p99.9 with >= 10 samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(values, p)))
    return best


class Phase2Counter:
    """Counts Phase-2 word-examples attempted and skipped.

    The CLI discards phase2's skip statistics, so the harness counts calls to
    tmembed.phase2.build_x_phase2 and the ValueErrors that mark a skip. It
    reads no clock, so it is installed in untraced runs too.
    """

    def __init__(self, p2):
        self.attempts = 0
        self.skips = 0
        self._p2 = p2
        self._original = p2.build_x_phase2
        counter = self

        @functools.wraps(self._original)
        def counted(*args, **kwargs):
            counter.attempts += 1
            try:
                return counter._original(*args, **kwargs)
            except ValueError:
                counter.skips += 1
                raise

        p2.build_x_phase2 = counted

    def take(self) -> tuple[int, int]:
        out = (self.attempts, self.skips)
        self.attempts = self.skips = 0
        return out

    def close(self):
        self._p2.build_x_phase2 = self._original


class Replica:
    """One independent input set of a run: its inputs, the output directory of
    its checked pass, its stages in chain order and every timing sample."""

    def __init__(self, index: int, inp: wl.Inputs, out: str):
        self.index, self.inp, self.out = index, inp, out
        self.steps: list[tuple[str, object]] = []
        self.samples: dict[str, list[float]] = {}
        self.ver: dict = {}

    def stage_medians(self) -> dict[str, float]:
        return {stage: _median(v) for stage, v in self.samples.items()}


class Run:
    def __init__(self, args, work_root):
        import tmembed.cli
        import tmembed.corpus
        import tmembed.knowledge
        import tmembed.phase1
        import tmembed.phase2
        self.cli, self.corpus = tmembed.cli, tmembed.corpus
        self.kn, self.p1, self.p2 = (tmembed.knowledge, tmembed.phase1,
                                     tmembed.phase2)
        self.args = args
        self.shape = wl.SHAPES[args.workload][args.size]
        self.work_root = work_root
        self.work = os.path.join(work_root,
                                 f"{args.workload}-s{args.seed}-p{os.getpid()}")
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.probes: list[float] = []
        # Artifact digests of each replica's first pass.
        self.first_digests: dict[int, dict[str, str]] = {}

    # ----------------------------------------------------------------- checks
    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"FAIL {name}: {detail}")

    def ops(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    # ------------------------------------------------------------------ setup
    def setup(self) -> tuple[list[wl.Inputs], list[float]]:
        times, digests = [], set()
        inputs_dir = os.path.join(self.work, "inputs")
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs_dir, ignore_errors=True)
            self.probes.append(hostspeed.probe())
            t0 = perf_counter()
            inputs = [wl.setup(self.args.workload, self.args.size,
                               self.args.seed,
                               os.path.join(inputs_dir, f"r{r}"), replica=r)
                      for r in range(self.shape.replicas)]
            times.append(perf_counter() - t0)
            digests.add(tuple(_digest(os.path.join(inp.dir, f))
                              for inp in inputs
                              for f in sorted(os.listdir(inp.dir))))
        self.check("setup is deterministic", len(digests) == 1)
        return inputs, times

    # ------------------------------------------------------------------ chain
    def plan(self, inp: wl.Inputs, out: str) -> list[tuple[str, object]]:
        """The chain's stages in order: (name, CLI argv), or (name, callable)
        for paper_bank's in-process Phase 1."""
        sh = self.shape
        o = lambda f: os.path.join(out, f)  # noqa: E731
        seed = inp.seed
        p1flags = ["--seed", seed] + wl.flags(sh.phase1)
        steps: list[tuple[str, object]] = [
            ("vocab", ["vocab", inp.corpus, "--max-vocab", wl.vocab_cap(sh),
                       "--out", o("vocab.txt")])]
        if inp.phase1_words:
            steps.append(("phase1", functools.partial(
                self._library_phase1, inp, out)))
            retrain = inp.phase1_words[0]
        else:
            steps.append(("phase1", ["phase1", inp.corpus, "--vocab",
                                     o("vocab.txt"), "--out", o("k.tmk"),
                                     "--jobs", sh.jobs] + p1flags))
            retrain = inp.targets[0]
        steps.append(("retrain", ["phase1", inp.corpus, "--vocab",
                                  o("vocab.txt"), "--word", retrain,
                                  "--out", o("k.tmk")] + p1flags))
        store, vocab = self.tail_paths(out)
        if sh.tail_vocab:
            steps.append(("tail_phase1", [
                "phase1", inp.corpus, "--vocab-size", sh.tail_vocab,
                "--vocab-out", vocab, "--out", store, "--jobs", 1,
                "--seed", seed] + wl.flags(sh.tail_phase1)))
        if inp.aug_vocab:
            aug_vocab, emb = inp.aug_vocab, inp.path("planted_emb.txt")
        else:
            aug_vocab, emb = vocab, o("emb.txt")
        steps += [
            ("phase2", ["phase2", store, inp.path("targets.txt"),
                        "--vocab", vocab, "--out", o("emb.txt"),
                        "--seed", seed + 1] + wl.flags(sh.phase2)),
            ("eval", ["eval", o("emb.txt"), inp.path("pairs.tsv"),
                      "--out", o("report.txt")]),
            ("augment", ["augment", inp.path("train.txt"),
                         inp.path("train.labels"), "--vocab", aug_vocab,
                         "--embeddings", emb, "--out", o("aug.txt"),
                         "--pool-size", sh.pool_size, "--seed", seed + 2]),
            ("classify", ["classify", "--train", inp.path("train.txt"),
                          "--train-labels", inp.path("train.labels"),
                          "--extra", o("aug.txt"), "--extra-labels",
                          o("aug.txt.labels"), "--test", inp.path("test.txt"),
                          "--test-labels", inp.path("test.labels"),
                          "--vocab", aug_vocab, "--out", o("acc.txt"),
                          "--seed", seed + 3] + wl.flags(sh.classify)),
        ]
        return steps

    def _library_phase1(self, inp, out) -> int:
        """paper_bank's Phase 1: train_word on the handful, then save."""
        corpus, p1, kn = self.corpus, self.p1, self.kn
        c = self.shape.phase1
        vocab = corpus.load_vocabulary(os.path.join(out, "vocab.txt"))
        ds = corpus.vectorize(corpus.read_corpus(inp.corpus), vocab)
        cfg = p1.Phase1Config(r=c["r"], a=c["a"], epochs=c["epochs"],
                              num_clauses=c["clauses"], T=c["T"], s=c["s"],
                              N=c["N"], seed=inp.seed)
        store = kn.KnowledgeStore(vocab_hash=vocab.digest(), V=vocab.size)
        for token in inp.phase1_words:
            w = vocab.index_of[token]
            try:
                store.entries[w] = p1.train_word(ds, w, cfg)
            except ValueError as err:
                store.entries[w] = kn.WordKnowledge(word=w, clauses=())
                store.failures[w] = str(err)
        kn.save(store, os.path.join(out, "k.tmk"))
        return 0

    def run_stage(self, step) -> tuple[float, str]:
        """Run one stage; its wall time and an error message ('' if it
        exited 0). A crash inside tmembed is a failed stage, not a crash of
        the harness. Garbage left by earlier stages is collected first, so
        no stage pays for another's."""
        gc.collect()
        self.probes.append(hostspeed.probe())
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = step() if callable(step) else self.cli.main(
                    [str(a) for a in step])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
        wall = perf_counter() - t0
        return wall, "" if rc == 0 else f"exited {rc}: {err.getvalue().strip()}"

    def chain(self, inp: wl.Inputs, out: str, tracer=None) -> dict:
        """One pass over every stage, each run once; returns the stages in
        order, each stage's wall time and the failures."""
        steps = self.plan(inp, out)
        store = os.path.join(out, "k.tmk")
        times: dict[str, list[float]] = {}
        errors: list[str] = []
        before = after = ""
        os.makedirs(out)
        if tracer is not None:
            tracer.active = True
        try:
            for stage, step in steps:
                if stage == "retrain" and os.path.exists(store):
                    before = _digest(store)
                wall, err = self.run_stage(step)
                times[stage] = [wall]
                if err:
                    errors.append(f"{stage} {err}")
                if stage == "retrain" and os.path.exists(store):
                    after = _digest(store)
        finally:
            if tracer is not None:
                tracer.active = False
        return {"steps": steps, "times": times, "errors": errors,
                "retrain_same": before == after and before != ""}

    def tail_paths(self, out: str) -> tuple[str, str]:
        """(store, vocabulary) that Phase 2 onwards read."""
        if self.shape.tail_vocab:
            return (os.path.join(out, "tail.tmk"),
                    os.path.join(out, "tail_vocab.txt"))
        return os.path.join(out, "k.tmk"), os.path.join(out, "vocab.txt")

    # ------------------------------------------------------ output checking
    @staticmethod
    def artifact_digests(out: str) -> dict[str, str]:
        return {f: _digest(os.path.join(out, f)) for f in ARTIFACTS
                if os.path.exists(os.path.join(out, f))}

    def verify(self, replica: int, inp: wl.Inputs, out: str, res: dict,
               counter: Phase2Counter) -> dict:
        """Check one pass's outputs; count its operations; read its quality."""
        sh = self.shape
        o = lambda f: os.path.join(out, f)  # noqa: E731
        corpus, kn, p2 = self.corpus, self.kn, self.p2
        for msg in res["errors"]:
            self.notes.append(msg)
        self.ops(len(res["times"]), len(res["errors"]))
        self.check("every stage exits 0", not res["errors"],
                   "; ".join(res["errors"]))
        p2_attempts, p2_skips = counter.take()
        self.ops(p2_attempts, p2_skips)

        quality = {"planted_spearman": 0.0, "planted_margin": 0.0,
                   "classify_accuracy": 0.0}
        counts = {"p1_trained": 0, "p2_attempts": p2_attempts}
        try:
            vocab = corpus.load_vocabulary(o("vocab.txt"))
            store = kn.load(o("k.tmk"), vocab)
            expected = ({vocab.index_of[t] for t in inp.phase1_words}
                        if inp.phase1_words else set(range(vocab.size)))
            self.check("store loads with every Phase-1 word",
                       set(store.entries) == expected,
                       f"{len(store.entries)} entries, {len(expected)} expected")
            self.ops(len(expected) + 1, len(store.failures))
            counts["p1_trained"] = len(expected) - len(store.failures)
            counts["store_bytes"] = os.path.getsize(o("k.tmk"))
            self.check("retrain reproduces the batch store byte for byte",
                       res["retrain_same"])
            if sh.tail_vocab:
                tail_path, tail_vocab_path = self.tail_paths(out)
                tail_vocab = corpus.load_vocabulary(tail_vocab_path)
                tail = kn.load(tail_path, tail_vocab)
                self.check("tail store loads with every tail word",
                           set(tail.entries) == set(range(tail_vocab.size)))
                self.ops(tail_vocab.size, len(tail.failures))

            tokens, rows = p2.load_embeddings(o("emb.txt"))
            self.check("embedding rows equal targets", tokens == inp.targets,
                       f"{len(tokens)} rows for {len(inp.targets)} targets")
            quality.update(self._planted_quality(inp, tokens, rows, o))

            with open(o("aug.txt"), encoding="utf-8") as fh:
                n_aug = sum(1 for _ in fh)
            aug_labels = corpus.read_labels(o("aug.txt.labels"))
            self.check("augmented labels align with their documents",
                       n_aug == sh.train_docs
                       and aug_labels == inp.train_labels,
                       f"{n_aug} docs, {len(aug_labels)} labels")
            counts["aug_docs"] = n_aug

            acc = self._read_key(o("acc.txt"), "accuracy")
            pos = sum(inp.test_labels)
            majority = max(pos, len(inp.test_labels) - pos) / len(
                inp.test_labels)
            self.check("classify_accuracy beats the majority baseline",
                       acc > majority, f"{acc:.4f} <= {majority:.4f}")
            quality["classify_accuracy"] = acc
        except (OSError, ValueError, KeyError) as err:
            self.check("outputs readable", False, repr(err))

        digests = self.artifact_digests(out)
        first = self.first_digests.setdefault(replica, digests)
        self.check("same-seed artifacts are byte-identical", digests == first,
                   ", ".join(f for f in ARTIFACTS
                             if digests.get(f) != first.get(f)))
        return {"quality": quality, "counts": counts}

    @staticmethod
    def _read_key(path, key) -> float:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                k, _, v = line.strip().partition("=")
                if k == key:
                    return float(v)
        raise ValueError(f"{path}: no {key}= line")

    def _planted_quality(self, inp, tokens, rows, o) -> dict:
        from scipy import stats
        vec = {t: rows[i] for i, t in enumerate(tokens)}
        model, human = [], []
        with open(inp.path("pairs.tsv"), encoding="utf-8") as fh:
            for line in fh:
                a, b, score = line.rstrip("\n").split("\t")
                va, vb = vec.get(a), vec.get(b)
                if va is None or vb is None or not va.any() or not vb.any():
                    continue
                # Same arithmetic as evaluation.cosine, so ties rank alike.
                c = float(np.clip(np.dot(va, vb) / (np.linalg.norm(va)
                                                    * np.linalg.norm(vb)),
                                  -1.0, 1.0))
                model.append(c)
                human.append(float(score))
        model, human = np.array(model), np.array(human)
        rho = float(stats.spearmanr(model, human).statistic)
        margin = float(model[human == 1.0].mean() - model[human == 0.0].mean())
        reported = self._read_key(o("report.txt"), "pairs.tsv.spearman")
        self.check("eval report matches an independent Spearman",
                   abs(reported - rho) < 1e-9, f"{reported} vs {rho}")
        return {"planted_spearman": rho, "planted_margin": margin}

    # ---------------------------------------------------------- end-to-end
    def e2e(self, reps: list[Replica]) -> dict:
        """Rates divide the work of every replica by the sum of its stage
        medians; times are means over replicas of stage medians."""
        sh, p1 = self.shape, self.shape.phase1
        t = [r.stage_medians() for r in reps]
        c = [r.ver["counts"] for r in reps]

        def rate(stage, work):
            return sum(map(work, c)) / sum(ti[stage] for ti in t)

        return {
            "pipeline_s": _mean([sum(ti.values()) for ti in t]),
            "phase1_updates_per_s": rate(
                "phase1", lambda ci: ci["p1_trained"] * p1["r"] * p1["epochs"]),
            "phase2_examples_per_s": rate(
                "phase2", lambda ci: ci["p2_attempts"]),
            "retrain_word_s": _mean([ti["retrain"] for ti in t]),
            "augment_docs_per_s": rate("augment", lambda ci: sh.train_docs),
            "classify_docs_per_s": rate(
                "classify",
                lambda ci: (sh.train_docs + ci.get("aug_docs", 0))
                * sh.classify["epochs"] + sh.test_docs),
        }

    # ---------------------------------------------------------------- probe
    def dispatch_probe(self, inp: wl.Inputs, tracer) -> dict:
        """train_all at jobs=1 and jobs=2 on the workload's corpus.

        paper_bank's probe uses its corpus with a top-`probe.vocab` vocabulary
        and a tiny bank, since train_all over V=2000 paper banks would take
        hours. When the chain's Phase 1 runs in workers, a traced jobs=1 pass
        supplies the in-process Phase-1 spans (trace id "baseline").
        """
        corpus, p1 = self.corpus, self.p1
        sh = self.shape
        c = sh.probe or sh.phase1
        raw = corpus.read_corpus(inp.corpus)
        vocab = corpus.build_vocabulary(
            raw, c.get("vocab", wl.vocab_cap(sh)))
        ds = corpus.vectorize(raw, vocab)
        cfg = p1.Phase1Config(r=c["r"], a=c["a"], epochs=c["epochs"],
                              num_clauses=c["clauses"], T=c["T"], s=c["s"],
                              N=c["N"], seed=inp.seed)
        walls, stores = {}, {}
        for jobs in (1, 2):
            t0 = perf_counter()
            stores[jobs] = p1.train_all(ds, vocab, cfg, parallelism=jobs)
            walls[jobs] = perf_counter() - t0
        self.check("train_all is identical at jobs 1 and 2",
                   stores[1].entries == stores[2].entries
                   and stores[1].failures == stores[2].failures)
        if sh.jobs > 1:
            tracer.trace = "baseline"
            tracer.active = True
            try:
                p1.train_all(ds, vocab, cfg, parallelism=1)
            finally:
                tracer.active = False
        return {"phase1.train_all_s": walls[1],
                "phase1.jobs2_speedup": walls[1] / walls[2],
                "phase1.pickled_bytes_per_word":
                    len(pickle.dumps((ds, 0, cfg)))}

    # ----------------------------------------------------------------- main
    def first_pass(self, reps: list[Replica]):
        """Every replica's chain once, in its own directory, checked."""
        for rep in reps:
            res = self.chain(rep.inp, rep.out)
            rep.steps, rep.samples = res["steps"], res["times"]
            rep.ver = self.verify(rep.index, rep.inp, rep.out, res,
                                  self.counter)

    def top_up(self, reps: list[Replica], deadline: float):
        """Re-run single stages of the checked passes until the deadline.

        The next stage is the one with the lowest sample count times the
        square root of its median whose median still fits before the
        deadline. For equal relative noise per sample this weighting gives
        the least summed variance of the stage medians for the time spent,
        so short stages get more samples than Phase 1. Samples of every
        stage spread over the whole run, so a burst of host noise lands in
        few of them. Each re-run must exit 0 and leave every artifact of its
        replica byte-identical.
        """
        while True:
            now = perf_counter()
            todo = [(len(rep.samples[stage])
                     * _median(rep.samples[stage]) ** 0.5,
                     _median(rep.samples[stage]), rep.index, i)
                    for rep in reps
                    for i, (stage, _) in enumerate(rep.steps)
                    if now + _median(rep.samples[stage]) <= deadline]
            if not todo or not self.checks.get("every stage exits 0", True):
                return
            *_, r, i = min(todo)
            rep = reps[r]
            stage, step = rep.steps[i]
            wall, err = self.run_stage(step)
            rep.samples[stage].append(wall)
            p2_attempts, p2_skips = self.counter.take()
            self.ops(1 + p2_attempts, bool(err) + p2_skips)
            self.check("every stage exits 0", not err, f"{stage} {err}")
            digests = self.artifact_digests(rep.out)
            self.check("re-running a stage rewrites identical bytes",
                       digests == self.first_digests[rep.index],
                       f"replica {rep.index} {stage}")

    def traced_passes(self, inp: wl.Inputs, budget: float, tracer) -> list:
        """Traced chains of replica 0 while the next still fits the budget;
        each stage runs once, so per-layer counts do not depend on timing."""
        passes, start, last = [], perf_counter(), 0.0
        while not passes or perf_counter() - start + last <= budget:
            i = len(passes)
            tracer.trace = i
            out = os.path.join(self.work, f"traced{i}")
            t0 = perf_counter()
            res = self.chain(inp, out, tracer)
            last = perf_counter() - t0
            ver = self.verify(0, inp, out, res, self.counter)
            shutil.rmtree(out, ignore_errors=True)
            passes.append({"trace": i, "ver": ver, "pipeline_s":
                           sum(w for reps in res["times"].values()
                               for w in reps)})
        return passes

    def execute(self) -> dict:
        args = self.args
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.counter = Phase2Counter(self.p2)
        tracer = None
        traced, probe = [], {}
        # A traced run splits its time: untraced half, traced half.
        budget = args.seconds / 2 if args.trace else args.seconds
        try:
            inputs, setup_times = self.setup()
            deadline = perf_counter() + budget
            reps = [Replica(r, inp, os.path.join(self.work, f"r{r}"))
                    for r, inp in enumerate(inputs)]
            self.first_pass(reps)
            self.top_up(reps, deadline)
            if args.trace:
                tracer = tr.Tracer()
                tracer.install()
                traced = self.traced_passes(inputs[0], budget, tracer)
                probe = self.dispatch_probe(inputs[0], tracer)
        finally:
            self.counter.close()
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(self.work, ignore_errors=True)
        peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        qualities = [r.ver["quality"] for r in reps]
        self.check("quality is identical on every pass",
                   all(p["ver"]["quality"] == qualities[0] for p in traced))
        e2e = self.e2e(reps)
        e2e.update({k: _mean([q[k] for q in qualities]) for k in qualities[0]})
        e2e["setup_s"] = _median(setup_times)
        e2e["peak_rss_mb"] = peak / 1024.0
        e2e["success_ratio"] = 1.0 - self.failed / max(self.attempted, 1)
        out = {"e2e": e2e, "setup_times": setup_times, "reps": reps,
               "traced": traced,
               "scale": hostspeed.REFERENCE_S / _median(self.probes)}
        if tracer is not None:
            out["layers"] = self.layer_metrics(tracer, traced, probe, reps[0])
            spans_path = os.path.join(
                self.work_root, f"spans-{args.workload}-s{args.seed}.jsonl")
            tracer.dump(spans_path)
            out["spans_path"] = spans_path
            out["span_layers"] = sorted({s[tr.NAME].split(".")[0]
                                         for s in tracer.spans})
        return out

    # ----------------------------------------------------------- per layer
    def layer_metrics(self, tracer, traced, probe, rep0) -> dict:
        spans = tracer.spans
        selfs = tr.self_times(spans)
        per_pass = [self._pass_layers(spans, selfs, p) for p in traced]
        out = {k: _median([d[k] for d in per_pass]) for k in per_pass[0]}
        out.update(probe)
        out["trace.overhead_ratio"] = (
            _median([p["pipeline_s"] for p in traced])
            / sum(rep0.stage_medians().values()))
        return out

    def _pass_layers(self, spans, selfs, traced_pass) -> dict:
        N, S, E, T, A = tr.NAME, tr.START, tr.END, tr.TRACE, tr.ATTRS
        trace = traced_pass["trace"]
        in_workers = self.shape.jobs > 1
        idx = [i for i, s in enumerate(spans)
               if s[T] == trace or (in_workers and s[T] == "baseline")]
        if in_workers:
            # The chain's own train_all only waits on workers; the baseline's
            # in-process pass stands in for it.
            idx = [i for i in idx if spans[i][T] == "baseline"
                   or spans[i][N] != "phase1.train_all"]
        by: dict[str, list[int]] = {}
        for i in idx:
            by.setdefault(spans[i][N], []).append(i)

        def durs(name, pred=None):
            return [spans[i][E] - spans[i][S] for i in by.get(name, ())
                    if pred is None or pred(spans[i][A])]

        def p(name, q, pred=None):
            d = durs(name, pred)
            return float(np.percentile(d, q)) * 1e6 if d else 0.0

        def busy(name):
            return float(sum(selfs[i] for i in by.get(name, ())))

        def wall(name):
            return float(sum(durs(name)))

        def attrs(name, key):
            return [spans[i][A][key] for i in by.get(name, ())
                    if spans[i][A] and key in spans[i][A]]

        upd, bx = "cotm.update", "phase2.build_x_phase2"
        b1 = "phase1.build_x_from_documents"
        fbp, nw = "knowledge.filter_by_polarity", "augment.nearest_words"
        n_bx = len(by.get(bx, ()))
        m = {
            f"{upd}.calls": len(by.get(upd, ())),
            f"{upd}.p50_us": p(upd, 50), f"{upd}.p99_us": p(upd, 99),
            f"{upd}.busy_s": busy(upd),
            f"{upd}.cells": float(sum(attrs(upd, "cells"))),
            f"{upd}.input_density": _mean(attrs(upd, "density")),
            "cotm.predict.calls": len(by.get("cotm.predict", ())),
            "cotm.predict.p50_us": p("cotm.predict", 50),
            "cotm.predict.busy_s": busy("cotm.predict"),
            f"{b1}.q0_p50_us": p(b1, 50, lambda a: a and a.get("q") == 0),
            f"{b1}.q1_p50_us": p(b1, 50, lambda a: a and a.get("q") == 1),
            f"{b1}.busy_s": busy(b1),
            "knowledge.save_s": wall("knowledge.save"),
            "knowledge.load_s": wall("knowledge.load"),
            "knowledge.from_bank.busy_s": busy("knowledge.from_bank"),
            f"{fbp}.calls": len(by.get(fbp, ())),
            f"{fbp}.busy_s": busy(fbp),
            f"{bx}.calls": n_bx, f"{bx}.p50_us": p(bx, 50),
            f"{bx}.busy_s": busy(bx),
            "phase2.active_literals_mean": _mean(attrs(bx, "active")),
            "phase2.skip_ratio": len(attrs(bx, "error")) / max(n_bx, 1),
            "phase2.extract_embedding_s": wall("phase2.extract_embedding"),
            "phase2.save_embeddings_s": wall("phase2.save_embeddings"),
            "phase2.load_embeddings_s": wall("phase2.load_embeddings"),
            f"{nw}.calls": len(by.get(nw, ())), f"{nw}.p50_us": p(nw, 50),
            f"{nw}.busy_s": busy(nw),
            "augment.augment_document.busy_s":
                busy("augment.augment_document"),
            "augment.train_classifier_s": wall("augment.train_classifier"),
            "augment.accuracy_s": wall("augment.accuracy"),
            "corpus.read_corpus_s": wall("corpus.read_corpus"),
            "corpus.build_vocabulary_s": wall("corpus.build_vocabulary"),
            "corpus.vectorize_s": wall("corpus.vectorize"),
            "evaluation.evaluate_s": wall("evaluation.evaluate"),
            "evaluation.cosine.calls": len(by.get("evaluation.cosine", ())),
        }
        for command in ("vocab", "phase1", "phase2", "eval", "augment",
                        "classify"):
            m[f"cli.{command}_s"] = wall(f"cli.{command}")
        m["knowledge.store_bytes"] = float(
            traced_pass["ver"]["counts"].get("store_bytes", 0))
        for layer in tr.LAYERS:
            m[f"{layer}.self_s"] = float(sum(
                selfs[i] for i in idx if spans[i][N].startswith(layer + ".")))
        return m


def _mean(values):
    return float(np.mean(values)) if values else 0.0


# ------------------------------------------------------------------ report
def report(args, result, run) -> tuple[str, dict]:
    lines = [f"tmbench workload={args.workload} size={args.size} "
             f"seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    times: dict[str, list[float]] = {}
    for rep in result["reps"]:
        for stage, samples in rep.samples.items():
            times.setdefault(stage, []).extend(samples)
    times["setup"] = result["setup_times"]
    times["pipeline"] = [sum(rep.stage_medians().values())
                         for rep in result["reps"]]
    scale = result["scale"]
    lines.append(f"host probe: median {_median(run.probes):.6f} s over "
                 f"{len(run.probes)} probes; clocked metrics are scaled to "
                 f"reference speed ({hostspeed.REFERENCE_S} s): times x "
                 f"{scale:.4f}, rates / {scale:.4f}")
    lines.append(f"replicas: {len(result['reps'])}, "
                 f"{len(result['traced'])} traced passes")
    lines.append("raw untraced timings (s), every replica pooled: median, "
                 "highest percentile with >= 10 samples beyond it, sample "
                 "count, min, max")
    for stage, vals in times.items():
        tail = tail_percentile(vals)
        tail_s = f"p{tail[0]:g}={tail[1]:.4f}" if tail else "tail n/a"
        lines.append(f"  {stage:<12} {_median(vals):10.4f}  {tail_s:<16} "
                     f"n={len(vals):<4} {min(vals):.4f} {max(vals):.4f}")
    metrics = {}
    names = (catalogue.PER_LAYER if args.trace else catalogue.END_TO_END)
    values = result["layers"] if args.trace else result["e2e"]
    lines.append("metrics (value unit, better, kind):")
    for m in names:
        v = float(values[m.name])
        if m.kind == "time":
            v *= scale
        elif m.kind == "rate":
            v /= scale
        metrics[m.name] = {"value": v, "unit": m.unit}
        tag = " [computed: exact count, not a speed-up]" \
            if m.kind == "computed" else ""
        lines.append(f"  {m.name:<44} {v:>14.6g} {m.unit:<8} "
                     f"{m.better:<6} {m.kind}{tag}")
    if args.trace:
        lines.append(f"spans: {result['spans_path']} "
                     f"(layers: {', '.join(result['span_layers'])})")
    lines.append(f"operations: attempted={run.attempted} failed={run.failed} "
                 f"failed_ratio={run.failed / max(run.attempted, 1):.6f}")
    for name, ok in run.checks.items():
        lines.append(f"  check {'PASS' if ok else 'FAIL'}: {name}")
    lines.extend("  " + n for n in run.notes)
    return "\n".join(lines), metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny shapes for the harness smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, work_root=None) -> int:
    """Entry point. The checkout root is two levels above this package; the
    run writes under work_root (default: .bench_work in the checkout)."""
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tmembed", "__init__.py")):
        print(f"error: no tmembed sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)
    import tmembed
    if os.path.dirname(os.path.dirname(os.path.abspath(tmembed.__file__))) \
            != os.path.abspath(src):
        print(f"error: tmembed imported from {tmembed.__file__}, not {src}",
              file=sys.stderr)
        return 2
    run = Run(args, work_root or os.path.join(root, ".bench_work"))
    result = run.execute()
    text, metrics = report(args, result, run)
    print(text)
    print(json.dumps({"correct": all(run.checks.values()),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0
