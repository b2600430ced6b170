"""Batch command-line pipeline: vocab, phase1, phase2, eval, augment, classify.

Every run resolves its settings as defaults < config file (--config, JSON)
< explicit flags, writes its primary output to --out, and drops a JSON run
manifest (settings, seed, input digests, output paths, wall time) next to it.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import augment as aug
from . import corpus as corp
from . import evaluation as ev
from . import knowledge as kn
from . import phase1 as p1
from . import phase2 as p2

JOBS_ENV = "TMEMBED_JOBS"


class UsageError(Exception):
    pass


def _existing_file(path: str) -> str:
    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    return path


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command: str, cfg: dict, inputs: list[str],
                    outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "config"},
        "seed": cfg.get("seed"),
        "input_digests": {p: _sha256_file(p) for p in inputs},
        "output_paths": outputs,
        "wall_time_s": time.monotonic() - t0,
    }
    with open(outputs[0] + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


DEFAULTS: dict[str, dict] = {
    "vocab": {"max_vocab": 20000, "seed": 0},
    "phase1": {"vocab": None, "vocab_size": 20000, "vocab_out": None,
               "word": None, "jobs": None,
               "r": 2000, "a": 25, "clauses": 1600, "T": 3200, "s": 5.0,
               "N": 128, "epochs": 25, "seed": 0},
    "phase2": {"sparse": False,
               "r": 2000, "a": 25, "clauses": 1600, "T": 3200, "s": 5.0,
               "N": 128, "epochs": 25, "seed": 0},
    "eval": {"seed": 0},
    "augment": {"labels_out": None, "replace_fraction": 0.15, "pool_size": 10,
                "seed": 0},
    "classify": {"extra": None, "extra_labels": None,
                 "clauses": 1000, "T": 8000, "s": 2.0, "N": 128, "epochs": 10,
                 "seed": 0},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmembed",
        description="Two-phase Tsetlin Machine embedding pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    def add_common(p):
        p.add_argument("--config", type=_existing_file, default=None,
                       help="JSON file of flag defaults; explicit flags win")
        p.add_argument("--out", required=True, help="primary output path")
        p.add_argument("--seed", type=int, default=S)

    p = sub.add_parser("vocab", help="build a vocabulary file from a corpus")
    p.add_argument("corpus", type=_existing_file)
    p.add_argument("--max-vocab", dest="max_vocab", type=int, default=S)
    add_common(p)

    p = sub.add_parser("phase1", help="extract per-word clause knowledge")
    p.add_argument("corpus", type=_existing_file)
    p.add_argument("--vocab", type=_existing_file, default=S,
                   help="existing vocabulary file (else built from the corpus)")
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=S)
    p.add_argument("--vocab-out", dest="vocab_out", default=S,
                   help="where to write the vocabulary (default: OUT.vocab)")
    p.add_argument("--word", default=S,
                   help="retrain a single word inside the existing store at --out")
    p.add_argument("--jobs", type=int, default=S,
                   help=f"worker processes (default: ${JOBS_ENV} or 1)")
    for flag, typ in (("r", int), ("a", int), ("clauses", int), ("T", int),
                      ("s", float), ("N", int), ("epochs", int)):
        p.add_argument(f"--{flag}", type=typ, default=S)
    add_common(p)

    p = sub.add_parser("phase2", help="train embeddings for target words")
    p.add_argument("knowledge", type=_existing_file)
    p.add_argument("targets", type=_existing_file,
                   help="target words, one token per line")
    p.add_argument("--vocab", type=_existing_file, required=True)
    p.add_argument("--sparse", action="store_true", default=S)
    for flag, typ in (("r", int), ("a", int), ("clauses", int), ("T", int),
                      ("s", float), ("N", int), ("epochs", int)):
        p.add_argument(f"--{flag}", type=typ, default=S)
    add_common(p)

    p = sub.add_parser("eval", help="score embeddings against benchmarks")
    p.add_argument("embeddings", type=_existing_file)
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark files: word_a<TAB>word_b<TAB>score per line")
    add_common(p)

    p = sub.add_parser("augment", help="similarity-guided word substitution")
    p.add_argument("corpus", type=_existing_file)
    p.add_argument("labels", type=_existing_file)
    p.add_argument("--vocab", type=_existing_file, required=True)
    p.add_argument("--embeddings", type=_existing_file, required=True)
    p.add_argument("--labels-out", dest="labels_out", default=S,
                   help="aligned label file (default: OUT.labels)")
    p.add_argument("--replace-fraction", dest="replace_fraction", type=float,
                   default=S)
    p.add_argument("--pool-size", dest="pool_size", type=int, default=S)
    add_common(p)

    p = sub.add_parser("classify", help="train and evaluate the sentiment classifier")
    p.add_argument("--train", type=_existing_file, required=True)
    p.add_argument("--train-labels", dest="train_labels", type=_existing_file,
                   required=True)
    p.add_argument("--extra", type=_existing_file, default=S,
                   help="additional (augmented) training corpus")
    p.add_argument("--extra-labels", dest="extra_labels", type=_existing_file,
                   default=S)
    p.add_argument("--test", type=_existing_file, required=True)
    p.add_argument("--test-labels", dest="test_labels", type=_existing_file,
                   required=True)
    p.add_argument("--vocab", type=_existing_file, required=True)
    for flag, typ in (("clauses", int), ("T", int), ("s", float), ("N", int),
                      ("epochs", int)):
        p.add_argument(f"--{flag}", type=typ, default=S)
    add_common(p)

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(DEFAULTS[args.command])
    given = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = given.pop("config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        for key, value in file_cfg.items():
            if key not in cfg:
                raise UsageError(
                    f"{config_path}: unknown option {key!r} for command "
                    f"{args.command!r}")
            default = cfg[key]
            if isinstance(default, bool):
                cfg[key] = bool(value)
            elif isinstance(default, int):
                cfg[key] = int(value)
            elif isinstance(default, float):
                cfg[key] = float(value)
            else:
                cfg[key] = value
    cfg.update(given)
    if "jobs" in cfg:
        if "jobs" in given:
            source = "--jobs"
        elif cfg["jobs"] is not None:
            source = f"{config_path}: jobs"
        else:
            source, cfg["jobs"] = JOBS_ENV, os.environ.get(JOBS_ENV, "1")
        cfg["jobs"] = _worker_count(cfg["jobs"], source)
    return cfg


def _worker_count(value, source: str) -> int:
    """A positive integer, else a usage error naming where the value came from."""
    try:
        jobs = int(value)
    except (TypeError, ValueError):
        jobs = 0
    if jobs < 1:
        raise UsageError(f"{source} must be a positive integer, got {value!r}")
    return jobs


def _load_labeled(corpus_path, labels_path, vocab) -> list[aug.LabeledDocument]:
    raw = corp.read_corpus(corpus_path)
    labels = corp.read_labels(labels_path)
    if len(raw) != len(labels):
        raise ValueError(
            f"label/document count mismatch: {len(raw)} documents in "
            f"{corpus_path}, {len(labels)} labels in {labels_path}")
    return [aug.make_document(toks, vocab, lab) for toks, lab in zip(raw, labels)]


def cmd_vocab(cfg: dict) -> int:
    t0 = time.monotonic()
    vocab = corp.build_vocabulary(corp.read_corpus(cfg["corpus"]), cfg["max_vocab"])
    corp.save_vocabulary(vocab, cfg["out"])
    _write_manifest("vocab", cfg, [cfg["corpus"]], [cfg["out"]], t0)
    print(f"vocabulary: {vocab.size} words -> {cfg['out']}")
    return 0


def cmd_phase1(cfg: dict) -> int:
    t0 = time.monotonic()
    raw = corp.read_corpus(cfg["corpus"])
    inputs = [cfg["corpus"]]
    if cfg["vocab"]:
        vocab = corp.load_vocabulary(cfg["vocab"])
        inputs.append(cfg["vocab"])
    else:
        vocab = corp.build_vocabulary(raw, cfg["vocab_size"])
    ds = corp.vectorize(raw, vocab)
    # Training needs only ds; freed token lists stay out of the memory that
    # forked Phase-1 workers inherit.
    del raw
    p1cfg = p1.Phase1Config(r=cfg["r"], a=cfg["a"], epochs=cfg["epochs"],
                            num_clauses=cfg["clauses"], T=cfg["T"], s=cfg["s"],
                            N=cfg["N"], seed=cfg["seed"])
    outputs = [cfg["out"]]
    if cfg["word"] is not None:
        token = cfg["word"]
        if token not in vocab.index_of:
            raise ValueError(f"word {token!r} not in vocabulary")
        store = kn.load(cfg["out"], vocab)
        w = vocab.index_of[token]
        try:
            store.entries[w] = p1.train_word(ds, w, p1cfg)
            store.failures.pop(w, None)
        except ValueError as err:
            store.entries[w] = kn.WordKnowledge(word=w, clauses=())
            store.failures[w] = str(err)
        kn.save(store, cfg["out"])
        print(f"retrained {token!r} -> {cfg['out']}")
    else:
        store = p1.train_all(ds, vocab, p1cfg, parallelism=cfg["jobs"])
        kn.save(store, cfg["out"])
        vocab_out = cfg["vocab_out"] or cfg["out"] + ".vocab"
        corp.save_vocabulary(vocab, vocab_out)
        outputs.append(vocab_out)
        trained = len(store.entries) - len(store.failures)
        print(f"knowledge: {trained}/{vocab.size} words trained "
              f"({len(store.failures)} failed) -> {cfg['out']}")
        for w, msg in sorted(store.failures.items()):
            print(f"  failed {vocab.words[w]!r}: {msg}", file=sys.stderr)
    _write_manifest("phase1", cfg, inputs, outputs, t0)
    return 0


def cmd_phase2(cfg: dict) -> int:
    t0 = time.monotonic()
    vocab = corp.load_vocabulary(cfg["vocab"])
    store = kn.load(cfg["knowledge"], vocab)
    with open(cfg["targets"], encoding="utf-8") as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    missing = [t for t in tokens if t not in vocab.index_of
               or vocab.index_of[t] not in store.entries]
    if missing:
        raise ValueError(f"target words absent from store: {', '.join(missing)}")
    targets = [vocab.index_of[t] for t in tokens]
    p2cfg = p1.Phase1Config(r=cfg["r"], a=cfg["a"], epochs=cfg["epochs"],
                            num_clauses=cfg["clauses"], T=cfg["T"], s=cfg["s"],
                            N=cfg["N"], seed=cfg["seed"])
    _, emb = p2.train_embedding(store, targets, p2cfg)
    p2.save_embeddings(emb, vocab, cfg["out"], sparse=cfg["sparse"])
    _write_manifest("phase2", cfg,
                    [cfg["knowledge"], cfg["targets"], cfg["vocab"]],
                    [cfg["out"]], t0)
    print(f"embeddings: {len(targets)} words -> {cfg['out']}")
    return 0


def cmd_eval(cfg: dict) -> int:
    t0 = time.monotonic()
    tokens, rows = p2.load_embeddings(cfg["embeddings"])
    vectors = {t: rows[i] for i, t in enumerate(tokens)}
    reports = []
    loaded = [cfg["embeddings"]]
    for path in cfg["benchmarks"]:
        try:
            bench = ev.load_benchmark(path, name=os.path.basename(path))
            reports.append(ev.evaluate(vectors, bench))
            loaded.append(path)
        except (OSError, ValueError) as err:
            print(f"warning: skipping benchmark {path}: {err}", file=sys.stderr)
    if not reports:
        raise ValueError("no benchmark could be evaluated")
    text = ev.format_reports(reports)
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    _write_manifest("eval", cfg, loaded, [cfg["out"]], t0)
    return 0


def cmd_augment(cfg: dict) -> int:
    t0 = time.monotonic()
    vocab = corp.load_vocabulary(cfg["vocab"])
    docs = _load_labeled(cfg["corpus"], cfg["labels"], vocab)
    tokens, rows = p2.load_embeddings(cfg["embeddings"], num_literals=2 * vocab.size)
    known = [(t, i) for i, t in enumerate(tokens) if t in vocab.index_of]
    emb = p2.EmbeddingMatrix(
        words=tuple(vocab.index_of[t] for t, _ in known),
        rows=rows[[i for _, i in known]])
    acfg = aug.AugmentConfig(replace_fraction=cfg["replace_fraction"],
                             pool_size=cfg["pool_size"], seed=cfg["seed"])
    augmented = aug.augment_corpus(docs, emb, vocab, acfg)
    labels_out = cfg["labels_out"] or cfg["out"] + ".labels"
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        for doc in augmented:
            fh.write(" ".join(doc.tokens) + "\n")
    with open(labels_out, "w", encoding="utf-8") as fh:
        for doc in augmented:
            fh.write(f"{doc.label}\n")
    _write_manifest("augment", cfg,
                    [cfg["corpus"], cfg["labels"], cfg["vocab"], cfg["embeddings"]],
                    [cfg["out"], labels_out], t0)
    print(f"augmented {len(augmented)} documents -> {cfg['out']}")
    return 0


def cmd_classify(cfg: dict) -> int:
    t0 = time.monotonic()
    vocab = corp.load_vocabulary(cfg["vocab"])
    train_docs = _load_labeled(cfg["train"], cfg["train_labels"], vocab)
    inputs = [cfg["train"], cfg["train_labels"], cfg["vocab"],
              cfg["test"], cfg["test_labels"]]
    if cfg["extra"]:
        if not cfg["extra_labels"]:
            raise UsageError("--extra requires --extra-labels")
        train_docs += _load_labeled(cfg["extra"], cfg["extra_labels"], vocab)
        inputs += [cfg["extra"], cfg["extra_labels"]]
    test_docs = _load_labeled(cfg["test"], cfg["test_labels"], vocab)
    ccfg = aug.ClassifierConfig(num_clauses=cfg["clauses"], T=cfg["T"],
                                s=cfg["s"], N=cfg["N"], epochs=cfg["epochs"],
                                seed=cfg["seed"])
    bank = aug.train_classifier(train_docs, vocab.size, ccfg)
    acc, counts = aug.accuracy(bank, test_docs)
    lines = [f"accuracy={acc:.6f}"]
    lines += [f"{k}={v}" for k, v in sorted(counts.items())]
    text = "\n".join(lines) + "\n"
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    _write_manifest("classify", cfg, inputs, [cfg["out"]], t0)
    return 0


COMMANDS = {
    "vocab": cmd_vocab,
    "phase1": cmd_phase1,
    "phase2": cmd_phase2,
    "eval": cmd_eval,
    "augment": cmd_augment,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except UsageError as err:
        parser.error(str(err))
    try:
        return COMMANDS[args.command](cfg)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
