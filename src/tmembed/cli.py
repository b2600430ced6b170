"""Batch command-line pipeline: vocab, phase1, phase2, eval, augment, classify.

Every run resolves its settings as defaults < config file (--config, JSON)
< explicit flags, writes its primary output to --out, and drops a JSON run
manifest (settings, seed, input digests, output paths, wall time) next to it.
Library settings, their types and defaults are the fields of the command's
config class; only command-specific settings are declared here.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from typing import NamedTuple, get_type_hints

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
                    outputs: list[str], t0: float, **extra) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "input_digests": {p: _sha256_file(p) for p in inputs},
        "output_paths": outputs,
        "wall_time_s": time.monotonic() - t0,
        **extra,
    }
    with open(outputs[0] + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Library settings live in these configs: each field is a flag and a
# config-file key of the same name, except where _KEYS renames it.
LIBRARY_CONFIGS = {
    "phase1": p1.Phase1Config,
    "phase2": p1.Phase1Config,
    "augment": aug.AugmentConfig,
    "classify": aug.ClassifierConfig,
}
_KEYS = {"num_clauses": "clauses"}


class Setting(NamedTuple):
    type: object  # what the flag parses; a config-file value must match it
    default: object
    help: str | None = None


# Settings that belong to one command rather than to a library config.
COMMAND_SETTINGS: dict[str, dict[str, Setting]] = {
    "vocab": {"max_vocab": Setting(int, 20000)},
    "phase1": {
        "vocab": Setting(_existing_file, None,
                         "existing vocabulary file (else built from the corpus)"),
        "vocab_size": Setting(int, 20000),
        "vocab_out": Setting(str, None,
                             "where to write the vocabulary (default: OUT.vocab)"),
        "word": Setting(str, None,
                        "retrain a single word inside the existing store at --out"),
        "jobs": Setting(int, None, f"worker processes (default: ${JOBS_ENV} or 1)"),
    },
    "phase2": {"sparse": Setting(bool, False)},
    "eval": {},
    "augment": {"labels_out": Setting(str, None,
                                      "aligned label file (default: OUT.labels)")},
    "classify": {
        "extra": Setting(_existing_file, None,
                         "additional (augmented) training corpus"),
        "extra_labels": Setting(_existing_file, None),
    },
}


def settings(command: str) -> dict[str, Setting]:
    """Every setting of a command by key: its own, then its library config's."""
    out = dict(COMMAND_SETTINGS[command])
    cls = LIBRARY_CONFIGS.get(command)
    if cls is not None:
        hints = get_type_hints(cls)
        for f in fields(cls):
            out[_KEYS.get(f.name, f.name)] = Setting(hints[f.name], f.default)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmembed",
        description="Two-phase Tsetlin Machine embedding pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    def add_settings(p, command):
        for key, s in settings(command).items():
            kind = {"action": "store_true"} if s.type is bool else {"type": s.type}
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=S,
                           help=s.help, **kind)
        p.add_argument("--config", type=_existing_file, default=None,
                       help="JSON file of flag defaults; explicit flags win")
        p.add_argument("--out", required=True, help="primary output path")

    p = sub.add_parser("vocab", help="build a vocabulary file from a corpus")
    p.add_argument("corpus", type=_existing_file)
    add_settings(p, "vocab")

    p = sub.add_parser("phase1", help="extract per-word clause knowledge")
    p.add_argument("corpus", type=_existing_file)
    add_settings(p, "phase1")

    p = sub.add_parser("phase2", help="train embeddings for target words")
    p.add_argument("knowledge", type=_existing_file)
    p.add_argument("targets", type=_existing_file,
                   help="target words, one token per line")
    p.add_argument("--vocab", type=_existing_file, required=True)
    add_settings(p, "phase2")

    p = sub.add_parser("eval", help="score embeddings against benchmarks")
    p.add_argument("embeddings", type=_existing_file)
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark files: word_a<TAB>word_b<TAB>score per line")
    add_settings(p, "eval")

    p = sub.add_parser("augment", help="similarity-guided word substitution")
    p.add_argument("corpus", type=_existing_file)
    p.add_argument("labels", type=_existing_file)
    p.add_argument("--vocab", type=_existing_file, required=True)
    p.add_argument("--embeddings", type=_existing_file, required=True)
    add_settings(p, "augment")

    p = sub.add_parser("classify", help="train and evaluate the sentiment classifier")
    p.add_argument("--train", type=_existing_file, required=True)
    p.add_argument("--train-labels", dest="train_labels", type=_existing_file,
                   required=True)
    p.add_argument("--test", type=_existing_file, required=True)
    p.add_argument("--test-labels", dest="test_labels", type=_existing_file,
                   required=True)
    p.add_argument("--vocab", type=_existing_file, required=True)
    add_settings(p, "classify")

    return parser


# The JSON types a config-file value may have, by its flag's type.
_FILE_TYPES = {bool: (bool,), int: (int,), float: (int, float)}
# Settings that must be positive integers, checked before any input is read.
_POSITIVE = ("max_vocab", "vocab_size", "jobs")


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, keyed by flag name."""
    known = settings(args.command)
    cfg = {key: s.default for key, s in known.items()}
    given = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = given.pop("config", None)
    if config_path:
        try:
            with corp.open_text(config_path) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise UsageError(f"{config_path}: {err}") from None
        except ValueError as err:  # not UTF-8: the message names path:line
            raise UsageError(str(err)) from None
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        for key, value in file_cfg.items():
            if key not in known:
                raise UsageError(
                    f"{config_path}: unknown option {key!r} for command "
                    f"{args.command!r}")
            want = _FILE_TYPES.get(known[key].type, (str,))
            if type(value) not in want:
                raise UsageError(
                    f"{config_path}: {key} must be "
                    f"{' or '.join(t.__name__ for t in want)}, got {value!r}")
            try:  # a path is checked as its flag checks it
                cfg[key] = known[key].type(value)
            except argparse.ArgumentTypeError as err:
                raise UsageError(f"{config_path}: {key}: {err}") from None
    cfg.update(given)
    for key in (k for k in _POSITIVE if k in cfg):
        source = ("--" + key.replace("_", "-") if key in given
                  else f"{config_path}: {key}")
        if cfg[key] is None:  # jobs, unset: the environment decides
            source, cfg[key] = JOBS_ENV, os.environ.get(JOBS_ENV, "1")
        cfg[key] = _positive_int(cfg[key], source)
    if "extra" in cfg and bool(cfg["extra"]) != bool(cfg["extra_labels"]):
        raise UsageError("--extra and --extra-labels must be given together")
    return cfg


def build_config(command: str, cfg: dict):
    """The command's library config from its resolved settings (else None);
    a value the config rejects is a usage error."""
    cls = LIBRARY_CONFIGS.get(command)
    try:
        return cls and cls(**{f.name: cfg[_KEYS.get(f.name, f.name)] for f in fields(cls)})
    except ValueError as err:
        raise UsageError(str(err)) from None


def _positive_int(value, source: str) -> int:
    """A positive integer, else a usage error naming where the value came from."""
    try:
        number = int(value)
    except (TypeError, ValueError):
        number = 0
    if number < 1:
        raise UsageError(f"{source} must be a positive integer, got {value!r}")
    return number


def _load_labeled(corpus_path, labels_path) -> tuple[list[list[str]], list[int]]:
    """A corpus file's token lists and its label file's aligned labels."""
    raw = corp.read_corpus(corpus_path)
    labels = corp.read_labels(labels_path)
    if len(raw) != len(labels):
        raise ValueError(
            f"label/document count mismatch: {len(raw)} documents in "
            f"{corpus_path}, {len(labels)} labels in {labels_path}")
    return raw, labels


# Each command returns its manifest's input paths, output paths and extra
# fields; `main` writes the manifest once the command has succeeded.
Ran = tuple[list[str], list[str], dict]


def cmd_vocab(cfg: dict, _: None) -> Ran:
    vocab = corp.build_vocabulary(corp.read_corpus(cfg["corpus"]), cfg["max_vocab"])
    corp.save_vocabulary(vocab, cfg["out"])
    print(f"vocabulary: {vocab.size} words -> {cfg['out']}")
    return [cfg["corpus"]], [cfg["out"]], {}


def cmd_phase1(cfg: dict, p1cfg: p1.Phase1Config) -> Ran:
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
    if cfg["word"] is not None:
        token = cfg["word"]
        if token not in vocab.index_of:
            raise ValueError(f"word {token!r} not in vocabulary")
        w = vocab.index_of[token]
        kn.replace_word(cfg["out"], vocab, w,
                        lambda: p1.train_words(ds, [w], p1cfg)[0])
        print(f"retrained {token!r} -> {cfg['out']}")
        return inputs, [cfg["out"]], {}
    store = p1.train_all(ds, vocab, p1cfg, parallelism=cfg["jobs"])
    kn.save(store, cfg["out"])
    vocab_out = cfg["vocab_out"] or cfg["out"] + ".vocab"
    corp.save_vocabulary(vocab, vocab_out)
    trained = len(store.entries) - len(store.failures)
    print(f"knowledge: {trained}/{vocab.size} words trained "
          f"({len(store.failures)} failed) -> {cfg['out']}")
    for w, msg in sorted(store.failures.items()):
        print(f"  failed {vocab.words[w]!r}: {msg}", file=sys.stderr)
    return inputs, [cfg["out"], vocab_out], {}


def cmd_phase2(cfg: dict, p2cfg: p1.Phase1Config) -> Ran:
    vocab = corp.load_vocabulary(cfg["vocab"])
    store = kn.load(cfg["knowledge"], vocab)
    lines_of: dict[str, list[int]] = {}
    with corp.open_text(cfg["targets"]) as fh:
        for n, line in enumerate(fh, 1):
            if token := line.strip():
                lines_of.setdefault(token, []).append(n)
    tokens = list(lines_of)
    missing = [t for t in tokens if t not in vocab.index_of
               or vocab.index_of[t] not in store.entries]
    if missing:
        raise ValueError(f"target words absent from store: {', '.join(missing)}")
    repeated = [f"{t!r} on lines {', '.join(map(str, ns))}"
                for t, ns in lines_of.items() if len(ns) > 1]
    if repeated:
        raise ValueError(f"{cfg['targets']}: duplicate target word "
                         + "; ".join(repeated))
    targets = [vocab.index_of[t] for t in tokens]
    stats = p2.Phase2Stats()
    _, emb = p2.train_embedding(store, targets, p2cfg, stats)
    p2.save_embeddings(emb, vocab, cfg["out"], sparse=cfg["sparse"])
    print(f"embeddings: {len(targets)} words -> {cfg['out']}")
    print(f"phase 2: {stats.skips}/{stats.attempts} word examples skipped",
          file=sys.stderr)
    for w, n in stats.skipped_words.most_common(5):
        print(f"  skipped {vocab.words[w]!r}: {n}", file=sys.stderr)
    return ([cfg["knowledge"], cfg["targets"], cfg["vocab"]], [cfg["out"]],
            {"attempts": stats.attempts, "skips": stats.skips})


def cmd_eval(cfg: dict, _: None) -> Ran:
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
    return loaded, [cfg["out"]], {}


def cmd_augment(cfg: dict, acfg: aug.AugmentConfig) -> Ran:
    vocab = corp.load_vocabulary(cfg["vocab"])
    docs, labels = _load_labeled(cfg["corpus"], cfg["labels"])
    tokens, rows = p2.load_embeddings(cfg["embeddings"], num_literals=2 * vocab.size)
    known = [(t, i) for i, t in enumerate(tokens) if t in vocab.index_of]
    emb = p2.EmbeddingMatrix(
        words=tuple(vocab.index_of[t] for t, _ in known),
        rows=rows[[i for _, i in known]])
    augmented = aug.augment_corpus(docs, labels, emb, vocab, acfg)
    labels_out = cfg["labels_out"] or cfg["out"] + ".labels"
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        for doc in augmented:
            fh.write(" ".join(doc) + "\n")
    with open(labels_out, "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(f"{label}\n")
    print(f"augmented {len(augmented)} documents -> {cfg['out']}")
    return ([cfg["corpus"], cfg["labels"], cfg["vocab"], cfg["embeddings"]],
            [cfg["out"], labels_out], {})


def cmd_classify(cfg: dict, ccfg: aug.ClassifierConfig) -> Ran:
    vocab = corp.load_vocabulary(cfg["vocab"])
    train_raw, train_labels = _load_labeled(cfg["train"], cfg["train_labels"])
    inputs = [cfg["train"], cfg["train_labels"], cfg["vocab"],
              cfg["test"], cfg["test_labels"]]
    if cfg["extra"]:
        extra_raw, extra_labels = _load_labeled(cfg["extra"], cfg["extra_labels"])
        train_raw += extra_raw
        train_labels += extra_labels
        inputs += [cfg["extra"], cfg["extra_labels"]]
    test_raw, test_labels = _load_labeled(cfg["test"], cfg["test_labels"])
    bank = aug.train_classifier(corp.vectorize(train_raw, vocab), train_labels,
                                ccfg)
    acc, counts = aug.accuracy(bank, corp.vectorize(test_raw, vocab),
                               test_labels)
    lines = [f"accuracy={acc:.6f}"]
    lines += [f"{k}={v}" for k, v in sorted(counts.items())]
    text = "\n".join(lines) + "\n"
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return inputs, [cfg["out"]], {}


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
        config = build_config(args.command, cfg)
    except UsageError as err:
        parser.error(str(err))
    t0 = time.monotonic()
    try:
        inputs, outputs, extra = COMMANDS[args.command](cfg, config)
        _write_manifest(args.command, cfg, inputs, outputs, t0, **extra)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
