"""In-memory spans around tmembed's public functions, recorded at their import
sites from outside the program.

A site is a (module, attribute) pair that a caller looks up at call time, such
as `tmembed.phase1.update` (phase1's own reference to cotm.update) or
`tmembed.cli.COMMANDS["phase1"]`. Installing the tracer swaps each site for a
wrapper that appends one span per call: name, start, end, the index of the
enclosing span and the iteration it belongs to, plus a few attributes for the
sites whose work depends on their input. Uninstalling restores the originals.

The wrappers keep the wrapped function's module and qualified name, so a
wrapped `tmembed.phase1.train_word` still pickles by reference for worker
processes; spans a worker records stay in that worker and are not reported.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np


def _update_attrs(args, kwargs, result):
    bank, x = args[0], args[1]
    return {"cells": int(bank.states.size),
            "density": float(np.count_nonzero(x)) / x.shape[0]}


def _q_attr(args, kwargs, result):
    return {"q": int(args[2])}


def _active_literals(args, kwargs, result):
    return {"active": int(np.count_nonzero(result))}


# (module, attribute, span name, attribute extractor)
SITES = [
    ("tmembed.phase1", "update", "cotm.update", _update_attrs),
    ("tmembed.phase2", "update", "cotm.update", _update_attrs),
    ("tmembed.augment", "update", "cotm.update", _update_attrs),
    ("tmembed.augment", "predict", "cotm.predict", None),
    ("tmembed.phase1", "build_x_from_documents",
     "phase1.build_x_from_documents", _q_attr),
    ("tmembed.phase1", "train_word", "phase1.train_word", None),
    ("tmembed.phase1", "train_all", "phase1.train_all", None),
    ("tmembed.phase1", "from_bank", "knowledge.from_bank", None),
    ("tmembed.phase2", "filter_by_polarity", "knowledge.filter_by_polarity",
     None),
    ("tmembed.knowledge", "save", "knowledge.save", None),
    ("tmembed.knowledge", "load", "knowledge.load", None),
    ("tmembed.phase2", "build_x_phase2", "phase2.build_x_phase2",
     _active_literals),
    ("tmembed.phase2", "extract_embedding", "phase2.extract_embedding", None),
    ("tmembed.phase2", "train_embedding", "phase2.train_embedding", None),
    ("tmembed.phase2", "save_embeddings", "phase2.save_embeddings", None),
    ("tmembed.phase2", "load_embeddings", "phase2.load_embeddings", None),
    ("tmembed.augment", "nearest_words", "augment.nearest_words", None),
    ("tmembed.augment", "augment_document", "augment.augment_document", None),
    ("tmembed.augment", "augment_corpus", "augment.augment_corpus", None),
    ("tmembed.augment", "train_classifier", "augment.train_classifier", None),
    ("tmembed.augment", "accuracy", "augment.accuracy", None),
    ("tmembed.corpus", "read_corpus", "corpus.read_corpus", None),
    ("tmembed.corpus", "read_labels", "corpus.read_labels", None),
    ("tmembed.corpus", "build_vocabulary", "corpus.build_vocabulary", None),
    ("tmembed.corpus", "vectorize", "corpus.vectorize", None),
    ("tmembed.corpus", "load_vocabulary", "corpus.load_vocabulary", None),
    ("tmembed.corpus", "save_vocabulary", "corpus.save_vocabulary", None),
    ("tmembed.evaluation", "evaluate", "evaluation.evaluate", None),
    ("tmembed.evaluation", "cosine", "evaluation.cosine", None),
    ("tmembed.evaluation", "load_benchmark", "evaluation.load_benchmark", None),
]

LAYERS = ("cli", "corpus", "cotm", "phase1", "knowledge", "phase2",
          "evaluation", "augment")

NAME, START, END, PARENT, TRACE, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trace = None
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, attrs_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.trace,
                    None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[END] = perf_counter()
                span[ATTRS] = {"error": type(err).__name__}
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if attrs_fn is not None:
                span[ATTRS] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, name, attrs_fn in SITES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, attrs_fn))
        cli = importlib.import_module("tmembed.cli")
        for command, fn in list(cli.COMMANDS.items()):
            self._restore.append((cli.COMMANDS, command, fn))
            cli.COMMANDS[command] = self.wrap(fn, f"cli.{command}")

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s[PARENT],
                                     "trace": s[TRACE], "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "attrs": s[ATTRS]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
