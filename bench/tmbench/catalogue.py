"""Every metric the harness reports: unit, better direction, kind, meaning.

Kinds: "time" and "rate" are measured with a clock and reported at reference
host speed (see hostspeed.py); "quality" readouts are exact functions of the
seed; "memory" is the getrusage peak; "ratio" divides two measurements;
"computed" values are counted from inputs and shapes, repeat exactly at a
fixed seed, and are never evidence of a speed-up.
BENCHMARK.json lists the same names and units (checked by test_bench_smoke).
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    meaning: str


END_TO_END = [
    Metric("setup_s", "s", "lower", "time",
           "median time to generate and write the inputs"),
    Metric("pipeline_s", "s", "lower", "time",
           "median wall time of all timed stages of one chain"),
    Metric("phase1_updates_per_s", "1/s", "higher", "rate",
           "Phase-1 updates (words x epochs x r) per second of Phase-1 wall"),
    Metric("phase2_examples_per_s", "1/s", "higher", "rate",
           "Phase-2 word-examples attempted per second of phase2 wall"),
    Metric("retrain_word_s", "s", "lower", "time",
           "wall time of `phase1 --word` on an existing store"),
    Metric("augment_docs_per_s", "1/s", "higher", "rate",
           "documents augmented per second of augment wall"),
    Metric("classify_docs_per_s", "1/s", "higher", "rate",
           "(train + extra) x epochs + test documents per second of classify"),
    Metric("peak_rss_mb", "MB", "lower", "memory",
           "getrusage peak RSS of the run plus that of its largest child"),
    Metric("planted_spearman", "rho", "higher", "quality",
           "Spearman of embedding cosine vs planted same-topic pair scores"),
    Metric("planted_margin", "cosine", "higher", "quality",
           "mean same-topic pair cosine minus mean cross-topic pair cosine"),
    Metric("classify_accuracy", "fraction", "higher", "quality",
           "held-out accuracy after training on train + augmented documents"),
    Metric("success_ratio", "fraction", "higher", "ratio",
           "1 - failed_ratio: share of attempted operations that succeeded"),
]


def _m(name, unit, kind="time", better="lower", meaning=""):
    return Metric(name, unit, better, kind, meaning)


PER_LAYER = [
    _m("cotm.update.calls", "count", "computed"),
    _m("cotm.update.p50_us", "us"),
    _m("cotm.update.p99_us", "us"),
    _m("cotm.update.busy_s", "s"),
    _m("cotm.update.cells", "count", "computed",
       meaning="clauses x 2V summed over update calls"),
    _m("cotm.update.input_density", "fraction", "computed",
       meaning="mean share of ones in update inputs"),
    _m("cotm.predict.calls", "count", "computed"),
    _m("cotm.predict.p50_us", "us"),
    _m("cotm.predict.busy_s", "s"),
    _m("phase1.build_x_from_documents.q0_p50_us", "us"),
    _m("phase1.build_x_from_documents.q1_p50_us", "us"),
    _m("phase1.build_x_from_documents.busy_s", "s"),
    _m("phase1.train_all_s", "s",
       meaning="untraced train_all at jobs=1 in the dispatch probe"),
    _m("phase1.pickled_bytes_per_word", "B", "computed",
       meaning="len(pickle.dumps((ds, word, cfg))) of the probe corpus"),
    _m("phase1.jobs2_speedup", "x", "ratio", "higher",
       "train_all wall at jobs=1 over jobs=2, same probe inputs"),
    _m("knowledge.save_s", "s"),
    _m("knowledge.load_s", "s"),
    _m("knowledge.store_bytes", "B", "computed"),
    _m("knowledge.from_bank.busy_s", "s"),
    _m("knowledge.filter_by_polarity.calls", "count", "computed"),
    _m("knowledge.filter_by_polarity.busy_s", "s"),
    _m("phase2.build_x_phase2.calls", "count", "computed"),
    _m("phase2.build_x_phase2.p50_us", "us"),
    _m("phase2.build_x_phase2.busy_s", "s"),
    _m("phase2.active_literals_mean", "count", "computed"),
    _m("phase2.skip_ratio", "fraction", "computed"),
    _m("phase2.extract_embedding_s", "s"),
    _m("phase2.save_embeddings_s", "s"),
    _m("phase2.load_embeddings_s", "s"),
    _m("augment.nearest_words.calls", "count", "computed"),
    _m("augment.nearest_words.p50_us", "us"),
    _m("augment.nearest_words.busy_s", "s"),
    _m("augment.augment_document.busy_s", "s"),
    _m("augment.train_classifier_s", "s"),
    _m("augment.accuracy_s", "s"),
    _m("corpus.read_corpus_s", "s"),
    _m("corpus.build_vocabulary_s", "s"),
    _m("corpus.vectorize_s", "s"),
    _m("evaluation.evaluate_s", "s"),
    _m("evaluation.cosine.calls", "count", "computed"),
    *[_m(f"cli.{c}_s", "s") for c in
      ("vocab", "phase1", "phase2", "eval", "augment", "classify")],
    _m("cli.self_s", "s",
       meaning="command wall minus wrapped library time: parsing, manifest "
               "sha256, writes"),
    *[_m(f"{layer}.self_s", "s", meaning="self time of the layer's spans")
      for layer in ("corpus", "cotm", "phase1", "knowledge", "phase2",
                    "evaluation", "augment")],
    _m("trace.overhead_ratio", "x", "ratio",
       meaning="traced pipeline_s over untraced pipeline_s, same run"),
]
