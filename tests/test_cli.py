import argparse
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from tmembed import cli, corpus, knowledge
from tmembed.corpus import load_vocabulary
from conftest import make_store, sentiment_fixture


FAST = ["--r", "40", "--a", "3", "--clauses", "8", "--T", "8", "--s", "2.0",
        "--N", "8", "--epochs", "2"]


@pytest.fixture
def workdir(tmp_path):
    corpus = tmp_path / "corpus.txt"
    lines = ["sun moon star"] * 10 + ["car road fuel"] * 10
    corpus.write_text("\n".join(lines) + "\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("sun\nmoon\ncar\n")
    return tmp_path, corpus, targets


def run(args):
    return cli.main([str(a) for a in args])


def test_vocab_command(workdir):
    tmp, corpus, _ = workdir
    out = tmp / "vocab.txt"
    assert run(["vocab", corpus, "--max-vocab", 10, "--out", out]) == 0
    words = out.read_text().splitlines()
    assert sorted(words) == ["car", "fuel", "moon", "road", "star", "sun"]
    manifest = json.loads((tmp / "vocab.txt.manifest.json").read_text())
    assert manifest["command"] == "vocab"
    assert str(corpus) in manifest["input_digests"]
    assert manifest["wall_time_s"] >= 0


def pipeline(tmp, corpus, targets, seed=0, outdir=None):
    outdir = outdir or tmp
    store = outdir / "k.tmk"
    emb = outdir / "emb.txt"
    assert run(["phase1", corpus, "--vocab-size", 6, "--seed", seed,
                "--out", store] + FAST) == 0
    vocab_file = outdir / "k.tmk.vocab"
    assert vocab_file.exists()
    assert run(["phase2", store, targets, "--vocab", vocab_file,
                "--seed", seed, "--out", emb] + FAST) == 0
    return store, vocab_file, emb


def test_phase1_phase2_pipeline(workdir):
    tmp, corpus, targets = workdir
    store_path, vocab_file, emb_path = pipeline(tmp, corpus, targets)
    vocab = load_vocabulary(vocab_file)
    store = knowledge.load(store_path, vocab)
    assert set(store.entries) == set(range(6))
    lines = emb_path.read_text().splitlines()
    assert len(lines) == 3
    assert [l.split()[0] for l in lines] == ["sun", "moon", "car"]
    assert len(lines[0].split()) == 1 + 12  # token + 2V values


def test_phase2_determinism_byte_identical(workdir):
    tmp, corpus, targets = workdir
    d1 = tmp / "run1"
    d2 = tmp / "run2"
    d1.mkdir()
    d2.mkdir()
    _, _, emb1 = pipeline(tmp, corpus, targets, seed=3, outdir=d1)
    _, _, emb2 = pipeline(tmp, corpus, targets, seed=3, outdir=d2)
    assert emb1.read_bytes() == emb2.read_bytes()


def test_phase1_single_word_retrain(workdir):
    tmp, corpus, targets = workdir
    store_path, vocab_file, _ = pipeline(tmp, corpus, targets)
    vocab = load_vocabulary(vocab_file)
    before = knowledge.load(store_path, vocab)
    assert run(["phase1", corpus, "--vocab", vocab_file, "--word", "sun",
                "--seed", 99, "--out", store_path] + FAST) == 0
    after = knowledge.load(store_path, vocab)
    w = vocab.index_of["sun"]
    assert after.entries[w] != before.entries[w]
    for other in set(before.entries) - {w}:
        assert after.entries[other] == before.entries[other]


def test_phase2_missing_target_word(workdir, capsys):
    tmp, corpus, targets = workdir
    store_path, vocab_file, _ = pipeline(tmp, corpus, targets)
    bad = tmp / "bad_targets.txt"
    bad.write_text("sun\nvolcano\n")
    code = run(["phase2", store_path, bad, "--vocab", vocab_file,
                "--out", tmp / "x.txt"] + FAST)
    assert code == 1
    assert "volcano" in capsys.readouterr().err
    assert not (tmp / "x.txt").exists()
    assert not (tmp / "x.txt.manifest.json").exists()


def test_phase2_names_each_repeated_target_and_its_lines(workdir, capsys):
    tmp, corpus, targets = workdir
    store_path, vocab_file, _ = pipeline(tmp, corpus, targets)
    capsys.readouterr()
    repeated = tmp / "repeated.txt"
    repeated.write_text("sun\nmoon\nsun\ncar\n\nmoon\n")
    out = tmp / "x.txt"
    assert run(["phase2", store_path, repeated, "--vocab", vocab_file,
                "--out", out] + FAST) == 1
    assert capsys.readouterr().err == (
        f"error: {repeated}: duplicate target word 'sun' on lines 1, 3; "
        f"'moon' on lines 2, 6\n")
    assert not out.exists()
    assert not (tmp / "x.txt.manifest.json").exists()


def test_phase2_vocabulary_mismatch(workdir):
    tmp, corpus, targets = workdir
    store_path, vocab_file, _ = pipeline(tmp, corpus, targets)
    wrong = tmp / "wrong.vocab"
    wrong.write_text("alpha\nbeta\ngamma\ndelta\nepsilon\nzeta\n")
    code = run(["phase2", store_path, targets, "--vocab", wrong,
                "--out", tmp / "x.txt"] + FAST)
    assert code == 1


def test_phase2_reports_skipped_examples(tmp_path, capsys):
    # w1 has no negative-weight clause, so every q=0 example of it is
    # skipped: the count goes to stderr, naming w1, and into the manifest
    vocab, store = make_store({0: [((1,), 2), ((2, 5), -1)],
                               1: [((0, 3), 1)]}, V=4)
    store_path, vocab_file = tmp_path / "k.tmk", tmp_path / "vocab.txt"
    knowledge.save(store, store_path)
    corpus.save_vocabulary(vocab, vocab_file)
    targets = tmp_path / "targets.txt"
    targets.write_text("w0\nw1\n")
    out = tmp_path / "emb.txt"
    assert run(["phase2", store_path, targets, "--vocab", vocab_file,
                "--out", out] + FAST) == 0
    err = capsys.readouterr().err
    skips, attempts = map(int, re.search(
        r"phase 2: (\d+)/(\d+) word examples skipped", err).groups())
    assert attempts == 40 * 2 * 2 and 0 < skips < attempts / 2
    assert f"skipped 'w1': {skips}" in err and "'w0'" not in err
    manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
    assert (manifest["attempts"], manifest["skips"]) == (attempts, skips)


MANIFEST_KEYS = {"command", "config", "seed", "input_digests", "output_paths",
                 "wall_time_s"}


def assert_manifest(out, command, seed, inputs, outputs, **extra):
    """The manifest beside out names the command, its seed, every input
    with its sha256, every output in order, and the command's extras."""
    manifest = json.loads((out.parent / (out.name + ".manifest.json")).read_text())
    assert set(manifest) == MANIFEST_KEYS | set(extra)
    assert (manifest["command"], manifest["seed"]) == (command, seed)
    assert manifest["input_digests"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}
    assert manifest["output_paths"] == [str(p) for p in outputs]
    assert manifest["wall_time_s"] >= 0
    assert {key: manifest[key] for key in extra} == extra


def test_every_command_writes_its_manifest(workdir, capsys):
    tmp, corpus_path, targets = workdir
    vocab_file, store, emb = tmp / "vocab.txt", tmp / "k.tmk", tmp / "emb.txt"
    assert run(["vocab", corpus_path, "--max-vocab", 6, "--out", vocab_file]) == 0
    assert_manifest(vocab_file, "vocab", None, [corpus_path], [vocab_file])

    assert run(["phase1", corpus_path, "--vocab-size", 6, "--seed", 5,
                "--out", store] + FAST) == 0
    assert_manifest(store, "phase1", 5, [corpus_path],
                    [store, tmp / "k.tmk.vocab"])
    assert run(["phase1", corpus_path, "--vocab", vocab_file, "--seed", 5,
                "--vocab-out", tmp / "v.txt", "--out", store] + FAST) == 0
    assert_manifest(store, "phase1", 5, [corpus_path, vocab_file],
                    [store, tmp / "v.txt"])
    assert run(["phase1", corpus_path, "--vocab", vocab_file, "--word", "sun",
                "--seed", 6, "--out", store] + FAST) == 0
    assert_manifest(store, "phase1", 6, [corpus_path, vocab_file], [store])

    capsys.readouterr()
    assert run(["phase2", store, targets, "--vocab", vocab_file, "--seed", 7,
                "--out", emb] + FAST) == 0
    skips, attempts = map(int, re.search(
        r"phase 2: (\d+)/(\d+) word examples skipped",
        capsys.readouterr().err).groups())
    assert attempts == 40 * 2 * 3
    assert_manifest(emb, "phase2", 7, [store, targets, vocab_file], [emb],
                    attempts=attempts, skips=skips)

    # a benchmark that is skipped is not an input
    good, bad = tmp / "good.tsv", tmp / "bad.tsv"
    good.write_text("sun\tmoon\t9.0\nsun\tcar\t1.0\nmoon\tcar\t2.0\n")
    bad.write_text("not a benchmark\n")
    report = tmp / "report.txt"
    assert run(["eval", emb, bad, good, "--out", report]) == 0
    assert_manifest(report, "eval", None, [emb, good], [report])

    vocab, paths, svocab = sentiment_files(tmp)
    (train, train_labels), (test, test_labels) = paths["train"], paths["test"]
    semb, augmented = tmp / "sent_emb.txt", tmp / "aug.txt"
    sentiment_embeddings(vocab, semb)
    assert run(["augment", train, train_labels, "--vocab", svocab,
                "--embeddings", semb, "--seed", 8, "--out", augmented]) == 0
    assert_manifest(augmented, "augment", 8,
                    [train, train_labels, svocab, semb],
                    [augmented, tmp / "aug.txt.labels"])

    acc = tmp / "acc.txt"
    classify = ["classify", "--train", train, "--train-labels", train_labels,
                "--test", test, "--test-labels", test_labels, "--vocab",
                svocab, "--clauses", 4, "--T", 4, "--epochs", 1, "--seed", 9,
                "--out", acc]
    assert run(classify) == 0
    assert_manifest(acc, "classify", 9,
                    [train, train_labels, svocab, test, test_labels], [acc])
    assert run(classify + ["--extra", augmented, "--extra-labels",
                           tmp / "aug.txt.labels"]) == 0
    assert_manifest(acc, "classify", 9,
                    [train, train_labels, svocab, test, test_labels,
                     augmented, tmp / "aug.txt.labels"], [acc])


def test_phase2_with_no_target_words_fails_before_training(tmp_path, capsys):
    vocab, store = make_store({0: [((1,), 2), ((2, 5), -1)]}, V=4)
    store_path, vocab_file = tmp_path / "k.tmk", tmp_path / "vocab.txt"
    knowledge.save(store, store_path)
    corpus.save_vocabulary(vocab, vocab_file)
    targets = tmp_path / "targets.txt"
    targets.write_text("\n  \n")
    out = tmp_path / "emb.txt"
    assert run(["phase2", store_path, targets, "--vocab", vocab_file,
                "--out", out] + FAST) == 1
    assert capsys.readouterr().err == "error: no target words\n"
    assert not out.exists()
    assert not (tmp_path / "emb.txt.manifest.json").exists()


def test_phase2_refuses_a_format_1_store(tmp_path, capsys):
    # a store written before the clause columns: only its version differs
    # up to the first record, and nothing past the header is read
    vocab, store = make_store({0: [((1,), 2), ((2, 5), -1)]}, V=4)
    store_path, vocab_file = tmp_path / "k.tmk", tmp_path / "vocab.txt"
    knowledge.save(store, store_path)
    data = store_path.read_bytes()
    store_path.write_bytes(data[:4] + (1).to_bytes(2, "little") + data[6:])
    corpus.save_vocabulary(vocab, vocab_file)
    targets = tmp_path / "targets.txt"
    targets.write_text("w0\n")
    out = tmp_path / "emb.txt"
    assert run(["phase2", store_path, targets, "--vocab", vocab_file,
                "--out", out] + FAST) == 1
    assert capsys.readouterr().err == (
        "error: unsupported knowledge format version 1\n")
    assert not out.exists()
    assert not (tmp_path / "emb.txt.manifest.json").exists()


def test_eval_command_reports_fixture_scores(workdir, capsys):
    tmp, corpus, targets = workdir
    _, _, emb_path = pipeline(tmp, corpus, targets)
    # synthetic perfect-agreement benchmark: human scores = model cosines
    from tmembed.phase2 import load_embeddings
    from tmembed.evaluation import cosine
    tokens, rows = load_embeddings(emb_path)
    vec = dict(zip(tokens, rows))
    bench = tmp / "bench.tsv"
    bench.write_text("".join(
        f"{a}\t{b}\t{cosine(vec[a], vec[b]):.6f}\n"
        for a, b in [("sun", "moon"), ("sun", "car"), ("moon", "car")]))
    out = tmp / "report.txt"
    assert run(["eval", emb_path, bench, "--out", out]) == 0
    text = out.read_text()
    assert f"{bench.name}.spearman=1" in text
    assert f"{bench.name}.kendall=1" in text
    assert "coverage=1" in text


def test_eval_two_benchmarks_emit_average(workdir):
    tmp, corpus, targets = workdir
    _, _, emb_path = pipeline(tmp, corpus, targets)
    b1 = tmp / "b1.tsv"
    b1.write_text("sun\tmoon\t9.0\nsun\tcar\t1.0\nmoon\tcar\t2.0\n")
    b2 = tmp / "b2.tsv"
    b2.write_text("moon\tsun\t8.0\ncar\tsun\t2.0\ncar\tmoon\t1.0\n")
    out = tmp / "report.txt"
    assert run(["eval", emb_path, b1, b2, "--out", out]) == 0
    assert "Avg." in out.read_text()


def test_eval_skips_unreadable_benchmark(workdir, capsys):
    tmp, corpus, targets = workdir
    _, _, emb_path = pipeline(tmp, corpus, targets)
    good = tmp / "good.tsv"
    good.write_text("sun\tmoon\t9.0\nsun\tcar\t1.0\nmoon\tcar\t2.0\n")
    bad = tmp / "bad.tsv"
    bad.write_text("not a benchmark\n")
    out = tmp / "report.txt"
    assert run(["eval", emb_path, bad, good, "--out", out]) == 0
    assert "skipping" in capsys.readouterr().err
    assert run(["eval", emb_path, bad, "--out", tmp / "r2.txt"]) == 1
    assert not (tmp / "r2.txt.manifest.json").exists()


def sentiment_files(tmp):
    vocab, train_raw, train_labels, test_raw, test_labels = sentiment_fixture()
    paths = {}
    for name, docs, labels in [("train", train_raw, train_labels),
                               ("test", test_raw, test_labels)]:
        c = tmp / f"{name}.txt"
        c.write_text("".join(" ".join(d) + "\n" for d in docs))
        l = tmp / f"{name}.labels"
        l.write_text("".join(f"{x}\n" for x in labels))
        paths[name] = (c, l)
    vpath = tmp / "sent.vocab"
    vpath.write_text("".join(w + "\n" for w in vocab.words))
    return vocab, paths, vpath


def sentiment_embeddings(vocab, path):
    # marker pairs cluster; fillers sit on two antipodal clusters orthogonal
    # to the markers, so a filler's nearest and farthest words are fillers
    # and substitution never moves sentiment across classes
    rows = {"good": [1.0, 0.1, 0.0, 0.0], "great": [1.0, 0.15, 0.0, 0.0],
            "bad": [0.1, 1.0, 0.0, 0.0], "awful": [0.12, 1.0, 0.0, 0.0]}
    filler_axis = 0
    with open(path, "w") as fh:
        for w in vocab.words:
            if w in rows:
                row = rows[w]
            else:
                filler_axis += 1
                sign = 1.0 if filler_axis % 2 else -1.0
                row = [0.0, 0.0, sign, 0.01 * filler_axis]
            fh.write(w + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def test_augment_and_classify_commands(tmp_path, capsys):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    test_c, test_l = paths["test"]
    emb_path = tmp_path / "emb.txt"
    sentiment_embeddings(vocab, emb_path)
    aug_out = tmp_path / "augmented.txt"
    assert run(["augment", train_c, train_l, "--vocab", vpath,
                "--embeddings", emb_path, "--pool-size", 1, "--seed", 1,
                "--out", aug_out]) == 0
    aug_lines = aug_out.read_text().splitlines()
    assert len(aug_lines) == len(train_c.read_text().splitlines())
    labels_out = tmp_path / "augmented.txt.labels"
    assert labels_out.read_text() == train_l.read_text()

    report = tmp_path / "report.txt"
    code = run(["classify", "--train", train_c, "--train-labels", train_l,
                "--extra", aug_out, "--extra-labels", labels_out,
                "--test", test_c, "--test-labels", test_l,
                "--vocab", vpath, "--clauses", 20, "--T", 20, "--s", 3.0,
                "--N", 32, "--epochs", 10, "--seed", 0, "--out", report])
    assert code == 0
    text = report.read_text()
    acc = float(text.splitlines()[0].split("=")[1])
    assert acc >= 0.95
    assert "positive_total=" in text and "negative_total=" in text


def test_augment_determinism(tmp_path):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    emb_path = tmp_path / "emb.txt"
    sentiment_embeddings(vocab, emb_path)
    out1 = tmp_path / "a1.txt"
    out2 = tmp_path / "a2.txt"
    for out in (out1, out2):
        assert run(["augment", train_c, train_l, "--vocab", vpath,
                    "--embeddings", emb_path, "--seed", 4, "--out", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_augment_rejects_corrupt_embeddings(tmp_path, capsys):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    emb_path = tmp_path / "emb.txt"
    sentiment_embeddings(vocab, emb_path)
    lines = emb_path.read_text().splitlines()
    emb_path.write_text("\n".join(lines + [lines[0]]) + "\n")
    code = run(["augment", train_c, train_l, "--vocab", vpath,
                "--embeddings", emb_path, "--out", tmp_path / "a.txt"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duplicate token" in err


NON_FINITE_EMBEDDINGS = {"sparse": "good 0:1\nbad 0:{} 1:1\ngreat 1:1\n",
                         "dense": "good 1 0\nbad {} 1\ngreat 0 1\n"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cells", ["sparse", "dense"])
@pytest.mark.parametrize("command", ["eval", "augment"])
def test_eval_and_augment_reject_a_non_finite_embedding_value(
        tmp_path, capsys, command, cells, value):
    _, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text(NON_FINITE_EMBEDDINGS[cells].format(value))
    bench = tmp_path / "pairs.tsv"
    bench.write_text("good\tgreat\t9\ngood\tbad\t1\nbad\tgreat\t2\n")
    out = tmp_path / "out.txt"
    args = (["eval", emb_path, bench] if command == "eval" else
            ["augment", train_c, train_l, "--vocab", vpath,
             "--embeddings", emb_path])
    assert run(args + ["--out", out]) == 1
    assert capsys.readouterr().err == f"error: {emb_path}:2: non-finite value\n"
    assert not out.exists()
    assert not (tmp_path / "out.txt.manifest.json").exists()


@pytest.mark.parametrize("cells", ["sparse", "dense"])
def test_augment_rejects_embeddings_wider_than_the_vocabulary(tmp_path, capsys,
                                                             cells):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    emb_path = tmp_path / "emb.txt"
    wide = 2 * vocab.size + 1
    emb_path.write_text("good 0:1\nbad " + (
        f"0:1 {wide - 1}:1" if cells == "sparse" else " ".join(["1"] * wide))
        + "\n")
    out = tmp_path / "a.txt"
    code = run(["augment", train_c, train_l, "--vocab", vpath,
                "--embeddings", emb_path, "--out", out])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {emb_path}:2: row is {wide} literals wide, more than "
        f"{2 * vocab.size}\n")
    assert not out.exists()


def test_classify_label_count_mismatch(tmp_path, capsys):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    test_c, test_l = paths["test"]
    short = tmp_path / "short.labels"
    short.write_text("1\n0\n")
    code = run(["classify", "--train", train_c, "--train-labels", short,
                "--test", test_c, "--test-labels", test_l,
                "--vocab", vpath, "--out", tmp_path / "r.txt"])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_classify_with_an_empty_test_set_fails(tmp_path, capsys):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    empty_c, empty_l = tmp_path / "empty.txt", tmp_path / "empty.labels"
    empty_c.write_text("")
    empty_l.write_text("")
    report = tmp_path / "r.txt"
    code = run(["classify", "--train", train_c, "--train-labels", train_l,
                "--test", empty_c, "--test-labels", empty_l,
                "--vocab", vpath, "--clauses", 4, "--T", 4, "--epochs", 1,
                "--out", report])
    assert code == 1
    assert capsys.readouterr().err == "error: no documents to score\n"
    assert not report.exists()
    assert not (tmp_path / "r.txt.manifest.json").exists()


@pytest.mark.parametrize("text, line, message", [
    ("1\n\npos\n", 3, "invalid literal for int() with base 10: 'pos'"),
    ("0\n2\n", 2, "label must be 0 or 1, got 2"),
], ids=["not_an_int", "not_0_or_1"])
def test_classify_names_the_line_of_a_bad_label(tmp_path, capsys, text, line,
                                                message):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, _ = paths["train"]
    test_c, test_l = paths["test"]
    bad = tmp_path / "bad.labels"
    bad.write_text(text)
    code = run(["classify", "--train", train_c, "--train-labels", bad,
                "--test", test_c, "--test-labels", test_l,
                "--vocab", vpath, "--out", tmp_path / "r.txt"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"


def test_eval_names_the_line_of_a_bad_score(tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("sun 1 0\nmoon 1 1\ncar 0 1\n")
    good = tmp_path / "good.tsv"
    good.write_text("sun\tmoon\t9\nsun\tcar\t1\nmoon\tcar\t5\n")
    bad = tmp_path / "p.tsv"
    bad.write_text("sun\tmoon\t9\ngood\tbad\tx\n")
    assert run(["eval", emb, bad, good, "--out", tmp_path / "r.txt"]) == 0
    assert capsys.readouterr().err == (
        f"warning: skipping benchmark {bad}: {bad}:2: "
        f"could not convert string to float: 'x'\n")


@pytest.mark.parametrize("command, key", [("vocab", "max_vocab"),
                                          ("phase1", "vocab_size")])
@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("given_by", ["flag", "config"])
def test_vocabulary_size_below_one_is_usage_error_before_reading_input(
        workdir, capsys, monkeypatch, command, key, value, given_by):
    tmp, corpus_path, _ = workdir
    monkeypatch.setattr(corpus, "read_corpus",
                        lambda path: pytest.fail("the corpus was read"))
    argv = [command, corpus_path, "--out", tmp / "out"]
    if given_by == "flag":
        source = "--" + key.replace("_", "-")
        argv += [source, value]
    else:
        cfgfile = tmp / "cfg.json"
        cfgfile.write_text(json.dumps({key: value}))
        source = f"{cfgfile}: {key}"
        argv += ["--config", cfgfile]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"{source} must be a positive integer, got {value}" in (
        capsys.readouterr().err)


def test_missing_corpus_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["vocab", str(tmp_path / "nope.txt"),
                  "--out", str(tmp_path / "v.txt")])
    assert exc.value.code == 2


def test_unknown_config_key_is_usage_error(workdir):
    tmp, corpus, _ = workdir
    cfgfile = tmp / "cfg.json"
    cfgfile.write_text('{"bogus_option": 1}')
    with pytest.raises(SystemExit) as exc:
        run(["vocab", corpus, "--config", cfgfile, "--out", tmp / "v.txt"])
    assert exc.value.code == 2


def test_config_file_applies_and_flags_override(workdir):
    tmp, corpus, _ = workdir
    cfgfile = tmp / "cfg.json"
    cfgfile.write_text('{"max_vocab": 2}')
    out = tmp / "v1.txt"
    assert run(["vocab", corpus, "--config", cfgfile, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 2
    out2 = tmp / "v2.txt"
    assert run(["vocab", corpus, "--config", cfgfile, "--max-vocab", 4,
                "--out", out2]) == 0
    assert len(out2.read_text().splitlines()) == 4


def test_jobs_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv(cli.JOBS_ENV, "3")
    parser = cli.build_parser()
    args = parser.parse_args(["phase1", __file__, "--out", "x"])
    cfg = cli.resolve_config(args)
    assert cfg["jobs"] == 3


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_flag_is_usage_error(workdir, capsys, jobs):
    tmp, corpus, _ = workdir
    out = tmp / "k.tmk"
    with pytest.raises(SystemExit) as exc:
        run(["phase1", corpus, "--jobs", jobs, "--out", out] + FAST)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", ""])
def test_malformed_jobs_environment_is_usage_error(workdir, capsys,
                                                   monkeypatch, value):
    tmp, corpus, _ = workdir
    monkeypatch.setenv(cli.JOBS_ENV, value)
    with pytest.raises(SystemExit) as exc:
        run(["phase1", corpus, "--out", tmp / "k.tmk"] + FAST)
    assert exc.value.code == 2
    assert cli.JOBS_ENV in capsys.readouterr().err


def test_nonpositive_jobs_in_config_file_is_usage_error(workdir, capsys):
    tmp, corpus, _ = workdir
    cfgfile = tmp / "cfg.json"
    cfgfile.write_text('{"jobs": 0}')
    with pytest.raises(SystemExit) as exc:
        run(["phase1", corpus, "--config", cfgfile, "--out", tmp / "k.tmk"]
            + FAST)
    assert exc.value.code == 2
    assert "jobs" in capsys.readouterr().err


def resolved(command, *argv, config=None):
    """A command's resolved settings and built library config, for argv."""
    argv = [command, *map(str, argv), "--out", "x"]
    if config is not None:
        argv += ["--config", str(config)]
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    return cfg, cli.build_config(command, cfg)


# Input files each command requires; resolving settings only checks that
# they exist, so this test file stands in for all of them.
HERE = __file__
REQUIRED = {
    "phase1": [HERE],
    "phase2": [HERE, HERE, "--vocab", HERE],
    "augment": [HERE, HERE, "--vocab", HERE, "--embeddings", HERE],
    "classify": ["--train", HERE, "--train-labels", HERE, "--test", HERE,
                 "--test-labels", HERE, "--vocab", HERE],
}


def test_classifier_defaults_echo_reference_setup():
    d, _ = resolved("classify", *REQUIRED["classify"])
    assert (d["clauses"], d["T"], d["s"], d["epochs"]) == (1000, 8000, 2.0, 10)
    p1, _ = resolved("phase1", *REQUIRED["phase1"])
    assert (p1["r"], p1["a"], p1["clauses"], p1["T"], p1["s"], p1["epochs"]) \
        == (2000, 25, 1600, 3200, 5.0, 25)


# The long options scripts rely on; vocab and eval draw nothing at random
# and take no --seed.
BANK_FLAGS = ["--N", "--T", "--clauses", "--epochs", "--s", "--seed"]
COMMON_FLAGS = ["--config", "--help", "--out"]
LONG_OPTIONS = {
    "vocab": ["--max-vocab"],
    "phase1": ["--a", "--jobs", "--r", "--vocab", "--vocab-out", "--vocab-size",
               "--word"] + BANK_FLAGS,
    "phase2": ["--a", "--r", "--sparse", "--vocab"] + BANK_FLAGS,
    "eval": [],
    "augment": ["--embeddings", "--labels-out", "--pool-size",
                "--replace-fraction", "--seed", "--vocab"],
    "classify": ["--extra", "--extra-labels", "--test", "--test-labels",
                 "--train", "--train-labels", "--vocab"] + BANK_FLAGS,
}


def test_each_subcommand_keeps_its_long_options():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    got = {command: {o for a in p._actions for o in a.option_strings
                     if o.startswith("--")}
           for command, p in subparsers.items()}
    assert got == {command: set(flags + COMMON_FLAGS)
                   for command, flags in LONG_OPTIONS.items()}


@pytest.mark.parametrize("command", ["phase1", "phase2", "augment", "classify"])
def test_every_config_field_is_set_by_flag_and_by_config_file(tmp_path,
                                                              command):
    cls = cli.LIBRARY_CONFIGS[command]
    # a distinct valid value per field, so a value landing in the wrong
    # field shows
    want = {f.name: f.default * 0.75 if isinstance(f.default, float)
            else f.default + 1 + i
            for i, f in enumerate(dataclasses.fields(cls))}
    keys = {name: "clauses" if name == "num_clauses" else name for name in want}
    flags = [arg for name, value in want.items()
             for arg in ("--" + keys[name].replace("_", "-"), value)]
    _, by_flag = resolved(command, *REQUIRED[command], *flags)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({keys[n]: v for n, v in want.items()}))
    _, by_file = resolved(command, *REQUIRED[command], config=config)
    for built in (by_flag, by_file):
        assert type(built) is cls
        assert dataclasses.asdict(built) == want


@pytest.mark.parametrize("command,text,key", [
    ("phase2", '{"sparse": "false"}', "sparse"),
    ("phase1", '{"r": 2.7}', "r"),
    ("phase1", '{"jobs": 2.5}', "jobs"),
    ("phase1", '{"r": "abc"}', "r"),
    ("phase1", '{"r": true}', "r"),
    ("phase1", '{"vocab_out": 3}', "vocab_out"),
    ("classify", '{"s": [2]}', "s"),
    ("phase1", '{"r": 2', None),
    ("phase1", '{"vocab": "missing.txt"}', "vocab: no such file: missing.txt"),
    ("classify", '{"extra": "missing.txt", "extra_labels": "missing.txt"}',
     "extra: no such file: missing.txt"),
    ("classify", '{"extra_labels": "missing.txt", "extra": "missing.txt"}',
     "extra_labels: no such file: missing.txt"),
])
def test_config_file_value_of_the_wrong_type_is_usage_error(
        tmp_path, command, text, key):
    # main turns a UsageError from resolving settings into exit status 2
    config = tmp_path / "cfg.json"
    config.write_text(text)
    with pytest.raises(cli.UsageError) as exc:
        resolved(command, *REQUIRED[command], config=config)
    assert str(exc.value).startswith(f"{config}: {key or ''}")


def test_config_file_numbers_take_their_setting_type(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"s": 3, "r": 7, "jobs": 2}')
    cfg, p1cfg = resolved("phase1", *REQUIRED["phase1"], config=config)
    assert (cfg["s"], cfg["r"], cfg["jobs"]) == (3.0, 7, 2)
    assert type(p1cfg.s) is float


@pytest.mark.parametrize("flags,message", [
    (["--clauses", 0], "num_clauses"),
    (["--T", 0], "T "),
    (["--N", 0], "N "),
    (["--N", 2**30], "N must be <= 1073741823"),
    (["--s", 1.0], "s must be > 1"),
    (["--seed", -1], "seed must be >= 0"),
], ids=["clauses", "T", "N", "N-beyond-int32", "s", "seed"])
def test_phase1_rejects_bad_bank_settings_before_training(workdir, capsys,
                                                          flags, message):
    tmp, corpus, _ = workdir
    out = tmp / "k.tmk"
    with pytest.raises(SystemExit) as exc:
        run(["phase1", corpus, "--vocab-size", 6, "--out", out] + FAST + flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not (tmp / "k.tmk.vocab").exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
def test_phase1_rejects_a_vocabulary_file_without_tokens(workdir, capsys,
                                                         text):
    tmp, corpus, _ = workdir
    empty = tmp / "empty.txt"
    empty.write_text(text)
    out = tmp / "k.tmk"
    assert run(["phase1", corpus, "--vocab", empty, "--out", out] + FAST) == 1
    assert capsys.readouterr().err == \
        f"error: {empty}: vocabulary has no tokens\n"
    assert not out.exists() and not (tmp / "k.tmk.vocab").exists()
    assert not (tmp / "k.tmk.manifest.json").exists()


def test_phase1_names_a_token_its_vocabulary_file_repeats(workdir, capsys):
    tmp, corpus, _ = workdir
    repeated = tmp / "repeated.txt"
    repeated.write_text("sun\nmoon\nsun\n")
    out = tmp / "k.tmk"
    assert run(["phase1", corpus, "--vocab", repeated, "--out", out] + FAST) == 1
    assert capsys.readouterr().err == \
        f"error: {repeated}:3: duplicate token 'sun' (first on line 1)\n"
    assert not out.exists() and not (tmp / "k.tmk.vocab").exists()


def test_phase2_rejects_bad_bank_settings_before_training(workdir, capsys):
    tmp, corpus, targets = workdir
    store, vocab_file, _ = pipeline(tmp, corpus, targets)
    out = tmp / "emb2.txt"
    with pytest.raises(SystemExit) as exc:
        run(["phase2", store, targets, "--vocab", vocab_file, "--out", out]
            + FAST + ["--clauses", 0])
    assert exc.value.code == 2
    assert "num_clauses" in capsys.readouterr().err
    assert not out.exists()


def test_classify_extra_labels_without_extra_is_usage_error(tmp_path, capsys):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, train_l = paths["train"]
    test_c, test_l = paths["test"]
    out = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--train", train_c, "--train-labels", train_l,
             "--extra-labels", train_l, "--test", test_c,
             "--test-labels", test_l, "--vocab", vpath, "--out", out])
    assert exc.value.code == 2
    assert "--extra" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--clauses", 0], "num_clauses"),
    (["--T", 0], "T "),
    (["--N", 0], "N "),
    (["--N", 2**30], "N must be <= 1073741823"),
    (["--epochs", 0], "epochs"),
    (["--s", 1.0], "s must be > 1"),
    (["--seed", -1], "seed must be >= 0"),
], ids=["clauses", "T", "N", "N-beyond-int32", "epochs", "s", "seed"])
def test_classify_rejects_bad_bank_settings_before_reading_inputs(
        tmp_path, capsys, flags, message):
    vocab, paths, vpath = sentiment_files(tmp_path)
    train_c, _ = paths["train"]
    test_c, test_l = paths["test"]
    short = tmp_path / "short.labels"  # reading the inputs would exit 1
    short.write_text("1\n0\n")
    out = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--train", train_c, "--train-labels", short,
             "--test", test_c, "--test-labels", test_l, "--vocab", vpath,
             "--out", out] + flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["phase1", "phase2", "classify"])
def test_s_nan_is_a_usage_error(workdir, capsys, command, via):
    # NaN fails every comparison, so "s <= 1" let it through
    tmp, corpus, targets = workdir
    fast = FAST[:FAST.index("--s")] + FAST[FAST.index("--s") + 2:]
    out = tmp / "out.txt"
    if command == "phase1":
        argv = ["phase1", corpus, "--vocab-size", 6, "--out", out] + fast
    elif command == "phase2":
        store, vocab_file, _ = pipeline(tmp, corpus, targets)
        argv = ["phase2", store, targets, "--vocab", vocab_file,
                "--out", out] + fast
    else:
        _, paths, vpath = sentiment_files(tmp)
        argv = ["classify", "--train", paths["train"][0], "--train-labels",
                paths["train"][1], "--test", paths["test"][0],
                "--test-labels", paths["test"][1], "--vocab", vpath,
                "--out", out]
    if via == "flag":
        argv += ["--s", "nan"]
    else:
        config = tmp / "nan.json"
        config.write_text('{"s": NaN}')
        argv += ["--config", config]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "s must be > 1" in capsys.readouterr().err
    assert not out.exists() and not (tmp / "out.txt.vocab").exists()
    assert not (tmp / "out.txt.manifest.json").exists()


def test_phase1_word_retrain_twice_in_one_process_is_byte_identical(workdir):
    tmp, corpus, targets = workdir
    store_path, vocab_file, _ = pipeline(tmp, corpus, targets)
    batch = store_path.read_bytes()
    retrain = ["phase1", corpus, "--vocab", vocab_file, "--word", "sun",
               "--out", store_path] + FAST
    for _ in range(2):
        assert run(retrain + ["--seed", 0]) == 0
        assert store_path.read_bytes() == batch
    assert run(retrain + ["--seed", 99]) == 0
    once = store_path.read_bytes()
    assert once != batch
    assert run(retrain + ["--seed", 99]) == 0
    assert store_path.read_bytes() == once


def test_phase1_word_rejects_a_failure_message_that_is_not_utf8(tmp_path,
                                                               capsys):
    # "the" is in every document, so the store records its failure
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(["the sun moon"] * 10 + ["the car road"] * 10)
                      + "\n")
    vocab_file = tmp_path / "v.txt"
    store_path = tmp_path / "k.tmk"
    assert run(["phase1", corpus, "--vocab-size", 5, "--vocab-out", vocab_file,
                "--out", store_path] + FAST) == 0
    word = vocab_file.read_text().split().index("the")
    data = store_path.read_bytes()
    bad = data.index(f"no non-supporting documents for word {word}".encode())
    store_path.write_bytes(data[:bad] + b"\xff" + data[bad + 1:])
    damaged = store_path.read_bytes()
    capsys.readouterr()
    assert run(["phase1", corpus, "--vocab", vocab_file, "--word", "sun",
                "--out", store_path] + FAST) == 1
    assert capsys.readouterr().err == (
        f"error: corrupt knowledge file: failure message of word {word} at "
        f"byte {bad} is not UTF-8 (last good word index: "
        f"{word - 1 if word else None})\n")
    assert store_path.read_bytes() == damaged


def test_phase1_word_rejects_every_cut_of_the_store(workdir, capsys):
    tmp, corpus, targets = workdir
    vocab_file = tmp / "v.txt"
    store_path = tmp / "k.tmk"
    assert run(["phase1", corpus, "--vocab-size", 3, "--vocab-out", vocab_file,
                "--out", store_path] + FAST) == 0
    data = store_path.read_bytes()
    capsys.readouterr()
    for n in range(len(data)):
        store_path.write_bytes(data[:n])
        assert run(["phase1", corpus, "--vocab", vocab_file, "--word",
                    "car", "--out", store_path] + FAST) == 1
        assert capsys.readouterr().err.startswith("error: corrupt knowledge file: ")
        assert store_path.read_bytes() == data[:n]
    assert sorted(p.name for p in tmp.iterdir()) == [
        "corpus.txt", "k.tmk", "k.tmk.manifest.json", "targets.txt", "v.txt"]


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    """One valid input of every text kind a command reads, by name."""
    tmp = tmp_path_factory.mktemp("text_inputs")
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(["sun moon star"] * 10
                                + ["car road fuel"] * 10) + "\n")
    targets = tmp / "targets.txt"
    targets.write_text("sun\nmoon\ncar\n")
    store, vocab_file, emb = pipeline(tmp, corpus, targets)
    bench = tmp / "pairs.tsv"
    bench.write_text("sun\tmoon\t9.0\nsun\tcar\t1.0\nmoon\tcar\t2.0\n")
    vocab, paths, svocab = sentiment_files(tmp)
    semb = tmp / "sent_emb.txt"
    sentiment_embeddings(vocab, semb)
    config = tmp / "config.json"
    config.write_text('{\n  "seed": 1\n}\n')
    return {"corpus": corpus, "targets": targets, "store": store,
            "vocab": vocab_file, "emb": emb, "bench": bench,
            "train": paths["train"][0], "train_labels": paths["train"][1],
            "test": paths["test"][0], "test_labels": paths["test"][1],
            "svocab": svocab, "semb": semb, "config": config}


# Each command's arguments; "@name" stands for the text input of that name.
TEXT_COMMANDS = {
    "vocab": ["vocab", "@corpus"],
    "phase1": ["phase1", "@corpus", "--vocab", "@vocab"] + FAST,
    "phase2": ["phase2", "@store", "@targets", "--vocab", "@vocab"] + FAST,
    "eval": ["eval", "@emb", "@bench"],
    "augment": ["augment", "@train", "@train_labels", "--vocab", "@svocab",
                "--embeddings", "@semb"],
    "classify": ["classify", "--train", "@train", "--train-labels",
                 "@train_labels", "--test", "@test", "--test-labels",
                 "@test_labels", "--vocab", "@svocab", "--clauses", "4",
                 "--epochs", "1"],
}


def run_with_a_bad_byte(text_inputs, tmp_path, command, name, extra=()):
    """Run the command with a 0xff byte at the end of line 2 of one input,
    a copy of the named one; returns the copy's path."""
    bad = tmp_path / text_inputs[name].name
    lines = text_inputs[name].read_bytes().split(b"\n")
    lines[1] += b"\xff"
    bad.write_bytes(b"\n".join(lines))
    files = {**text_inputs, name: bad}
    argv = [files[a[1:]] if a.startswith("@") else a
            for a in TEXT_COMMANDS[command] + list(extra)]
    return bad, run(argv + ["--out", tmp_path / "out"])


@pytest.mark.parametrize("command, name", [
    ("vocab", "corpus"), ("phase1", "corpus"), ("phase1", "vocab"),
    ("phase2", "targets"), ("phase2", "vocab"), ("eval", "emb"),
    ("eval", "bench"), ("augment", "train"), ("augment", "train_labels"),
    ("augment", "svocab"), ("augment", "semb"), ("classify", "train"),
    ("classify", "train_labels"), ("classify", "test"),
    ("classify", "svocab")])
def test_input_that_is_not_utf8_names_its_path_and_line(
        text_inputs, tmp_path, capsys, command, name):
    bad, code = run_with_a_bad_byte(text_inputs, tmp_path, command, name)
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: not UTF-8 (invalid start byte: byte 0xff)" in err
    assert "Traceback" not in err
    # no output and no manifest: the bad copy is all there is
    assert [p.name for p in tmp_path.iterdir()] == [bad.name]


@pytest.mark.parametrize("command", sorted(TEXT_COMMANDS))
def test_config_file_that_is_not_utf8_is_usage_error(
        text_inputs, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_with_a_bad_byte(text_inputs, tmp_path, command, "config",
                            ["--config", "@config"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'config.json'}:2: not UTF-8" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()
