"""End-to-end command tests driven through run(argv)."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
import zlib
from collections import Counter

import numpy as np
import pytest
from conftest import PREFIX_SIZE, read_checkpoint_file, write_checkpoint_file

from revdict.cli import _gloss_frequencies, run
from revdict.corpus import load_definitions
from revdict.embeddings import rank_by_cosine
from revdict.tokenizer import (
    MergeTable,
    build_word_vocab,
    segment_tokens,
    segment_word,
    unsegment_text,
)
from revdict import trainer
from revdict.trainer import META_KEYS, load_checkpoint, save_checkpoint

SUMMARY = re.compile(r"^median_rank=\S+ acc@10=\S+ acc@100=\S+ rank_variance=\S+$")

HEADS = ["cat", "dog", "bee", "ox", "mouse", "horse", "liner"]
IN_LENGTH_ORDER = sorted(HEADS, key=len)  # the order a checkpoint stores them in

DEFS = """\
cat\tsmall domesticated feline
dog\tloyal domesticated animal
mouse\tsmall rodent animal
horse\tlarge riding animal
bee\tsmall buzzing insect
liner\tlarge ocean ship
ox\tlarge plow animal
"""

DEV = """\
cat\tsmall feline pet
horse\tanimal for riding
liner\tlarge ship
"""

CROSSWORDS = """\
clue,answer
small feline,cat
large riding animal,horse
"""


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(11)
    lines = []
    for word in HEADS:
        values = " ".join(str(float(v)) for v in rng.normal(size=6))
        lines.append(f"{word} {values}")
    (tmp_path / "vecs.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "defs.tsv").write_text(DEFS)
    (tmp_path / "dev.tsv").write_text(DEV)
    (tmp_path / "cw.csv").write_text(CROSSWORDS)
    return tmp_path


def rewrite_checkpoint(
    source, target, meta=None, drop_meta=None, drop=None, arrays=None, raw=None, patch=None, add=None
):
    """Copy a checkpoint with ``add[name]`` added as array ``name``, ``arrays[name]`` applied to array ``name``
    (its shape and CRC-32 follow), ``raw[name]`` applied to its bytes (its header entry kept) or array ``drop``
    dropped; then with the header's meta updated (a callable value is applied to the old one) and ``drop_meta``
    removed; then ``patch`` the written file's bytes."""
    header, data = read_checkpoint_file(source)
    for name, array in (add or {}).items():
        data[name] = array.tobytes()
        header["arrays"][name] = {"shape": list(array.shape), "crc32": zlib.crc32(data[name])}
    for name, edit in (arrays or {}).items():
        array = edit(np.frombuffer(data[name]).reshape(header["arrays"][name]["shape"]))
        data[name] = array.tobytes()
        header["arrays"][name] = {"shape": list(array.shape), "crc32": zlib.crc32(data[name])}
    for name, edit in (raw or {}).items():
        data[name] = edit(data[name])
    if drop is not None:
        del data[drop], header["arrays"][drop]
    for key, value in (meta or {}).items():
        header[key] = value(header[key]) if callable(value) else value
    header.pop(drop_meta, None)
    write_checkpoint_file(target, header, data)
    if patch is not None:
        target.write_bytes(patch(target.read_bytes()))


def array_start(path, name):
    """The file offset of array ``name``'s first byte in the checkpoint at ``path``."""
    header, _ = read_checkpoint_file(path)
    start = PREFIX_SIZE + int.from_bytes(path.read_bytes()[8:16], "little")
    return start + sum(8 * math.prod(entry["shape"]) for key, entry in header["arrays"].items() if key < name)


def array_entry(name, **entry):
    """A ``rewrite_checkpoint`` meta edit of the header's ``arrays`` that replaces array ``name``'s entry."""
    return {"arrays": lambda layout: {**layout, name: entry}}


def first_entry(value):
    """A ``rewrite_checkpoint`` array edit that sets the array's first entry to ``value``."""

    def edit(array):
        array = array.copy()
        array.flat[0] = value
        return array

    return edit


def write_config(tmp_path, **overrides):
    entries = {
        "train": tmp_path / "defs.tsv",
        "dev": tmp_path / "dev.tsv",
        "embeddings": tmp_path / "vecs.txt",
        "learning_rate": 0.05,
        "epochs": 2,
        "minibatch": 4,
        "bucket": 8,
        "seed": 7,
        "encoder_mode": "average",
        "embed_dim": 6,
        "hidden_size": 5,
    }
    entries.update(overrides)
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return path


class TestUsageErrors:
    def test_exit_codes_for_bad_invocations(self, tmp_path):
        assert run([]) == 1
        assert run(["fly"]) == 1
        assert run(["learn-bpe"]) == 1
        assert run(["learn-bpe", "--input", "x", "--output", "y", "--nope", "1"]) == 1
        assert run(["query", "--checkpoint", "x", "--topk", "0"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "revdict" in capsys.readouterr().out

    def test_missing_input_is_a_data_error(self, tmp_path):
        assert run(["learn-bpe", "--input", str(tmp_path / "no.tsv"), "--output", str(tmp_path / "m.txt")]) == 2

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["learn-bpe"], "no tab line\n", "no definition pairs"),
            (["stats"], "\n", "no definition pairs"),
            (["stats", "--mode", "crossword"], "clue,answer\nbig cat,snow leopard\n", "no usable clues"),
        ],
        ids=["learn-bpe", "stats", "stats-crossword"],
    )
    def test_input_with_nothing_usable_is_a_data_error(self, tmp_path, capsys, command, text, message):
        source = tmp_path / "in.txt"
        source.write_text(text)
        assert run(command + ["--input", str(source), "--output", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == f"data error: {source}: {message}\n"
        assert not (tmp_path / "out.txt").exists()


class TestSegmentationCommands:
    def test_learn_apply_roundtrip(self, workspace):
        merges = workspace / "merges.txt"
        assert run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "20", "--output", str(merges)]) == 0
        rows = merges.read_text().splitlines()
        assert 0 < len(rows) <= 20
        assert all(len(row.split(" ")) == 2 for row in rows)

        segmented = workspace / "seg.tsv"
        assert run(["apply-bpe", "--input", str(workspace / "defs.tsv"), "--merges", str(merges), "--output", str(segmented)]) == 0
        originals, _ = load_definitions(workspace / "defs.tsv")
        out_lines = segmented.read_text().splitlines()
        assert len(out_lines) == len(originals)
        for line, pair in zip(out_lines, originals):
            head, _, gloss = line.partition("\t")
            assert head == pair.head
            assert unsegment_text(gloss) == " ".join(pair.gloss)

    def test_apply_segments_each_word_once_and_writes_what_per_token_segmentation_writes(self, workspace, monkeypatch):
        # the merges are learned on DEFS alone, so the added lines hold words the table never saw
        merges, defs = workspace / "merges.txt", workspace / "more.tsv"
        assert run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "15", "--output", str(merges)]) == 0
        defs.write_text(DEFS + "cat\tsmall small feline feline feline\nzebra\tstriped wild equine quagga\n")
        pairs, _ = load_definitions(defs)
        table = MergeTable.load(merges)
        expected = "".join(f"{pair.head}\t{' '.join(segment_tokens(pair.gloss, table))}\n" for pair in pairs)
        calls = []

        def counting(word, table):
            calls.append(word)
            return segment_word(word, table)

        monkeypatch.setattr("revdict.tokenizer.segment_word", counting)
        segmented = workspace / "seg.tsv"
        assert run(["apply-bpe", "--input", str(defs), "--merges", str(merges), "--output", str(segmented)]) == 0
        assert segmented.read_bytes() == expected.encode("utf-8")
        assert sorted(calls) == sorted({w for pair in pairs for w in pair.gloss})
        assert len(calls) < sum(len(pair.gloss) for pair in pairs)

    def test_build_vocab_word_and_bpe(self, workspace):
        vocab_path = workspace / "vocab.txt"
        assert run(["build-vocab", "--input", str(workspace / "defs.tsv"), "--output", str(vocab_path), "--cap", "6"]) == 0
        rows = [line.split("\t") for line in vocab_path.read_text().splitlines()]
        assert [idx for _, idx in rows] == [str(i) for i in range(6 + 2)]  # cap counts content tokens, unk and pad ride on top
        assert [token for token, _ in rows[-2:]] == ["<unk>", "<pad>"]

        # bpe segmentation needs the merge table
        assert run(["build-vocab", "--input", str(workspace / "defs.tsv"), "--output", str(vocab_path), "--segmentation", "bpe"]) == 1
        merges = workspace / "merges.txt"
        run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "5", "--output", str(merges)])
        assert run(["build-vocab", "--input", str(workspace / "defs.tsv"), "--output", str(vocab_path), "--segmentation", "bpe", "--merges", str(merges)]) == 0
        rows = [line.split("\t") for line in vocab_path.read_text().splitlines()]
        assert [idx for _, idx in rows] == [str(i) for i in range(len(rows))]
        assert {"<unk>", "<pad>"} < {token for token, _ in rows}

    def test_each_word_type_is_segmented_once(self, workspace, monkeypatch):
        # the counts come from one segmentation per word type, weighted by its
        # count; they and the vocabulary file must equal segmenting every
        # occurrence, also for a table of no merges (every word split into letters)
        defs = workspace / "defs.tsv"
        defs.write_text(DEFS + "cat\tsmall small feline feline feline\nox\tlarge large animal\n")
        pairs, _ = load_definitions(defs)
        merges, no_merges = workspace / "merges.txt", workspace / "no_merges.txt"
        assert run(["learn-bpe", "--input", str(defs), "--merges", "15", "--output", str(merges)]) == 0
        no_merges.write_text("")
        calls = []

        def counting(word, table):
            calls.append(word)
            return segment_word(word, table)

        monkeypatch.setattr("revdict.tokenizer.segment_word", counting)
        vocab_path, expected_path = workspace / "vocab.txt", workspace / "expected.txt"
        for path in (merges, no_merges):
            table = MergeTable.load(path)
            per_occurrence = Counter(t for pair in pairs for t in segment_tokens(pair.gloss, table))
            calls.clear()
            assert _gloss_frequencies(pairs, table) == per_occurrence
            assert sorted(calls) == sorted({w for pair in pairs for w in pair.gloss})
            build_word_vocab(per_occurrence).save(expected_path)
            argv = ["build-vocab", "--input", str(defs), "--output", str(vocab_path), "--segmentation", "bpe"]
            assert run(argv + ["--merges", str(path)]) == 0
            assert vocab_path.read_bytes() == expected_path.read_bytes()


@pytest.mark.parametrize(
    "command",
    [["learn-bpe", "--merges", "20"], ["apply-bpe"], ["build-vocab"], ["stats"]],
    ids=["learn-bpe", "apply-bpe", "build-vocab", "stats"],
)
def test_definitions_commands_note_the_lines_they_reject(workspace, capsys, command):
    # the count goes to stderr, in eval's wording; what the command writes is what the clean file gives
    noisy, merges = workspace / "noisy.tsv", workspace / "merges.txt"
    noisy.write_text(DEFS + "no tab line\ntwo heads\tlarge animal\n")
    assert run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "5", "--output", str(merges)]) == 0
    if command[0] == "apply-bpe":
        command = command + ["--merges", str(merges)]
    written = {}
    for source in ("defs.tsv", "noisy.tsv"):
        capsys.readouterr()
        assert run(command + ["--input", str(workspace / source), "--output", str(workspace / "out.txt")]) == 0
        written[source] = (workspace / "out.txt").read_bytes(), capsys.readouterr().err
    assert written["defs.tsv"][1] == "" and written["noisy.tsv"][1] == "rejected 2 malformed lines\n"
    assert written["noisy.tsv"][0] == written["defs.tsv"][0]


class TestStats:
    def test_definitions_histogram(self, workspace):
        out = workspace / "hist.tsv"
        assert run(["stats", "--input", str(workspace / "defs.tsv"), "--output", str(out)]) == 0
        assert out.read_text() == "3\t7\n"

    def test_crossword_histogram(self, workspace):
        out = workspace / "hist.tsv"
        assert run(["stats", "--input", str(workspace / "cw.csv"), "--output", str(out), "--mode", "crossword"]) == 0
        assert out.read_text() == "3\t1\n5\t1\n"


class TestTrainEvalQuery:
    def test_train_writes_checkpoint_and_metrics(self, workspace, capsys):
        config = write_config(workspace)
        ckpt = workspace / "model.ckpt"
        assert run(["train", "--config", str(config), "--output", str(ckpt)]) == 0
        assert ckpt.exists()
        metrics = (workspace / "model.ckpt.metrics").read_text().splitlines()
        assert len(metrics) == 2
        for epoch, line in enumerate(metrics, start=1):
            left, _, right = line.partition("\t")
            assert int(left) == epoch
            float(right)
        assert "dev median_rank" in capsys.readouterr().out

    def test_train_is_reproducible_and_seed_sensitive(self, workspace):
        config = write_config(workspace)
        a, b, c = (workspace / name for name in ("a.ckpt", "b.ckpt", "c.ckpt"))
        assert run(["train", "--config", str(config), "--output", str(a)]) == 0
        assert run(["train", "--config", str(config), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (workspace / "a.ckpt.metrics").read_text() == (workspace / "b.ckpt.metrics").read_text()
        assert run(["train", "--config", str(config), "--output", str(c), "--seed", "9"]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_train_config_errors(self, workspace, capsys):
        config = write_config(workspace, learning_rate=-1)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
        config = write_config(workspace, segmentation="bpe")  # no merges path given
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
        config = write_config(workspace, dataset="full")  # no crosswords path given
        capsys.readouterr()
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
        assert capsys.readouterr().err == "config error: dataset=full needs a crosswords path in the config\n"

    def test_bpe_checkpoint_with_an_empty_merge_table_answers(self, workspace, capsys, monkeypatch):
        # an empty merge table is saved as a table, so eval and query segment with it
        merges, ckpt = workspace / "merges.txt", workspace / "model.ckpt"
        assert run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "0", "--output", str(merges)]) == 0
        assert merges.read_text() == ""
        config = write_config(workspace, segmentation="bpe", merges=merges, epochs=1)
        assert run(["train", "--config", str(config), "--output", str(ckpt)]) == 0
        assert load_checkpoint(ckpt).merges.merges == []
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(ckpt), "--test", str(workspace / "dev.tsv")]) == 0
        assert SUMMARY.match(capsys.readouterr().out.splitlines()[-1])
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        assert run(["query", "--checkpoint", str(ckpt), "--topk", "3"]) == 0
        assert len(self.query_blocks(capsys)[0]) == 3

    def test_non_finite_learning_rate_is_a_config_error(self, workspace, capsys):
        for value in ("nan", "inf"):
            config = write_config(workspace, learning_rate=value)
            assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
            assert f"config error: learning_rate must be positive and finite, got {value}" in capsys.readouterr().err
        assert not (workspace / "m.ckpt").exists()

    def test_negative_seed_is_refused(self, workspace, capsys):
        config = write_config(workspace)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt"), "--seed", "-1"]) == 1
        assert "usage error: argument --seed: must be >= 0" in capsys.readouterr().err
        config = write_config(workspace, seed=-1)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
        assert capsys.readouterr().err == "config error: seed must be nonnegative, got -1\n"
        assert not (workspace / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "case",
        ["learn-bpe", "train-definitions", "train-dev", "train-crosswords", "train-vectors", "apply-bpe-merges",
         "eval-crosswords", "config", "query-stdin", "query-stdin-escaped"],
    )
    def test_undecodable_input_is_named(self, workspace, trained, capsys, monkeypatch, case):
        # each file is a valid one with a line holding byte 0xe9, which no UTF-8 text has alone
        bad = workspace / "bad.txt"
        out = str(workspace / "out.txt")
        train = ["train", "--output", str(workspace / "m.ckpt"), "--config"]
        cases = {  # the text the bad file extends, and the command that reads it
            "learn-bpe": (DEFS, lambda: ["learn-bpe", "--input", str(bad), "--output", out]),
            "train-definitions": (DEFS, lambda: train + [str(write_config(workspace, train=bad))]),
            "train-dev": (DEV, lambda: train + [str(write_config(workspace, dev=bad))]),
            "train-crosswords": (
                CROSSWORDS, lambda: train + [str(write_config(workspace, dataset="full", crosswords=bad))]
            ),
            "train-vectors": (
                (workspace / "vecs.txt").read_text(), lambda: train + [str(write_config(workspace, embeddings=bad))]
            ),
            "apply-bpe-merges": (
                "a b\n", lambda: ["apply-bpe", "--input", str(workspace / "defs.tsv"), "--merges", str(bad), "--output", out]
            ),
            "eval-crosswords": (
                CROSSWORDS, lambda: ["eval", "--checkpoint", str(trained), "--test", str(bad), "--mode", "crossword"]
            ),
            "config": (write_config(workspace).read_text(), lambda: train + [str(bad)]),
            "query-stdin": ("", lambda: ["query", "--checkpoint", str(trained)]),
            "query-stdin-escaped": ("", lambda: ["query", "--checkpoint", str(trained)]),
        }
        valid, command = cases[case]
        bad.write_bytes(valid.encode() + b"caf\xe9 feline\n")
        argv = command()
        source = bad
        if case == "query-stdin":
            source = "standard input"
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"small feline\ncaf\xe9\n"), encoding="utf-8"))
        if case == "query-stdin-escaped":
            # a stdin decoded with surrogateescape (C locale, UTF-8 mode) hands byte 0xe9 over as U+DCE9
            source = "standard input"
            monkeypatch.setattr("sys.stdin", io.StringIO("caf\udce9 small\n"))
        capsys.readouterr()
        expected = 1 if case == "config" else 2
        assert run(argv) == expected
        kind = "config error" if case == "config" else "data error"
        assert capsys.readouterr().err == f"{kind}: {source}: not UTF-8 text (byte 0xe9 does not decode)\n"
        assert not (workspace / "m.ckpt").exists()

    def test_train_missing_data_file(self, workspace):
        config = write_config(workspace, train=workspace / "absent.tsv")
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 2

    @pytest.mark.parametrize("case", ["output-directory", "missing-directory", "metrics-directory"])
    def test_unusable_output_is_refused_before_training(self, workspace, capsys, monkeypatch, case):
        # found only at the save, the fault would cost the whole run and the message would name the temporary file
        config = write_config(workspace)
        output = workspace / ("absent" if case == "missing-directory" else "") / "model.ckpt"
        if case == "output-directory":
            output.mkdir()
        if case == "metrics-directory":
            (workspace / "model.ckpt.metrics").mkdir()
        message = {
            "output-directory": f"{output}: is a directory",
            "missing-directory": f"{output}: directory {workspace / 'absent'} does not exist",
            "metrics-directory": f"{output}.metrics: is a directory",
        }[case]
        calls = []
        monkeypatch.setattr("revdict.cli.train", lambda *args: calls.append(args))
        before = sorted(workspace.rglob("*"))
        assert run(["train", "--config", str(config), "--output", str(output)]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert calls == []
        assert sorted(workspace.rglob("*")) == before

    def test_rank_loss_on_a_one_row_table_is_refused(self, workspace, capsys):
        # a negative is drawn from the rows other than the target, so one vector leaves none
        vectors = workspace / "vecs.txt"
        vectors.write_text(vectors.read_text().splitlines()[0] + "\n")
        config = write_config(workspace, loss_kind="rank")
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 2
        message = "data error: rank loss needs at least two pretrained vectors to draw negatives, got 1"
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert list(workspace.glob("*m.ckpt*")) == []

    def test_non_finite_loss_exits_three(self, workspace, capsys):
        # a finite learning rate so large that the first Adam step overflows
        # the parameters to inf; the next batch's gate pre-activations are then
        # inf or nan, which is reported at the first step that holds one
        config = write_config(workspace, learning_rate=1e308, epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 3
        assert "numeric error: epoch 1 batch 1: non-finite LSTM pre-activation" in capsys.readouterr().err
        assert not (workspace / "m.ckpt").exists()

    def test_saturating_learning_rate_exits_three(self, workspace, capsys):
        # 1e300 leaves the parameters finite but overflows the LSTM input
        # projection; the saturated gates would hide it behind a finite loss
        config = write_config(workspace, learning_rate=1e300, epochs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 3
        err = capsys.readouterr().err
        assert "numeric error: epoch 1 batch 1: non-finite LSTM pre-activation" in err
        # the named error is the only report: no raw numpy overflow warning precedes it
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (workspace / "m.ckpt").exists()

    def test_train_prints_load_counters(self, workspace, capsys):
        config = write_config(workspace, epochs=1)
        clean = workspace / "clean.ckpt"
        assert run(["train", "--config", str(config), "--output", str(clean)]) == 0
        assert "embeddings: 7 vectors (0 malformed, 0 non-finite, 0 zero-norm, 0 duplicate rows dropped)" in (
            capsys.readouterr().err
        )
        extra = workspace / "extra_vecs.txt"
        extra.write_text((workspace / "vecs.txt").read_text() + "emu inf 0 0 0 0 0\n")
        config = write_config(workspace, embeddings=extra, epochs=1)
        with_inf = workspace / "with_inf.ckpt"
        assert run(["train", "--config", str(config), "--output", str(with_inf)]) == 0
        assert "embeddings: 7 vectors (0 malformed, 1 non-finite, 0 zero-norm, 0 duplicate rows dropped)" in (
            capsys.readouterr().err
        )
        assert with_inf.read_bytes() == clean.read_bytes()

    def test_train_prints_crossword_counters(self, workspace, capsys):
        (workspace / "cw.csv").write_text(CROSSWORDS + "small feline,cat\nbig cat,snow leopard\n,\n")
        config = write_config(workspace, dataset="full", crosswords=workspace / "cw.csv", epochs=1)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 0
        err = capsys.readouterr().err
        assert "crosswords: 2 clues (1 duplicate, 1 multi-word answer, 1 empty rows dropped)" in err

    @pytest.mark.parametrize("block, found, plan", [
        (None, True, r"\d+ threads, 1 in training, Adam serial"),  # the table is one Adam block
        (16, True, r"\d+ threads, 1 in training, Adam overlapped"),
        (16, False, r"threads unknown, Adam serial"),
    ])
    def test_train_prints_its_blas_line(self, workspace, capsys, monkeypatch, block, found, plan):
        # the load record names the numpy and BLAS build, the caller's BLAS thread count,
        # the count training runs at and whether Adam overlaps the next batch
        controls = trainer._openblas_threads()
        if found and controls is None:
            pytest.skip("numpy's bundled OpenBLAS thread controls are not found")
        monkeypatch.setattr(trainer, "_openblas_threads", lambda: controls if found else None)
        if block is not None:
            monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        config = write_config(workspace, epochs=1)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("blas:")]
        assert len(lines) == 1
        assert re.fullmatch(rf"blas: numpy {re.escape(np.__version__)}, [^,]+, {plan}", lines[0])

    def test_non_finite_embeddings_are_a_data_error(self, workspace, capsys):
        bad = workspace / "bad_vecs.txt"
        bad.write_text("".join(f"{w} inf inf inf inf inf inf\n" for w in HEADS))
        config = write_config(workspace, embeddings=bad, epochs=1)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {bad}: no usable embedding rows (0 malformed, 7 non-finite, 0 zero-norm)\n"

    @pytest.fixture
    def trained(self, workspace):
        config = write_config(workspace)
        ckpt = workspace / "model.ckpt"
        assert run(["train", "--config", str(config), "--output", str(ckpt)]) == 0
        return ckpt

    def test_eval_definitions_summary_and_records(self, workspace, trained, capsys):
        ranks = workspace / "ranks.tsv"
        assert run(["eval", "--checkpoint", str(trained), "--test", str(workspace / "dev.tsv"), "--output", str(ranks)]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert SUMMARY.match(out)
        rows = ranks.read_text().splitlines()
        assert len(rows) == 3
        assert all(len(row.split("\t")) == 3 for row in rows)

    def test_eval_crossword_mode(self, workspace, trained, capsys):
        assert run(["eval", "--checkpoint", str(trained), "--test", str(workspace / "cw.csv"), "--mode", "crossword"]) == 0
        assert SUMMARY.match(capsys.readouterr().out.strip().splitlines()[-1])

    @pytest.mark.parametrize(
        "mode, text, notes",
        [
            (
                "definitions",
                DEV + "no tab line\nemu\tflightless bird\n",
                "rejected 1 malformed lines\nskipped 1 items without pretrained vectors\n",
            ),
            (
                "crossword",
                CROSSWORDS + "small feline,cat\nflightless bird,emu\n",
                "dropped 1 unusable clue rows\nskipped 1 items without pretrained vectors\n",
            ),
        ],
        ids=["definitions", "crossword"],
    )
    def test_eval_notes_what_it_leaves_out(self, workspace, trained, capsys, mode, text, notes):
        test = workspace / "test.txt"
        test.write_text(text)
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(trained), "--test", str(test), "--mode", mode]) == 0
        out, err = capsys.readouterr()
        assert SUMMARY.match(out.strip())
        assert err == notes

    def test_eval_bad_checkpoint(self, workspace):
        bogus = workspace / "bogus.ckpt"
        bogus.write_text("not a checkpoint")
        assert run(["eval", "--checkpoint", str(bogus), "--test", str(workspace / "dev.tsv")]) == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(meta={"version": 99}), "checkpoint version 99 is not 5"),
            (dict(meta={"version": None}), "checkpoint version None is not 5"),
            (dict(drop_meta="config"), "checkpoint meta has no 'config'"),
            (dict(drop="param/fwd.u"), "checkpoint has no array 'param/fwd.u'"),
            (dict(drop="pretrained"), "checkpoint has no 2-D array 'pretrained'"),
            (dict(arrays={"param/emb": lambda a: a[:-1]}), "array 'param/emb' is float64 (14, 6), expected float64 (15, 6)"),
            # the encoder mode is the config's, so the second direction's arrays are missing
            (dict(meta={"config": lambda c: {**c, "encoder_mode": "bidirectional"}}), "checkpoint has no array 'param/bwd.w'"),
            # the PAD id is the vocabulary's
            (dict(meta={"vocab": lambda v: [t for t in v if t != "<pad>"]}), "vocabulary has no <pad>"),
            # one gate's (E, H) block where the fused (E, 4H) matrix belongs, as a version-1 array
            (dict(arrays={"param/fwd.w": lambda a: a[:, :5]}), "array 'param/fwd.w' is float64 (6, 5), expected float64 (6, 20)"),
            # one row short of the average mode's (H, D) projection
            (dict(arrays={"param/proj.w": lambda a: a[:-1]}), "array 'param/proj.w' is float64 (4, 6), expected float64 (5, 6)"),
            # version 2 stored the pretrained rows in file order
            (dict(meta={"version": 2}), "checkpoint version 2 is not 5"),
            # version 3 stored the mode, the PAD and UNK ids and the vocabulary cap in its meta
            (dict(meta={"version": 3}), "checkpoint version 3 is not 5"),
            (
                dict(meta={"pretrained_words": IN_LENGTH_ORDER[::-1]}, arrays={"pretrained": lambda a: a[::-1]}),
                "array 'pretrained': table rows are not in word-length order",
            ),
            (
                dict(raw={"pretrained": lambda data: data[:-1] + bytes([data[-1] ^ 1])}),
                "array 'pretrained' fails its CRC-32 check",
            ),
            (dict(patch=lambda data: data[:-1]), "array 'pretrained' runs past the end of the file"),
            # a format-4 checkpoint is a zip archive, which begins PK
            (dict(patch=lambda data: b"PK\x03\x04" + data[4:]), "not a revdict checkpoint"),
            # a header as long as the whole file
            (
                dict(patch=lambda data: data[:8] + len(data).to_bytes(8, "little") + data[16:]),
                "checkpoint header runs past the end of the file",
            ),
            (
                dict(patch=lambda data: data[: PREFIX_SIZE + 1] + b"X" + data[PREFIX_SIZE + 2 :]),
                "checkpoint header fails its CRC-32 check",
            ),
            (
                dict(patch=lambda data: data + b"\0\0"),
                lambda size: f"checkpoint is {size} bytes, but its header describes {size - 2}",
            ),
            (dict(drop_meta="arrays"), "checkpoint meta has no 'arrays'"),
            (dict(meta={"arrays": []}), "checkpoint meta 'arrays' is not an object"),
            (
                dict(meta=array_entry("param/emb", crc32=0)),
                "array 'param/emb' has no shape of nonnegative integers in the header",
            ),
            (
                dict(meta=array_entry("param/emb", shape=[-15, 6], crc32=0)),
                "array 'param/emb' has no shape of nonnegative integers in the header",
            ),
            # a dimension left out: the arrays after it no longer reach the end of the file
            (
                dict(meta=array_entry("param/emb", shape=[15], crc32=0)),
                lambda size: f"checkpoint is {size} bytes, but its header describes {size - 600}",
            ),
            # the average mode has no second direction
            (
                dict(add={"param/bwd.w": np.zeros((6, 20))}),
                "checkpoint has an array 'param/bwd.w' that its layout does not list",
            ),
            # version 3 kept the mode in its meta
            (dict(meta={"mode": "final"}), "checkpoint meta has an unknown key 'mode'"),
            (dict(meta={"merges": [["a"]]}), "checkpoint merge ['a'] is not a pair of strings"),
            (dict(meta={"merges": [[1, 2]]}), "checkpoint merge [1, 2] is not a pair of strings"),
            (dict(meta={"merges": [["a", "b"], "ab"]}), "checkpoint merge 'ab' is not a pair of strings"),
            # no input token can match an integer
            (dict(meta={"vocab": lambda v: [7] + v[1:]}), "checkpoint 'vocab' is not a list of strings"),
            (dict(meta={"vocab": "<unk><pad>"}), "checkpoint 'vocab' is not a list of strings"),
            (
                dict(meta={"pretrained_words": lambda w: [7] + w[1:]}),
                "checkpoint 'pretrained_words' is not a list of strings",
            ),
            # a JSON bool is no integer, and a list is no number
            (
                dict(meta={"config": lambda c: {**c, "hidden_size": True}}),
                "unreadable checkpoint (hidden_size must be int, got True)",
            ),
            (
                dict(meta={"config": lambda c: {**c, "minibatch": []}}),
                "unreadable checkpoint (minibatch must be int, got [])",
            ),
            # a bpe checkpoint segments every query with its merge table, even an empty one
            (
                dict(meta={"config": lambda c: {**c, "segmentation": "bpe"}}),
                "checkpoint segmentation is bpe but it has no merge table",
            ),
            # json reads Infinity and NaN, and a fraction or a bool is no epoch
            (dict(meta={"epoch": float("inf")}), "checkpoint epoch inf is not a nonnegative integer"),
            (dict(meta={"epoch": 2.5}), "checkpoint epoch 2.5 is not a nonnegative integer"),
            (dict(meta={"epoch": True}), "checkpoint epoch True is not a nonnegative integer"),
            (dict(meta={"dev_median_rank": float("nan")}), "checkpoint dev_median_rank nan is not a finite number"),
        ],
        ids=[
            "version", "no-version", "meta-key", "param-array", "no-pretrained", "emb-shape", "mode", "pad-id", "gate-shape",
            "proj-shape", "version-2", "version-3", "table-order", "crc", "past-eof", "magic", "header-past-eof",
            "header-crc", "trailing", "no-arrays", "arrays-type", "entry-no-shape",
            "entry-negative-dimension", "entry-missing-dimension", "extra-array", "meta-unknown-key",
            "merge-single", "merge-integers", "merge-string", "vocab-integer", "vocab-string", "word-integer",
            "config-bool", "config-list", "bpe-without-merges", "epoch-infinity", "epoch-fraction", "epoch-bool",
            "dev-median-nan",
        ],
    )
    def test_malformed_checkpoint_is_a_data_error(self, workspace, trained, capsys, monkeypatch, edit, message):
        broken = workspace / "broken.ckpt"
        rewrite_checkpoint(trained, broken, **edit)
        if callable(message):  # it names the broken file's size
            message = message(broken.stat().st_size)
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        capsys.readouterr()
        assert run(["query", "--checkpoint", str(broken)]) == 2
        assert capsys.readouterr().err == f"data error: {broken}: {message}\n"
        argv = ["eval", "--checkpoint", str(broken), "--test", str(workspace / "dev.tsv")]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"data error: {broken}: {message}\n"

    def test_non_finite_model_output_exits_three(self, workspace, trained, capsys, monkeypatch):
        # a nan projection bias would make every encoded vector nan; query and
        # eval refuse the checkpoint with a numeric error instead of a traceback
        broken = workspace / "nan.ckpt"
        rewrite_checkpoint(trained, broken, arrays={"param/proj.b": first_entry(np.nan)})  # save refuses it
        message = f"numeric error: {broken}: array 'param/proj.b' has a non-finite entry\n"
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        assert run(["query", "--checkpoint", str(broken)]) == 3
        assert capsys.readouterr().err == message
        for mode, test in (("definitions", "dev.tsv"), ("crossword", "cw.csv")):
            argv = ["eval", "--checkpoint", str(broken), "--test", str(workspace / test), "--mode", mode]
            assert run(argv) == 3
            assert capsys.readouterr().err == message

    def test_zero_encoded_vector_exits_three(self, workspace, trained, capsys, monkeypatch):
        # a zero projection encodes every gloss as the zero vector, whose cosines are all 0/0
        broken = workspace / "zero.ckpt"
        rewrite_checkpoint(trained, broken, arrays=dict.fromkeys(("param/proj.w", "param/proj.b"), np.zeros_like))
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        argvs = [["query", "--checkpoint", str(broken)]] + [
            ["eval", "--checkpoint", str(broken), "--test", str(workspace / test), "--mode", mode]
            for mode, test in (("definitions", "dev.tsv"), ("crossword", "cw.csv"))
        ]
        for argv in argvs:
            capsys.readouterr()
            assert run(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines()[-1] == "numeric error: zero-norm query vector", argv
            assert err.count("numeric error") == 1

    def test_non_finite_query_with_an_absent_length_exits_three(self, workspace, trained, capsys, monkeypatch):
        # no word has 4 letters, but the model is still checked
        broken = workspace / "nan.ckpt"
        rewrite_checkpoint(trained, broken, arrays={"param/proj.b": first_entry(np.nan)})  # save refuses it
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline --length 4\n"))
        assert run(["query", "--checkpoint", str(broken)]) == 3
        assert capsys.readouterr().err == f"numeric error: {broken}: array 'param/proj.b' has a non-finite entry\n"

    @pytest.mark.parametrize(
        "name, value",
        [("param/proj.b", np.inf), ("param/proj.b", -np.inf), ("param/proj.w", np.inf), ("param/fwd.u", np.nan)],
        ids=["proj.b-inf", "proj.b-minus-inf", "proj.w-inf", "fwd.u-nan"],
    )
    def test_non_finite_parameter_exits_three(self, workspace, trained, capsys, monkeypatch, name, value):
        # tanh saturates an inf to a finite output that ranks like any other,
        # so query and eval refuse the checkpoint before answering anything
        broken = workspace / "broken.ckpt"
        rewrite_checkpoint(trained, broken, arrays={name: first_entry(value)})
        message = f"numeric error: {broken}: array {name!r} has a non-finite entry\n"
        capsys.readouterr()
        for line in ("small feline\n", "small feline --length 4\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(line))
            assert run(["query", "--checkpoint", str(broken)]) == 3
            assert tuple(capsys.readouterr()) == ("", message)
        for mode, test in (("definitions", "dev.tsv"), ("crossword", "cw.csv")):
            argv = ["eval", "--checkpoint", str(broken), "--test", str(workspace / test), "--mode", mode]
            assert run(argv) == 3
            assert tuple(capsys.readouterr()) == ("", message)

    def test_overflowing_lstm_exits_three(self, workspace, trained, capsys, monkeypatch):
        # huge input weights and embeddings overflow the gate pre-activations;
        # query and eval name the error instead of answering from saturated gates
        checkpoint = load_checkpoint(trained)
        checkpoint.model.lstms[0].w[:] = 1e300
        emb = checkpoint.model.embeddings
        emb.matrix = np.full(emb.matrix.shape, 1e10)  # the loaded matrix is a read-only mapping of the file
        broken = workspace / "overflow.ckpt"
        save_checkpoint(broken, checkpoint)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
            assert run(["query", "--checkpoint", str(broken)]) == 3
            assert capsys.readouterr().err == "numeric error: non-finite LSTM pre-activation\n"
            for mode, test in (("definitions", "dev.tsv"), ("crossword", "cw.csv")):
                argv = ["eval", "--checkpoint", str(broken), "--test", str(workspace / test), "--mode", mode]
                assert run(argv) == 3
                assert capsys.readouterr().err == "numeric error: non-finite LSTM pre-activation\n"
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_query_cuts_glosses_at_the_training_length(self, workspace, trained, capsys, monkeypatch):
        # a 151-token query answers exactly as its first 150 tokens, the cut
        # training applies; uncut, its last token would move the scores
        words = ("small domesticated feline large riding animal " * 26).split()[:151]
        lines = f"{' '.join(words)}\n{' '.join(words[:150])}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert run(["query", "--checkpoint", str(trained), "--topk", "7"]) == 0
        long_block, cut_block = self.query_blocks(capsys)
        assert long_block == cut_block
        checkpoint = load_checkpoint(trained)
        ids = np.asarray(checkpoint.vocab.encode(words))
        uncut = checkpoint.model.encode_ids(ids, np.array([ids.size]))
        assert [f"{w}\t{v!r}" for w, v in rank_by_cosine(uncut, checkpoint.pretrained, topk=7)] != long_block

    def query_blocks(self, capsys):
        return self.query_blocks_of(capsys.readouterr().out)

    @staticmethod
    def query_blocks_of(out):
        return [block.splitlines() for block in out.split("\n\n") if block.strip()]

    def test_query_prints_topk_lines(self, workspace, trained, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("small domesticated feline\n"))
        assert run(["query", "--checkpoint", str(trained), "--topk", "4"]) == 0
        blocks = self.query_blocks(capsys)
        assert len(blocks) == 1
        assert len(blocks[0]) == 4
        for line in blocks[0]:
            word, _, score = line.partition("\t")
            assert word in HEADS
            assert -1.0 <= float(score) <= 1.0

    def test_query_length_filters(self, workspace, trained, capsys, monkeypatch):
        lines = "small feline --length 3\nlarge riding animal --length 5\nbad one --length x\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert run(["query", "--checkpoint", str(trained)]) == 0
        blocks = self.query_blocks(capsys)
        assert len(blocks) == 2  # the malformed line is skipped
        assert {line.split("\t")[0] for line in blocks[0]} == {"cat", "dog", "bee"}
        assert {line.split("\t")[0] for line in blocks[1]} == {"mouse", "horse", "liner"}

    @pytest.mark.parametrize("length", [1, 4, 6], ids=["below", "between", "above"])
    def test_query_absent_length_has_no_candidates(self, workspace, trained, capsys, monkeypatch, length):
        # the table's words have 2, 3 and 5 letters
        monkeypatch.setattr("sys.stdin", io.StringIO(f"small feline --length {length}\nsmall feline --length 3\n"))
        assert run(["query", "--checkpoint", str(trained)]) == 0
        captured = capsys.readouterr()
        empty_block, answered = captured.out.split("\n", 1)
        assert empty_block == ""
        assert {line.split("\t")[0] for line in answered.splitlines() if line} == {"cat", "dog", "bee"}
        assert captured.err == "no candidates of that length\n"

    def test_checkpoint_stores_the_table_in_length_order(self, trained):
        meta, data = read_checkpoint_file(trained)
        stored = np.frombuffer(data["pretrained"]).reshape(meta["arrays"]["pretrained"]["shape"])
        assert meta["version"] == 5
        assert meta["pretrained_words"] == IN_LENGTH_ORDER
        checkpoint = load_checkpoint(trained)
        np.testing.assert_array_equal(stored, checkpoint.pretrained.matrix)

    def test_query_global_length_flag(self, workspace, trained, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        assert run(["query", "--checkpoint", str(trained), "--length", "2"]) == 0
        blocks = self.query_blocks(capsys)
        assert [line.split("\t")[0] for line in blocks[0]] == ["ox"]

    def test_rows_rewritten_in_place_after_load_are_a_data_error(self, workspace, trained, capsys, monkeypatch):
        # the table's float64 rows stay in the file; when the top answer's row is overwritten
        # at the same size while query has the file loaded, the next line that rescores it
        # sees the row no longer match its screen row and stops with exit 2, naming the file
        header, _ = read_checkpoint_file(trained)
        start = array_start(trained, "pretrained")
        width = 8 * header["arrays"]["pretrained"]["shape"][1]

        def lines():
            yield "small feline\n"
            top = capsys.readouterr().out.split("\t", 1)[0]
            with open(trained, "r+b") as handle:
                handle.seek(start + width * header["pretrained_words"].index(top))
                row = np.frombuffer(handle.read(width))
                handle.seek(-width, os.SEEK_CUR)
                handle.write((-row).tobytes())
            yield "small feline\n"

        monkeypatch.setattr("sys.stdin", lines())
        capsys.readouterr()
        assert run(["query", "--checkpoint", str(trained)]) == 2
        assert capsys.readouterr().err == f"data error: {trained}: pretrained rows changed after the table was loaded\n"

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda row: -row,
            lambda row: row[[1, 0, *range(2, row.size)]],
            lambda row: row * np.r_[1.0 + 2.0**-20, np.ones(row.size - 1)],
        ],
        ids=["negated", "two-entries-swapped", "one-entry-scaled-by-one-plus-2-to-the-minus-20"],
    )
    def test_embedding_rows_rewritten_in_place_after_load_are_a_data_error(
        self, workspace, trained, capsys, monkeypatch, rewrite
    ):
        # the gloss embedding stays in the file too; each line reads its tokens' rows by
        # position and checks their fingerprints, so a rewritten row of a token the next
        # line uses stops query with exit 2, naming the file
        header, _ = read_checkpoint_file(trained)
        width = 8 * header["arrays"]["param/emb"]["shape"][1]
        at = array_start(trained, "param/emb") + width * header["vocab"].index("feline")

        def lines():
            yield "small feline\n"
            with open(trained, "r+b") as handle:
                handle.seek(at)
                row = np.frombuffer(handle.read(width))
                assert rewrite(row).tobytes() != row.tobytes()
                handle.seek(at)
                handle.write(rewrite(row).tobytes())
            yield "small feline\n"

        monkeypatch.setattr("sys.stdin", lines())
        capsys.readouterr()
        assert run(["query", "--checkpoint", str(trained)]) == 2
        out, err = capsys.readouterr()
        assert len(self.query_blocks_of(out)) == 1  # the first line was answered from the rows as loaded
        assert err == f"data error: {trained}: embedding rows changed after the model was loaded\n"

    @pytest.mark.parametrize("cut", ["param/emb", "pretrained"], ids=["embedding", "table"])
    def test_checkpoint_truncated_while_loaded_is_a_data_error(self, workspace, trained, cut):
        # truncating a loaded checkpoint at the start of an array cuts off rows the next line
        # reads; a read through a mapping would kill the process (SIGBUS), so query runs in a
        # child process
        size = array_start(trained, cut)
        child = (
            "import os, sys\n"
            "from revdict.cli import run\n"
            "def lines():\n"
            "    yield 'small feline\\n'\n"
            f"    os.truncate({str(trained)!r}, {size})\n"
            "    yield 'small feline\\n'\n"
            "sys.stdin = lines()\n"
            f"sys.exit(run(['query', '--checkpoint', {str(trained)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert len(self.query_blocks_of(proc.stdout)) == 1
        assert re.fullmatch(f"data error: {re.escape(str(trained))}: row \\d+ runs past the end of the file\n", proc.stderr)

    @pytest.mark.parametrize("cut", ["param/emb", "pretrained"], ids=["embedding", "table"])
    def test_saving_a_checkpoint_truncated_while_loaded_is_a_data_error(self, workspace, trained, cut):
        # the save copies the rows of the arrays mapped from the loaded file through the load's block
        # reader; a read of a cut-off row through a mapping would kill the process (SIGBUS), so it runs
        # in a child process
        size, copy = array_start(trained, cut), workspace / "copy.ckpt"
        child = (
            "import os, sys\n"
            "from revdict.errors import DataError\n"
            "from revdict.trainer import load_checkpoint, save_checkpoint\n"
            f"checkpoint = load_checkpoint({str(trained)!r})\n"
            f"os.truncate({str(trained)!r}, {size})\n"
            "try:\n"
            f"    save_checkpoint({str(copy)!r}, checkpoint)\n"
            "except DataError as exc:\n"
            "    sys.exit(f'data error: {exc}')\n"
        )
        before = sorted(workspace.iterdir())
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"data error: {trained}: array {cut!r} runs past the end of the file\n"
        assert sorted(workspace.iterdir()) == before


def damaged_copies(path, seed):
    """Seeded damaged copies of a checkpoint file's bytes, by case: cut at every array boundary and at 20
    seeded offsets; one seeded byte flipped in the header length, the header's CRC-32, the JSON and each array;
    one byte appended."""
    data = path.read_bytes()
    header, arrays = read_checkpoint_file(path)
    rng = np.random.default_rng(seed)
    start = PREFIX_SIZE + int.from_bytes(data[8:16], "little")
    spans, end = {}, start
    for name, entry in sorted(header["arrays"].items()):
        spans[name] = (end, end + 8 * math.prod(entry["shape"]))
        end = spans[name][1]
    assert end == len(data)

    def flip(low, high):
        at = int(rng.integers(low, high))
        return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1 :]

    cases = {f"cut-before-{name}": data[:low] for name, (low, _) in spans.items()}
    cases.update({f"cut-at-{at}": data[:at] for at in rng.integers(0, len(data), size=20)})
    cases["flip-header-length"] = flip(8, 16)
    cases["flip-header-crc"] = flip(16, PREFIX_SIZE)
    cases["flip-json"] = flip(PREFIX_SIZE, start)
    cases.update({f"flip-{name}": flip(low, high) for name, (low, high) in spans.items()})
    cases["append"] = data + bytes([int(rng.integers(256))])
    return cases


@pytest.mark.parametrize("mode, segmentation", [("final", "word"), ("bidirectional", "bpe")])
def test_damaged_checkpoints_are_named_errors(workspace, capsys, monkeypatch, mode, segmentation):
    # every damaged copy is refused by query and eval with exit 2 and one stderr line naming the file
    merges = workspace / "merges.txt"
    assert run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "20", "--output", str(merges)]) == 0
    config = write_config(workspace, encoder_mode=mode, segmentation=segmentation, merges=merges, epochs=1)
    trained, broken = workspace / "model.ckpt", workspace / "broken.ckpt"
    assert run(["train", "--config", str(config), "--output", str(trained)]) == 0
    cases = damaged_copies(trained, seed=len(mode))
    assert len(cases) >= 30
    for case, data in cases.items():
        broken.write_bytes(data)
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        for argv in (["query"], ["eval", "--test", str(workspace / "dev.tsv")]):
            assert run(argv + ["--checkpoint", str(broken)]) == 2, (case, argv[0])
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"data error: {broken}: ") and err.count("\n") == 1, (case, err)


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "revdict", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "revdict" in proc.stdout


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "revdict", "no-such-command"], capture_output=True, text=True
    )
    assert proc.returncode == 1


def test_training_bits_hold_across_processes_with_threaded_blas(tmp_path):
    # two fresh processes, one at one BLAS thread and one at two, on glosses long
    # enough that the two counts give other bits (they did before training set
    # one thread), and a table of more than one Adam block, so its pass is
    # deferred: the checkpoints and curves are equal bytes
    rng = np.random.default_rng(2024)
    words = [f"w{k}" for k in range(200)]
    heads = [f"h{k}" for k in range(36)]
    glosses = ["\t".join((head, " ".join(rng.choice(words, size=int(rng.integers(2, 41)))))) for head in heads]
    (tmp_path / "train.tsv").write_text("\n".join(glosses[:30]) + "\n")
    (tmp_path / "dev.tsv").write_text("\n".join(glosses[30:]) + "\n")
    (tmp_path / "vecs.txt").write_text("".join(f"{h} {' '.join(map(str, rng.normal(size=16).tolist()))}\n" for h in heads))
    config = write_config(
        tmp_path, train=tmp_path / "train.tsv", dev=tmp_path / "dev.tsv", embed_dim=256, hidden_size=256,
        learning_rate=0.002, minibatch=16, bucket=32, encoder_mode="bidirectional",
    )
    outputs = [tmp_path / f"run{k}.ckpt" for k in range(2)]
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "revdict", "train", "--config", str(config), "--output", str(output)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for threads, output in zip((1, 2), outputs)
    ]
    for proc in runs:
        assert proc.wait(timeout=120) == 0, proc.stderr.read()
        proc.stderr.close()
    digests = [
        [hashlib.sha256(path.read_bytes()).hexdigest() for path in (output, output.with_name(f"{output.name}.metrics"))]
        for output in outputs
    ]
    assert digests[0] == digests[1]
    assert len((tmp_path / "run0.ckpt.metrics").read_text().splitlines()) == 2


# what the seeded mutation test inserts or writes into inputs
JUNK = [b"\t", b",", b" ", b"\n", b'"', b"#", b"=", b"-", b"0", b"1e308", b"nan", b"-inf", b"x", "é".encode(), b"\0", b"\xe9"]
CONFIG_VALUES = ["-1", "0", "1", "3.5", "1e308", "1e-320", "nan", "inf", "x", "", "rank", "bidirectional", "bpe", "full"]
CONFIG_FIELDS = [
    "learning_rate", "optimizer", "epochs", "minibatch", "bucket", "seed", "loss_kind", "encoder_mode",
    "segmentation", "dataset", "embed_dim", "hidden_size",
]
CONFIG_KEYS = CONFIG_FIELDS + ["train", "dev", "embeddings", "merges", "crosswords", "mode"]
HEADER_VALUES = [
    None, True, 0, -1, 2.5, float("inf"), float("nan"), "", "x", [], {}, [["a"]], [["a", "b"]], ["<unk>", "<pad>"],
    {"seed": 1}, 10**30,
]
QUERY_LINES = [
    "", " ", "--length", "--length 3", "small feline --length", "small --length 0", "small --length -2",
    "small --length 99999999999999999999", "small feline --length x", "\0", "é ü", "#", "x " * 300, "small\tfeline",
    "--length 3 --length 5", "small feline",
]
CATEGORIES = {1: ("usage error: ", "config error: "), 2: ("data error: ",), 3: ("numeric error: ",)}


def mutate(data, rng):
    """One seeded edit of ``data``: a byte deleted, junk inserted or written over, a line dropped or doubled, or a cut."""
    op, at = int(rng.integers(6)), int(rng.integers(len(data) + 1))
    junk = JUNK[int(rng.integers(len(JUNK)))]
    lines = data.split(b"\n")
    line = int(rng.integers(len(lines)))
    edits = [
        lambda: data[:at] + data[at + 1 :],
        lambda: data[:at] + junk + data[at:],
        lambda: data[:at] + junk + data[at + len(junk) :],
        lambda: b"\n".join(lines[:line] + lines[line + 1 :]),
        lambda: b"\n".join(lines[: line + 1] + lines[line:]),
        lambda: data[:at],
    ]
    return edits[op]()


def mutation_cases(ws, trained, merges, rng, count):
    """(label, argv, stdin text, prepare) cases, each with one input edited: ``count`` seeded edits of a data file, a
    config value or the query lines, then every checkpoint header key set to every value of HEADER_VALUES, loaded
    by ``query`` and by ``eval``; ``prepare`` writes the edited input and the config, and the label holds the
    case's number and its edit."""
    bad, out = ws / "bad.txt", str(ws / "out.txt")
    train = ["train", "--output", str(ws / "m.ckpt"), "--config", str(ws / "train.cfg")]

    def eval_(test, mode="definitions", checkpoint=trained):
        return ["eval", "--checkpoint", str(checkpoint), "--test", str(test), "--mode", mode]

    readers = {  # each input file, and the commands (with their config) that read it in place of the valid one
        "defs.tsv": [
            (train, dict(train=bad)), (["learn-bpe", "--input", str(bad), "--merges", "10", "--output", out], {}),
            (["apply-bpe", "--input", str(bad), "--merges", str(merges), "--output", out], {}),
            (["build-vocab", "--input", str(bad), "--output", out], {}),
            (["stats", "--input", str(bad), "--output", out], {}),
        ],
        "dev.tsv": [(train, dict(dev=bad)), (eval_(bad), {})],
        "vecs.txt": [(train, dict(embeddings=bad))],
        "cw.csv": [
            (train, dict(dataset="full", crosswords=bad)), (eval_(bad, "crossword"), {}),
            (["stats", "--input", str(bad), "--output", out, "--mode", "crossword"], {}),
        ],
        "merges.txt": [
            (train, dict(segmentation="bpe", merges=bad)),
            (["apply-bpe", "--input", str(ws / "defs.tsv"), "--merges", str(bad), "--output", out], {}),
            (["build-vocab", "--input", str(ws / "defs.tsv"), "--output", out, "--segmentation", "bpe", "--merges",
              str(bad)], {}),
        ],
        "train.cfg": [(train[:-1] + [str(bad)], {})],
    }
    header_keys = [*META_KEYS, "arrays", *(f"config.{field}" for field in CONFIG_FIELDS)]

    def pick(options):
        return options[int(rng.integers(len(options)))]

    cases = []
    for index in range(count):
        kind = ("file", "config", "query")[index % 3]
        if kind == "file":
            name = pick(sorted(readers))
            data = mutate((ws / name).read_bytes(), rng)
            argv, config = pick(readers[name])

            def prepare(data=data, config=config):
                write_config(ws, **config)
                bad.write_bytes(data)

            cases.append((f"{name} -> {data!r}", argv, "", prepare))
        elif kind == "config":
            key, value = pick(CONFIG_KEYS), pick(CONFIG_VALUES)
            cases.append((f"config {key} = {value!r}", train, "", lambda key=key, value=value: write_config(ws, **{key: value})))
        else:
            stdin = "".join(f"{pick(QUERY_LINES)}\n" for _ in range(3))
            cases.append((f"query {stdin!r}", ["query", "--checkpoint", str(trained)], stdin, lambda: None))
    for key in header_keys:
        for value in HEADER_VALUES:
            meta = {key: value}
            if key.startswith("config."):
                meta = {"config": lambda config, field=key[7:], value=value: {**config, field: value}}
            for argv in (["query", "--checkpoint", str(bad)], eval_(ws / "dev.tsv", checkpoint=bad)):
                cases.append((
                    f"header {key} = {value!r}", argv, "small feline\n",
                    lambda meta=meta: rewrite_checkpoint(trained, bad, meta=meta),
                ))
    return [(f"case {index}, {label}", *rest) for index, (label, *rest) in enumerate(cases)]


def test_seeded_mutations_keep_the_exit_code_contract(workspace, capsys, monkeypatch):
    # each case edits one input, runs the command that reads it, and checks the contract:
    # an exit code in 0..3, nothing raised, and on failure one last stderr line of that
    # category and no checkpoint written; the failing cases are printed, each ready to
    # become a named test
    merges, trained = workspace / "merges.txt", workspace / "model.ckpt"
    assert run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "20", "--output", str(merges)]) == 0
    assert run(["train", "--config", str(write_config(workspace)), "--output", str(trained)]) == 0
    failures = []
    cases = mutation_cases(workspace, trained, merges, np.random.default_rng(17), 150)
    assert sum(label.split(", ", 1)[1].startswith("header ") for label, *_ in cases) == 21 * len(HEADER_VALUES) * 2
    for label, argv, stdin, prepare in cases:
        prepare()
        (workspace / "m.ckpt").unlink(missing_ok=True)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        capsys.readouterr()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run(argv)
        except (Exception, SystemExit) as exc:  # an escaping exception is what the test looks for
            failures.append(f"{label}: {argv[0]} raised {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err.splitlines()
        flagged = [line for line in err if line.startswith(sum(CATEGORIES.values(), ()))]
        if code not in (0, 1, 2, 3):
            failures.append(f"{label}: {argv[0]} exited {code}")
        elif code and (flagged != err[-1:] or not flagged[0].startswith(CATEGORIES[code])):
            failures.append(f"{label}: {argv[0]} exited {code} with stderr {err!r}")
        elif not code and flagged:
            failures.append(f"{label}: {argv[0]} exited 0 with stderr {err!r}")
        elif code and (workspace / "m.ckpt").exists():
            failures.append(f"{label}: {argv[0]} exited {code} but wrote its checkpoint")
    if failures:
        with capsys.disabled():  # straight to the terminal, one line a case
            print("\n" + "\n".join(failures))
    assert not failures, f"{len(failures)} of the seeded cases broke the exit-code contract"
