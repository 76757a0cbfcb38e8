"""End-to-end command tests driven through run(argv)."""

import io
import json
import re
import subprocess
import sys
import warnings
import zipfile
from collections import Counter

import numpy as np
import pytest

from revdict.cli import _gloss_frequencies, run
from revdict.corpus import load_definitions
from revdict.embeddings import rank_by_cosine
from revdict.tokenizer import (
    MergeTable,
    WordVocab,
    build_word_vocab,
    segment_tokens,
    segment_word,
    unsegment_text,
)
from revdict.trainer import load_checkpoint, save_checkpoint

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


def rewrite_checkpoint(source, target, meta=None, drop_meta=None, drop=None, arrays=None):
    """Copy a checkpoint archive with its meta updated, a member dropped, or ``arrays[name]`` applied to array ``name``."""
    with zipfile.ZipFile(source) as src, zipfile.ZipFile(target, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            if name == drop:
                continue
            if name == "meta.json":
                content = json.loads(data)
                content.update(meta or {})
                content.pop(drop_meta, None)
                data = json.dumps(content).encode("utf-8")
            edit = (arrays or {}).get(name[: -len(".npy")])
            if edit is not None:
                buffer = io.BytesIO()
                np.save(buffer, edit(np.load(io.BytesIO(data))))
                data = buffer.getvalue()
            dst.writestr(name, data)


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

    def test_build_vocab_word_and_bpe(self, workspace):
        vocab_path = workspace / "vocab.txt"
        assert run(["build-vocab", "--input", str(workspace / "defs.tsv"), "--output", str(vocab_path), "--cap", "6"]) == 0
        vocab = WordVocab.load(vocab_path)
        assert len(vocab) == 6 + 2  # cap counts content tokens, unk and pad ride on top
        assert "<unk>" in vocab.token_to_id and "<pad>" in vocab.token_to_id

        # bpe segmentation needs the merge table
        assert run(["build-vocab", "--input", str(workspace / "defs.tsv"), "--output", str(vocab_path), "--segmentation", "bpe"]) == 1
        merges = workspace / "merges.txt"
        run(["learn-bpe", "--input", str(workspace / "defs.tsv"), "--merges", "5", "--output", str(merges)])
        assert run(["build-vocab", "--input", str(workspace / "defs.tsv"), "--output", str(vocab_path), "--segmentation", "bpe", "--merges", str(merges)]) == 0
        assert WordVocab.load(vocab_path).token_to_id

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

        monkeypatch.setattr("revdict.cli.segment_word", counting)
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

    def test_train_config_errors(self, workspace):
        config = write_config(workspace, learning_rate=-1)
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
        config = write_config(workspace, segmentation="bpe")  # no merges path given
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1

    def test_non_finite_learning_rate_is_a_config_error(self, workspace, capsys):
        for value in ("nan", "inf"):
            config = write_config(workspace, learning_rate=value)
            assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 1
            assert f"config error: learning_rate must be positive and finite, got {value}" in capsys.readouterr().err
        assert not (workspace / "m.ckpt").exists()

    def test_train_missing_data_file(self, workspace):
        config = write_config(workspace, train=workspace / "absent.tsv")
        assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 2

    def test_non_finite_loss_exits_three(self, workspace, capsys):
        # a finite learning rate so large that the first Adam step overflows
        # the parameters to inf; the next batch's cosine is then nan
        config = write_config(workspace, learning_rate=1e308, epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["train", "--config", str(config), "--output", str(workspace / "m.ckpt")]) == 3
        assert "numeric error: epoch 1 batch 1: non-finite cosine in loss" in capsys.readouterr().err
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

    def test_eval_bad_checkpoint(self, workspace):
        bogus = workspace / "bogus.ckpt"
        bogus.write_text("not a checkpoint")
        assert run(["eval", "--checkpoint", str(bogus), "--test", str(workspace / "dev.tsv")]) == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(meta={"version": 99}), "checkpoint version 99 is not 3"),
            (dict(meta={"version": None}), "checkpoint version None is not 3"),
            (dict(drop_meta="config"), "checkpoint meta has no 'config'"),
            (dict(drop="param/fwd.u.npy"), "checkpoint has no array 'param/fwd.u'"),
            (dict(arrays={"param/emb": lambda a: a[:-1]}), "array 'param/emb' is float64 (14, 6), expected float64 (15, 6)"),
            (
                dict(arrays={"param/emb": lambda a: a.astype(np.float32)}),
                "array 'param/emb' is float32 (15, 6), expected float64 (15, 6)",
            ),
            (dict(meta={"mode": "bidirectional"}), "checkpoint has no array 'param/bwd.w'"),
            (dict(meta={"pad_id": 15}), "pad/unk ids 15/13 outside the 15-token vocabulary"),
            # one gate's (E, H) block where the fused (E, 4H) matrix belongs, as a version-1 array
            (dict(arrays={"param/fwd.w": lambda a: a[:, :5]}), "array 'param/fwd.w' is float64 (6, 5), expected float64 (6, 20)"),
            # one row short of the average mode's (H, D) projection
            (dict(arrays={"param/proj.w": lambda a: a[:-1]}), "array 'param/proj.w' is float64 (4, 6), expected float64 (5, 6)"),
            # version 2 stored the pretrained rows in file order
            (dict(meta={"version": 2}), "checkpoint version 2 is not 3"),
            (
                dict(meta={"pretrained_words": IN_LENGTH_ORDER[::-1]}, arrays={"pretrained": lambda a: a[::-1]}),
                "array 'pretrained' rows are not in word-length order",
            ),
        ],
        ids=[
            "version", "no-version", "meta-key", "param-array", "emb-shape", "emb-dtype", "mode", "pad-id",
            "gate-shape", "proj-shape", "version-2", "table-order",
        ],
    )
    def test_malformed_checkpoint_is_a_data_error(self, workspace, trained, capsys, monkeypatch, edit, message):
        broken = workspace / "broken.ckpt"
        rewrite_checkpoint(trained, broken, **edit)
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
        checkpoint = load_checkpoint(trained)
        checkpoint.model.projection.bias[0] = np.nan
        broken = workspace / "nan.ckpt"
        save_checkpoint(broken, checkpoint)
        message = f"numeric error: {broken}: array 'param/proj.b' has a non-finite entry\n"
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        assert run(["query", "--checkpoint", str(broken)]) == 3
        assert capsys.readouterr().err == message
        for mode, test in (("definitions", "dev.tsv"), ("crossword", "cw.csv")):
            argv = ["eval", "--checkpoint", str(broken), "--test", str(workspace / test), "--mode", mode]
            assert run(argv) == 3
            assert capsys.readouterr().err == message

    def test_non_finite_query_with_an_absent_length_exits_three(self, workspace, trained, capsys, monkeypatch):
        # no word has 4 letters, but the model is still checked
        checkpoint = load_checkpoint(trained)
        checkpoint.model.projection.bias[0] = np.nan
        broken = workspace / "nan.ckpt"
        save_checkpoint(broken, checkpoint)
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
        checkpoint.model.lstm.w[:] = 1e300
        checkpoint.model.embeddings.matrix[:] = 1e10
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
        out = capsys.readouterr().out
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
        with zipfile.ZipFile(trained) as zf:
            meta = json.loads(zf.read("meta.json"))
            stored = np.load(io.BytesIO(zf.read("pretrained.npy")))
        assert meta["version"] == 3
        assert meta["pretrained_words"] == IN_LENGTH_ORDER
        checkpoint = load_checkpoint(trained)
        np.testing.assert_array_equal(stored, checkpoint.pretrained.matrix)

    def test_query_global_length_flag(self, workspace, trained, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("small feline\n"))
        assert run(["query", "--checkpoint", str(trained), "--length", "2"]) == 0
        blocks = self.query_blocks(capsys)
        assert [line.split("\t")[0] for line in blocks[0]] == ["ox"]


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
