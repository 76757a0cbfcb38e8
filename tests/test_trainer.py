"""Config parsing, Adam, training-loop, and checkpoint round-trip tests."""

import copy
import errno
import gc
import io
import os
import re
import sys
import threading
import time
import tracemalloc
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import framed_header, nbytes, read_checkpoint_file, refuse_whole_reads, write_checkpoint_file

from revdict import embeddings, objective, trainer
from revdict.corpus import DefinitionPair, EncodedPair, bucket_and_batch
from revdict.encoder import DefinitionModel, EncoderMode
from revdict.embeddings import FileMatrix, PretrainedTable, cosine_to_all, rank_by_cosine, row_fingerprints
from revdict.errors import ConfigError, DataError, NonFiniteLossError
from revdict.evaluator import evaluate, median_rank, rank_of_correct
from revdict.objective import LossKind, RowGradient, backward, finite_diff_check
from revdict.tokenizer import MergeTable, WordVocab, build_word_vocab, learn_bpe
from revdict.trainer import (
    BETA1,
    BETA2,
    EPSILON,
    AdamState,
    TrainConfig,
    adam_update,
    encode_pairs,
    load_checkpoint,
    read_config,
    save_checkpoint,
    train,
)


def toy_world(seed=0, n_pairs=12, n_heads=10, out_dim=6, epochs=2, **config_kw):
    rng = np.random.default_rng(seed)
    heads = [f"w{i}" for i in range(n_heads)]
    table = PretrainedTable.from_arrays(heads, rng.normal(size=(n_heads, out_dim)))
    tokens = [f"tok{i}" for i in range(8)]
    pairs = []
    for i in range(n_pairs):
        size = int(rng.integers(2, 5))
        gloss = tuple(tokens[int(j)] for j in rng.integers(0, len(tokens), size=size))
        pairs.append(DefinitionPair(head=heads[i % n_heads], gloss=gloss))
    vocab = build_word_vocab(Counter(t for p in pairs for t in p.gloss), cap=100)
    defaults = dict(
        learning_rate=0.01,
        epochs=epochs,
        minibatch=4,
        bucket=8,
        seed=3,
        embed_dim=6,
        hidden_size=5,
        encoder_mode="average",
    )
    defaults.update(config_kw)
    return pairs, table, vocab, TrainConfig(**defaults)


def wide_world(seed, epochs, **config_kw):
    """``toy_world`` with 20,000 more vocabulary tokens and E=32, so the gloss embedding is most of the parameters."""
    pairs, table, vocab, cfg = toy_world(seed=seed, epochs=epochs, embed_dim=32, **config_kw)
    counts = Counter(t for p in pairs for t in p.gloss)
    counts.update({f"x{i}": 1 for i in range(20_000)})
    return pairs, table, build_word_vocab(counts, cap=len(counts) + 2), cfg


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.validate() is cfg
        assert cfg.learning_rate == 0.0001
        assert cfg.epochs == 10 and cfg.minibatch == 16 and cfg.bucket == 4096

    @pytest.mark.parametrize(
        "bad",
        [
            dict(learning_rate=0.0),
            dict(optimizer="sgd"),
            dict(epochs=-1),
            dict(seed=-1),
            dict(minibatch=0),
            dict(minibatch=17),
            dict(bucket=10, minibatch=3),
            dict(loss_kind="l2"),
            dict(encoder_mode="attention"),
            dict(segmentation="chars"),
            dict(dataset="wiki"),
            dict(hidden_size=0),
            dict(hidden_size=True),
            dict(epochs=2.5),
            dict(loss_kind=1),
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()

    def test_override_skips_none(self):
        cfg = TrainConfig().override(epochs=3, seed=None, loss_kind="rank")
        assert cfg.epochs == 3 and cfg.seed == 42 and cfg.loss_kind == "rank"


class TestReadConfig:
    def test_parse_types_paths_and_comments(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# toy run\n"
            "learning_rate = 0.001\n"
            "epochs = 4  # short\n"
            "loss_kind = rank\n"
            "train = data/train.tsv\n"
            "embeddings = data/vecs.txt\n"
            "\n"
        )
        cfg, paths = read_config(path)
        assert cfg.learning_rate == 0.001
        assert cfg.epochs == 4
        assert cfg.loss_kind == "rank"
        assert paths == {"train": "data/train.tsv", "embeddings": "data/vecs.txt"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_bad_int_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError):
            read_config(path)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        adam_update(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes the first step almost exactly lr * sign(g)
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        adam_update(params, {"w": np.array([1.0])}, state, lr=0.05)
        assert params["w"][0] == pytest.approx(-0.05, rel=1e-6)

    def test_step_size_bounded_by_lr(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=4)}
        state = AdamState.for_params(params)
        for _ in range(10):
            before = params["w"].copy()
            adam_update(params, {"w": rng.normal(size=4)}, state, lr=0.01)
            assert np.all(np.abs(params["w"] - before) <= 0.01 * (1 + 1e-6))


def dense_adam_update(params, grads, state, lr):
    """The whole-array Adam step that ``adam_update`` replaced, kept as its oracle."""
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    for name, param in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        param -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPSILON)


def dense_scatter(token_ids, dx, shape, pad_id):
    """The dense embedding gradient ``backward`` built before, kept as an oracle."""
    d_emb = np.zeros(shape)
    np.add.at(d_emb, token_ids.ravel(), dx.reshape(-1, dx.shape[-1]))
    d_emb[pad_id] = 0.0
    return d_emb


class TestTrainingStepOracle:
    """The sparse embedding gradient and blocked Adam against the dense step, bit for bit."""

    VOCAB, PAD, TOUCHED = 40, 39, 12  # batches draw ids below TOUCHED, plus PAD

    def test_embedding_gradient_equals_dense_scatter(self):
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 6, size=(5, 9))  # heavy repeats, in no order
        ids[:, -2:] = 3
        dx = rng.normal(size=(5, 9, 7)) * 10.0 ** rng.integers(-8, 8, size=(5, 9, 1))
        sparse = objective._embedding_gradient(ids, dx, (10, 7), pad_id=3)
        assert sparse.rows.tolist() == sorted(set(ids.ravel().tolist()))
        assert sparse.dense().tobytes() == dense_scatter(ids, dx, (10, 7), 3).tobytes()

    @pytest.mark.parametrize("loss_kind", list(LossKind))
    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_steps_match_the_dense_oracle(self, mode, loss_kind, monkeypatch):
        # 64-element blocks: the 40x6 table ends in a partial block, and the
        # gate matrices and biases are smaller than one block
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 64)
        scattered = []
        sparse_gradient = objective._embedding_gradient

        def recording(token_ids, dx, shape, pad_id):
            scattered.append(dense_scatter(token_ids, dx, shape, pad_id))
            return sparse_gradient(token_ids, dx, shape, pad_id)

        monkeypatch.setattr(objective, "_embedding_gradient", recording)
        model = DefinitionModel.create(self.VOCAB, self.PAD, mode, embed_dim=6, hidden=5, output_dim=4, seed=2)
        oracle = copy.deepcopy(model)
        params, oracle_params = model.param_dict(), oracle.param_dict()
        untouched = params["emb"][self.TOUCHED : self.PAD].copy()
        state, oracle_state = AdamState.for_params(params), AdamState.for_params(oracle_params)
        rng = np.random.default_rng(9)
        for step in range(5):
            lengths = rng.integers(1, 7, size=4)
            ids = rng.integers(0, self.TOUCHED, size=(4, 6))
            ids[np.arange(6)[None, :] >= lengths[:, None]] = self.PAD
            targets = rng.normal(size=(4, 4))
            negatives = targets + 0.3 * rng.normal(size=(4, 4))  # near the targets: the hinge is active
            loss, grads = backward(model, ids, lengths, targets, loss_kind, negatives)
            _, oracle_grads = backward(oracle, ids, lengths, targets, loss_kind, negatives)
            assert loss > 0.0
            dense = grads.as_dict()
            assert dense["emb"].tobytes() == scattered[-2].tobytes()
            assert {k: g.shape for k, g in dense.items()} == {k: p.shape for k, p in params.items()}

            adam_update(params, grads, state, lr=0.05)
            dense_adam_update(oracle_params, {**oracle_grads.as_dict(), "emb": scattered[-1]}, oracle_state, lr=0.05)
            for name, param in params.items():
                assert param.tobytes() == oracle_params[name].tobytes(), (step, name)
                assert state.m[name].tobytes() == oracle_state.m[name].tobytes(), (step, name)
                assert state.v[name].tobytes() == oracle_state.v[name].tobytes(), (step, name)
        assert params["emb"][self.TOUCHED : self.PAD].tobytes() == untouched.tobytes()

    def test_row_gradient_updates_every_row(self, monkeypatch):
        # rows outside the gradient still take the step with g = 0 (their
        # moments decay and the parameter moves), exactly as a dense zero row
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 8)
        rng = np.random.default_rng(1)
        start = rng.normal(size=(6, 3))
        params, oracle_params = {"emb": start.copy()}, {"emb": start.copy()}
        state, oracle_state = AdamState.for_params(params), AdamState.for_params(oracle_params)
        for rows in ([0, 4], [1], [5]):
            grad = RowGradient(rows=np.array(rows), values=rng.normal(size=(len(rows), 3)), shape=(6, 3))
            adam_update(params, {"emb": grad}, state, lr=0.1)
            dense_adam_update(oracle_params, {"emb": grad.dense()}, oracle_state, lr=0.1)
            assert params["emb"].tobytes() == oracle_params["emb"].tobytes()
        assert np.all(params["emb"][[0, 1, 4, 5]] != start[[0, 1, 4, 5]])
        assert np.all(params["emb"][[2, 3]] == start[[2, 3]])  # never a nonzero gradient, so m stays 0

    def test_row_restricted_terms_match_the_dense_oracle_over_many_steps(self, monkeypatch):
        # only a RowGradient's rows take the gradient terms; over 60 steps the other rows'
        # moments only decay, down to subnormals that stop shrinking, and must still hold
        # the dense rule's bits, as must -0.0 and +0.0 gradient entries; 5-wide rows in
        # 16-element blocks straddle block boundaries, and the 185-entry table ends in a
        # partial block
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 16)
        rng = np.random.default_rng(6)
        start = {"emb": rng.normal(size=(37, 5)), "w": rng.normal(size=(3, 7))}
        params, oracle_params = copy.deepcopy(start), copy.deepcopy(start)
        state, oracle_state = AdamState.for_params(params), AdamState.for_params(oracle_params)
        idle = np.arange(10, 16)  # each touched once, at step row - 10, then never again
        tiny = [1e-306, -1e-306, 4e-322, -4e-322, 5e-323, -0.0]  # m subnormal within 60 steps, or at once; +0
        for step in range(60):
            rows = np.setdiff1d(np.flatnonzero(rng.random(37) < 0.2), idle)
            if step % 3 == 0:
                rows = np.union1d(rows, [3, 36])  # row 3 is elements 15..19, across a block boundary
            values = rng.normal(size=(len(rows), 5))
            values[rng.random(values.shape) < 0.2] = -0.0
            values[rng.random(values.shape) < 0.1] = 0.0
            if step < len(idle):
                rows, values = np.append(rows, idle[step]), np.vstack([values, np.full(5, tiny[step])])
                order = np.argsort(rows)  # a RowGradient's rows ascend
                rows, values = rows[order], values[order]
            grad = RowGradient(rows=rows, values=values, shape=(37, 5))
            dense_w = rng.normal(size=(3, 7))
            adam_update(params, {"emb": grad, "w": dense_w}, state, lr=0.01)
            dense_adam_update(oracle_params, {"emb": grad.dense(), "w": dense_w}, oracle_state, lr=0.01)
            for name in start:
                assert params[name].tobytes() == oracle_params[name].tobytes(), (step, name)
                assert state.m[name].tobytes() == oracle_state.m[name].tobytes(), (step, name)
                assert state.v[name].tobytes() == oracle_state.v[name].tobytes(), (step, name)
        idle_m = state.m["emb"][idle]
        assert np.all((idle_m[:5] != 0.0) & (np.abs(idle_m[:5]) < np.finfo(np.float64).tiny)), "m is subnormal"
        assert np.all(idle_m[5] == 0.0) and not np.signbit(idle_m[5]).any()  # a -0.0 gradient leaves m at +0

    def test_non_contiguous_parameter_rejected(self):
        # a flattened copy would take the step and be thrown away
        params = {"w": np.zeros((4, 6))[:, ::2]}
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_update(params, {"w": np.ones((4, 3))}, AdamState.for_params(params), lr=0.1)


class TestSplitAdam:
    """``adam_update`` split over two threads, and with the table deferred, against the dense step, bit for bit."""

    V, E, PAD = 37, 5, 36

    def test_split_steps_match_the_dense_oracle_over_many_steps(self, monkeypatch):
        # 16-element blocks: 5-wide rows straddle block boundaries (row 3 is elements 15..19),
        # the table ends in a partial block and "b" is under one block
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 16)
        stepped = []  # (thread, elements) of each run of slices
        step_slices = trainer._step_slices

        def recording(slices, **kw):
            slices = list(slices)
            stepped.append((threading.get_ident(), sum(s[0].size for s in slices)))
            step_slices(slices, **kw)

        monkeypatch.setattr(trainer, "_step_slices", recording)
        rng = np.random.default_rng(13)
        start = {"emb": rng.normal(size=(self.V, self.E)), "w": rng.normal(size=(6, 9)), "b": rng.normal(size=4)}
        params, oracle_params = copy.deepcopy(start), copy.deepcopy(start)
        state, oracle_state = AdamState.for_params(params), AdamState.for_params(oracle_params)
        fixed = [np.array([], dtype=np.int64), np.arange(self.V), np.array([self.PAD]), np.array([3]), np.array([2, 3, 4])]
        gradient_rows_inside = gradient_rows_outside = 0
        with ThreadPoolExecutor(max_workers=1) as worker:
            for step in range(66):
                ahead = fixed[step] if step < len(fixed) else np.flatnonzero(rng.random(self.V) < 0.3)
                if step % 4 == 1:
                    ahead = np.union1d(ahead, self.PAD)
                rows = np.flatnonzero(rng.random(self.V) < 0.25)
                values = rng.normal(size=(rows.size, self.E))
                values[rng.random(values.shape) < 0.1] = -0.0
                grad = RowGradient(rows=rows, values=values, shape=(self.V, self.E))
                grads = {"emb": grad, "w": rng.normal(size=(6, 9)), "b": rng.normal(size=4)}
                dense_adam_update(oracle_params, {**grads, "emb": grad.dense()}, oracle_state, lr=0.01)
                if step % 6 == 5:  # the whole step, on two threads
                    assert adam_update(params, grads, state, 0.01, worker) is None
                elif step % 6 == 2:  # the serial step
                    assert adam_update(params, grads, state, 0.01) is None
                else:
                    inside = np.isin(rows, ahead)
                    gradient_rows_inside += inside.any()
                    gradient_rows_outside += (~inside).any()
                    rows_ahead, table_pass = adam_update(params, grads, state, 0.01, worker, ahead)
                    assert rows_ahead.tobytes() == oracle_params["emb"][ahead].tobytes(), step
                    table_pass.result()
                for name in start:
                    assert params[name].tobytes() == oracle_params[name].tobytes(), (step, name)
                    assert state.m[name].tobytes() == oracle_state.m[name].tobytes(), (step, name)
                    assert state.v[name].tobytes() == oracle_state.v[name].tobytes(), (step, name)
        assert gradient_rows_inside > 10 and gradient_rows_outside > 10
        threads = {thread for thread, elements in stepped if elements}
        assert threading.get_ident() in threads and len(threads) == 2  # the caller and the worker both stepped

    def test_the_two_runs_are_about_even_and_cut_no_slice(self, monkeypatch):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 16)
        stepped = []
        stepping = lambda slices, **kw: stepped.append((threading.get_ident(), [s[0].size for s in slices]))
        monkeypatch.setattr(trainer, "_step_slices", stepping)
        params = {"big": np.zeros(100), "small": np.zeros(7)}
        grads = {name: np.ones_like(p) for name, p in params.items()}
        with ThreadPoolExecutor(max_workers=1) as worker:
            adam_update(params, grads, AdamState.for_params(params), 0.1, worker)
        (_, second), (_, first) = sorted(stepped, key=lambda run: run[0] == threading.get_ident(), reverse=True)
        assert first + second == [16] * 6 + [4, 7]  # the worker takes the first run of slices
        assert abs(sum(first) - sum(second)) <= 16


def serial_train(config, train_pairs, dev_pairs, pretrained, vocab):
    """The training loop before Adam overlapped the next batch, kept as its oracle.

    Every step is whole and in the caller's thread.  Returns the best
    epoch's parameters, the curve and the best epoch.
    """
    encoded_train = encode_pairs(train_pairs, vocab, pretrained)
    encoded_dev = encode_pairs(dev_pairs, vocab, pretrained)
    model = DefinitionModel.create(
        len(vocab), vocab.pad_id, config.encoder_mode, config.embed_dim, config.hidden_size, pretrained.dimension,
        seed=config.seed,
    )
    params = model.param_dict()
    adam = AdamState.for_params(params)
    loss_kind = LossKind(config.loss_kind)
    snapshots, curve = [], []
    for epoch in range(1, config.epochs + 1):
        batches = bucket_and_batch(
            encoded_train, pad_id=vocab.pad_id, bucket_size=config.bucket, minibatch=config.minibatch,
            shuffle_seed=config.seed + epoch,
        )
        neg_rng = np.random.default_rng([config.seed, epoch, 1])
        for batch in batches:
            negatives = None
            if loss_kind is LossKind.RANK:
                negatives = pretrained.matrix[
                    [objective.sample_negative(len(pretrained), int(h), neg_rng) for h in batch.head_ids]
                ]
            targets = pretrained.matrix[batch.head_ids]
            _, grads = backward(model, batch.token_ids, batch.lengths, targets, loss_kind, negatives)
            adam_update(params, grads, adam, config.learning_rate)
        curve.append(trainer._dev_median(model, encoded_dev, pretrained))
        snapshots.append({name: p.copy() for name, p in params.items()})
    best = curve.index(min(curve))
    return snapshots[best], curve, best + 1


@pytest.fixture
def blas_controls():
    """The bundled OpenBLAS's thread-count getter and setter; the count is put back after the test."""
    controls = trainer._openblas_threads()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS thread controls are not found")
    get, put = controls
    caller = get()
    yield get, put
    put(caller)


class TestOverlappedTraining:
    @pytest.mark.parametrize(
        "world, best, block",
        [
            (lambda: wide_world(0, epochs=3, learning_rate=0.01), 1, None),
            (lambda: wide_world(1, epochs=3, learning_rate=0.05), 2, None),
            # 16-element blocks: the 10x6 table is more than one block, so it is deferred
            (lambda: toy_world(seed=4, epochs=3, loss_kind="rank", encoder_mode="bidirectional", learning_rate=0.05), 1, 16),
            (lambda: toy_world(seed=4, epochs=3, loss_kind="rank", encoder_mode="bidirectional", learning_rate=0.05), 1, None),
        ],
    )
    def test_train_equals_the_serial_loop_at_one_blas_thread(self, blas_controls, monkeypatch, world, best, block):
        _, put = blas_controls
        pairs, table, vocab, cfg = world()
        if block is not None:
            monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        overlapped = []
        monkeypatch.setattr(trainer, "adam_update", lambda *a: overlapped.append(a[5:] != ()) or adam_update(*a))
        put(2)
        ckpt, curve = train(cfg, pairs, pairs, table, vocab)
        if len(vocab) * cfg.embed_dim > trainer.ADAM_BLOCK:
            assert sum(overlapped) == len(overlapped) - cfg.epochs  # each epoch's last batch is stepped whole
        else:  # a table of one block is never deferred
            assert not any(overlapped)
        put(1)
        oracle, oracle_curve, oracle_best = serial_train(cfg, pairs, pairs, table, vocab)
        assert curve == oracle_curve and ckpt.epoch == oracle_best == best < cfg.epochs
        assert ckpt.dev_median_rank == min(oracle_curve)
        for name, array in ckpt.model.param_dict().items():
            assert array.tobytes() == oracle[name].tobytes(), name

    def test_raising_and_finishing_leave_no_thread_and_the_callers_blas_threads(self, blas_controls, monkeypatch):
        get, put = blas_controls
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 16)  # so the table's pass is deferred when the error leaves
        pairs, table, vocab, cfg = toy_world(epochs=2)
        put(2)
        threads = threading.active_count()
        # 1e300 steps leave the parameters finite but overflow the next batch's LSTM input projection
        with pytest.raises(NonFiniteLossError, match=r"epoch 1 batch [12]: non-finite LSTM pre-activation"):
            train(cfg.override(learning_rate=1e300), pairs, pairs[:4], table, vocab)
        assert threading.active_count() == threads and get() == 2
        train(cfg, pairs, pairs[:4], table, vocab)
        assert threading.active_count() == threads and get() == 2

    def test_without_the_blas_controls_train_steps_serially(self, monkeypatch):
        monkeypatch.setattr(trainer, "_openblas_threads", lambda: None)
        assert trainer.blas_threads(10**6) is None
        pairs, table, vocab, cfg = wide_world(1, epochs=3, learning_rate=0.05)
        calls = []
        monkeypatch.setattr(trainer, "adam_update", lambda *a: calls.append(a[4:]) or adam_update(*a))
        threads = threading.active_count()
        ckpt, curve = train(cfg, pairs, pairs, table, vocab)
        assert calls and set(calls) == {(None,)} and threading.active_count() == threads
        oracle, oracle_curve, oracle_best = serial_train(cfg, pairs, pairs, table, vocab)
        assert curve == oracle_curve and ckpt.epoch == oracle_best
        for name, array in ckpt.model.param_dict().items():
            assert array.tobytes() == oracle[name].tobytes(), name


class TestTrainLoop:
    def test_deterministic_across_runs(self):
        pairs, table, vocab, cfg = toy_world()
        ckpt_a, curve_a = train(cfg, pairs, pairs[:6], table, vocab)
        ckpt_b, curve_b = train(cfg, pairs, pairs[:6], table, vocab)
        assert curve_a == curve_b
        for name, arr in ckpt_a.model.param_dict().items():
            np.testing.assert_array_equal(arr, ckpt_b.model.param_dict()[name])

    def test_zero_epochs_returns_initialization(self):
        pairs, table, vocab, cfg = toy_world(epochs=0)
        ckpt, curve = train(cfg, pairs, pairs[:4], table, vocab)
        assert curve == []
        assert ckpt.epoch == 0
        from revdict.encoder import DefinitionModel

        fresh = DefinitionModel.create(
            len(vocab), vocab.pad_id, cfg.encoder_mode, cfg.embed_dim, cfg.hidden_size,
            table.dimension, seed=cfg.seed,
        )
        for name, arr in ckpt.model.param_dict().items():
            np.testing.assert_array_equal(arr, fresh.param_dict()[name])

    def test_best_checkpoint_is_first_minimum(self):
        pairs, table, vocab, cfg = toy_world(epochs=4)
        ckpt, curve = train(cfg, pairs, pairs[:6], table, vocab)
        assert len(curve) == 4
        assert ckpt.dev_median_rank == min(curve)
        assert ckpt.epoch == curve.index(min(curve)) + 1

    @pytest.mark.parametrize("seed, learning_rate, best", [(0, 0.01, 1), (1, 0.05, 2)])
    def test_an_earlier_best_epoch_returns_that_epochs_parameters(self, seed, learning_rate, best):
        # epoch e shuffles with seed + e, so the first k epochs of any run are the same;
        # the epochs=k run returns its live model, the longer one the copy it kept
        pairs, table, vocab, cfg = wide_world(seed, epochs=3, learning_rate=learning_rate)
        ckpt, curve = train(cfg, pairs, pairs, table, vocab)
        assert ckpt.epoch == best < cfg.epochs
        short, short_curve = train(cfg.override(epochs=best), pairs, pairs, table, vocab)
        assert short_curve == curve[:best] and short.epoch == best
        assert ckpt.dev_median_rank == short.dev_median_rank
        for name, array in ckpt.model.param_dict().items():
            assert array.tobytes() == short.model.param_dict()[name].tobytes(), name

    @pytest.mark.parametrize("epochs, bound", [(1, 3.5), (3, 4.5)])
    def test_peak_memory_is_params_moments_and_at_most_one_copy(self, epochs, bound):
        # one epoch holds the parameters and two moments; several epochs, whose dev median
        # falls after epoch 1, add one copy of the best epoch's parameters (measured: 3.1-3.3x
        # and 4.1x; the bounds leave room for the first call's allocations in a process)
        pairs, table, vocab, cfg = wide_world(1, epochs=epochs, learning_rate=0.05)
        tracemalloc.start()
        try:
            ckpt, curve = train(cfg, pairs, pairs, table, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert epochs == 1 or min(curve[1:]) < curve[0]
        assert peak < bound * sum(a.nbytes for a in ckpt.model.param_dict().values())

    def test_rank_loss_runs_and_is_deterministic(self):
        pairs, table, vocab, cfg = toy_world(loss_kind="rank", epochs=2)
        _, curve_a = train(cfg, pairs, pairs[:4], table, vocab)
        _, curve_b = train(cfg, pairs, pairs[:4], table, vocab)
        assert curve_a == curve_b

    def test_training_improves_dev_on_train(self):
        pairs, table, vocab, cfg = toy_world(epochs=25, n_pairs=8, seed=1)
        ckpt0, _ = train(cfg.override(epochs=0), pairs, pairs, table, vocab)
        ckpt, _ = train(cfg, pairs, pairs, table, vocab)
        assert ckpt.dev_median_rank <= ckpt0.dev_median_rank

    def test_non_finite_loss_names_the_batch(self, monkeypatch):
        # a nan projection bias makes every output of the first batch nan (tanh would hide an inf)
        pairs, table, vocab, cfg = toy_world()
        create = DefinitionModel.create

        def poisoned(*args, **kwargs):
            model = create(*args, **kwargs)
            model.projection.bias[:] = np.nan
            return model

        monkeypatch.setattr(DefinitionModel, "create", poisoned)
        with pytest.raises(NonFiniteLossError, match=r"epoch 1 batch 0"):
            train(cfg, pairs, pairs[:4], table, vocab)

    def test_a_table_changed_after_it_was_built_is_a_data_error(self):
        # targets are gathered and checked against the table's screen rows
        pairs, table, vocab, cfg = toy_world()
        table.matrix[:, :] = np.inf
        with pytest.raises(DataError, match="^pretrained table: pretrained rows changed after the table was loaded$"):
            train(cfg, pairs, pairs[:4], table, vocab)

    def test_training_on_a_loaded_table_reads_it_only_by_position(self, tmp_path, monkeypatch):
        # targets and negatives are read by position (PretrainedTable.gather), never as a whole
        # copy of the table, and training on the loaded table writes the bytes the in-memory table gives
        pairs, table, vocab, cfg = toy_world(loss_kind="rank")
        ckpt, _ = train(cfg, pairs, pairs[:4], table, vocab)
        save_checkpoint(tmp_path / "memory.ckpt", ckpt)
        loaded = load_checkpoint(tmp_path / "memory.ckpt").pretrained
        refuse_whole_reads(monkeypatch)
        again, _ = train(cfg, pairs, pairs[:4], loaded, vocab)
        save_checkpoint(tmp_path / "loaded.ckpt", again)
        assert (tmp_path / "loaded.ckpt").read_bytes() == (tmp_path / "memory.ckpt").read_bytes()

    def test_empty_sets_rejected(self):
        pairs, table, vocab, cfg = toy_world()
        with pytest.raises(DataError):
            train(cfg, [], pairs, table, vocab)
        with pytest.raises(DataError):
            train(cfg, pairs, [], table, vocab)

    def test_bpe_without_a_merge_table_rejected(self):
        pairs, table, vocab, cfg = toy_world(segmentation="bpe")
        with pytest.raises(ConfigError, match="segmentation=bpe needs a merge table"):
            train(cfg, pairs, pairs[:4], table, vocab)

    def test_unknown_head_rejected(self):
        pairs, table, vocab, _ = toy_world()
        bad = [DefinitionPair(head="nosuch", gloss=("tok1",))]
        with pytest.raises(DataError):
            encode_pairs(bad, vocab, table)


def oracle_dev_ranks(model, dev, pretrained):
    """The per-item dev pass the batched scorer replaced: one solo encode and one table GEMV per pair."""
    ranks = []
    for pair in dev:
        y = model.encode_ids(np.asarray(pair.gloss_ids, dtype=np.int64), np.array([len(pair.gloss_ids)]))
        ranks.append(rank_of_correct(y, cosine_to_all(y, pretrained), pretrained, pretrained.words[pair.head_id]).rank)
    return ranks


def dev_ranks(model, dev, pretrained, monkeypatch):
    """The ranks, in dev order, that ``_dev_median`` takes the median of."""
    seen = []
    monkeypatch.setattr(trainer, "median_rank", lambda ranks: seen.append(list(ranks)) or median_rank(ranks))
    median = trainer._dev_median(model, dev, pretrained)
    assert median == median_rank(seen[-1])
    return seen[-1]


def dev_world(table, mode, seed, n_pairs=41, max_len=12):
    """A model of encoder ``mode`` and n_pairs encoded dev pairs over ``table``, the first gloss one token long."""
    rng = np.random.default_rng(seed)
    model = DefinitionModel.create(22, 21, mode, embed_dim=6, hidden=5, output_dim=table.dimension, seed=seed)
    model.lstms[0].b[:] = rng.uniform(-0.5, 0.5, size=model.lstms[0].b.shape)
    lengths = rng.integers(1, max_len + 1, size=n_pairs)
    lengths[0] = 1
    dev = [
        EncodedPair(head_id=int(rng.integers(len(table))), gloss_ids=tuple(rng.integers(0, 21, size=n).tolist()))
        for n in lengths
    ]
    return model, dev


class TestDevPass:
    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_batched_dev_pass_matches_the_per_item_oracle(self, tied_tables, mode, monkeypatch):
        # 41 pairs make three length-sorted batches; no length filter applies
        for seed, (table, _) in enumerate(tied_tables):
            model, dev = dev_world(table, mode, seed)
            assert dev_ranks(model, dev, table, monkeypatch) == oracle_dev_ranks(model, dev, table)

    def test_dev_glosses_are_cut_at_the_training_length(self, tied_tables, monkeypatch):
        # a 151-token dev gloss ranks exactly as its first 150 tokens, the cut
        # training applies; uncut, the last token moves ranks
        table = tied_tables[0][0]
        model, dev = dev_world(table, "final", seed=4, n_pairs=20, max_len=1)
        model.embeddings.matrix *= 40.0  # so each token moves the final state
        rng = np.random.default_rng(8)
        long_dev = [EncodedPair(p.head_id, tuple(rng.integers(0, 21, size=151).tolist())) for p in dev]
        cut_dev = [EncodedPair(p.head_id, p.gloss_ids[:150]) for p in long_dev]
        assert dev_ranks(model, long_dev, table, monkeypatch) == dev_ranks(model, cut_dev, table, monkeypatch)
        assert oracle_dev_ranks(model, long_dev, table) != oracle_dev_ranks(model, cut_dev, table)


def writestr_checkpoint(path, ckpt, meta):
    """The file save_checkpoint writes, built whole in memory from ``meta`` and each array's C-order bytes: the
    oracle for its streaming."""
    arrays = {f"param/{k}": v for k, v in ckpt.model.param_dict().items()}
    arrays["pretrained"] = ckpt.pretrained.matrix
    data = {name: array.tobytes() for name, array in arrays.items()}
    layout = {name: {"shape": list(arrays[name].shape), "crc32": zlib.crc32(data[name])} for name in data}
    write_checkpoint_file(path, {**meta, "arrays": layout}, data)


def rss_file_kb():
    """This process's resident file-backed pages, in kB."""
    status = Path("/proc/self/status").read_text().splitlines()
    return int(next(line for line in status if line.startswith("RssFile:")).split()[1])


def large_checkpoint(rows, dim, vocab_size=10, embed_dim=6):
    """An untrained checkpoint over a ``rows`` x ``dim`` table of same-length words."""
    rng = np.random.default_rng(21)
    table = PretrainedTable.from_arrays([f"w{i:06d}" for i in range(rows)], rng.normal(size=(rows, dim)))
    vocab = build_word_vocab(Counter({f"tok{i}": 1 for i in range(vocab_size - 2)}), cap=vocab_size)
    config = TrainConfig(embed_dim=embed_dim, hidden_size=2, encoder_mode="final")
    model = DefinitionModel.create(
        vocab_size=len(vocab), pad_id=vocab.pad_id, mode="final", embed_dim=embed_dim, hidden=2, output_dim=dim, seed=0
    )
    return trainer.Checkpoint(
        model=model, config=config, vocab=vocab, merges=None, pretrained=table, epoch=1, dev_median_rank=1.0
    )


class TestCheckpointIO:
    def make_checkpoint(self, segmentation="word"):
        merges = None
        if segmentation == "bpe":
            merges = learn_bpe({"tok1": 5, "tok2": 5}, num_merges=3)
        pairs, table, vocab, cfg = toy_world(epochs=1, segmentation=segmentation)
        ckpt, _ = train(cfg, pairs, pairs[:4], table, vocab, merges=merges)
        return ckpt, pairs

    def test_round_trip_identity(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for name, arr in ckpt.model.param_dict().items():
            np.testing.assert_array_equal(arr, loaded.model.param_dict()[name])
        assert loaded.config == ckpt.config
        assert loaded.vocab.token_to_id == ckpt.vocab.token_to_id
        assert loaded.vocab.pad_id == ckpt.vocab.pad_id
        assert loaded.merges is None
        assert loaded.pretrained.words == ckpt.pretrained.words
        np.testing.assert_array_equal(loaded.pretrained.matrix, ckpt.pretrained.matrix)
        assert loaded.epoch == ckpt.epoch
        assert loaded.dev_median_rank == ckpt.dev_median_rank

    def test_gradient_check_of_a_loaded_model_equals_the_in_memory_one(self, tmp_path):
        # finite_diff_check reads a loaded model's file-backed embedding once, as a checked copy
        ckpt, pairs = self.make_checkpoint()
        save_checkpoint(tmp_path / "model.ckpt", ckpt)
        loaded = load_checkpoint(tmp_path / "model.ckpt").model
        encoded = encode_pairs(pairs, ckpt.vocab, ckpt.pretrained)
        batch = bucket_and_batch(encoded, pad_id=ckpt.vocab.pad_id, bucket_size=8, minibatch=4, shuffle_seed=1)[0]
        args = (batch.token_ids, batch.lengths, ckpt.pretrained.matrix[batch.head_ids], LossKind.COSINE)
        expected = finite_diff_check(ckpt.model, *args)
        assert 0.0 < expected < 1e-4
        assert finite_diff_check(loaded, *args) == expected

    def test_round_trip_keeps_merges(self, tmp_path):
        ckpt, _ = self.make_checkpoint(segmentation="bpe")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.merges.merges == ckpt.merges.merges
        assert loaded.config.segmentation == "bpe"

    def test_bytes_are_content_deterministic(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, ckpt)
        save_checkpoint(b, ckpt)
        assert a.read_bytes() == b.read_bytes()
        loaded = load_checkpoint(a)
        c = tmp_path / "c.ckpt"
        save_checkpoint(c, loaded)
        assert c.read_bytes() == a.read_bytes()

    def test_reloaded_model_reproduces_dev_metric(self, tmp_path):
        ckpt, pairs = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        report, _ = evaluate(loaded, pairs[:4], mode="definitions")
        assert report.median_rank == ckpt.dev_median_rank

    def test_truncated_file_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DataError):
            load_checkpoint(clipped)

    def test_failed_write_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        written = []

        class FailingFile:
            """The file save_checkpoint opens, with its fourth write failing as on a full disk."""

            def __init__(self, *args, **kwargs):
                self.handle = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                if len(written) == 3:
                    raise OSError("disk full")
                written.append(len(data))
                return self.handle.write(data)

        monkeypatch.setattr(trainer, "open", FailingFile, raising=False)
        ckpt.epoch += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, ckpt)
        assert len(written) == 3  # the write failed midway, not before it started
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        monkeypatch.undo()
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).epoch == ckpt.epoch
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("layout", ["word", "bpe", "strided"])
    def test_streamed_members_equal_the_writestr_archive(self, tmp_path, layout):
        ckpt, _ = self.make_checkpoint(segmentation="bpe" if layout == "bpe" else "word")
        if layout == "strided":
            # the file holds every array in C order, whatever its layout in memory
            ckpt.model.projection.weight = np.asfortranarray(ckpt.model.projection.weight)
            ckpt.model.embeddings.matrix = np.repeat(ckpt.model.embeddings.matrix, 2, axis=1)[:, ::2]
        path, oracle = tmp_path / "model.ckpt", tmp_path / "oracle.ckpt"
        save_checkpoint(path, ckpt)
        header, _ = read_checkpoint_file(path)
        del header["arrays"]
        writestr_checkpoint(oracle, ckpt, header)
        assert path.read_bytes() == oracle.read_bytes()
        loaded = load_checkpoint(path)
        for name, array in ckpt.model.param_dict().items():
            assert np.asarray(loaded.model.param_dict()[name]).tobytes() == array.tobytes()  # C order, as stored

    def test_load_peak_memory_is_one_copy_of_the_arrays(self, tmp_path):
        ckpt = large_checkpoint(rows=16_384, dim=256)
        assert ckpt.pretrained.matrix.nbytes >= 16 * 2**20
        path = tmp_path / "large.ckpt"
        save_checkpoint(path, ckpt)
        del ckpt
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [*loaded.model.param_dict().values(), loaded.pretrained.matrix]
        assert peak <= 1.2 * sum(map(nbytes, arrays))

    def test_load_peak_memory_stays_below_the_embedding(self, tmp_path):
        # the gloss embedding stays in the file like the table: a load streams it through
        # one block buffer, so its peak is far below the array it would otherwise copy
        ckpt = large_checkpoint(rows=4, dim=4, vocab_size=20_000, embed_dim=128)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(path, ckpt)
        emb_bytes = ckpt.model.embeddings.matrix.nbytes
        del ckpt
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(map(nbytes, loaded.model.param_dict().values())) == emb_bytes
        assert peak < emb_bytes

    def test_loaded_embedding_lookup_equals_the_in_memory_take(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path).model.embeddings
        ids = np.random.default_rng(3).integers(0, len(ckpt.vocab), size=(5, 7))  # repeats included
        assert loaded.lookup(ids).tobytes() == np.take(ckpt.model.embeddings.matrix, ids, axis=0).tobytes()
        assert loaded.lookup(ids[:1, :1]).shape == (1, 1, ckpt.config.embed_dim)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads RssFile from /proc/self/status")
    def test_encoding_glosses_leaves_no_embedding_pages_resident(self, tmp_path):
        # each encode reads its tokens' embedding rows by position, so 2,000 glosses over
        # a 20k-token vocabulary add no file pages to the process
        ckpt = large_checkpoint(rows=4, dim=4, vocab_size=20_000, embed_dim=128)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(path, ckpt)
        del ckpt
        model = load_checkpoint(path).model
        rng = np.random.default_rng(5)
        glosses = [rng.integers(0, 20_000, size=int(rng.integers(1, 13))) for _ in range(2_001)]
        model.encode_ids(glosses[0], np.array([glosses[0].size]))
        before = rss_file_kb()
        for ids in glosses[1:]:
            model.encode_ids(ids, np.array([ids.size]))
        assert rss_file_kb() - before < 5 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads RssFile from /proc/self/status")
    def test_answering_queries_leaves_no_table_pages_resident(self, tmp_path):
        # the table stays in the file; each ranking reads its band's rows by position,
        # not through the mapping, so 2,000 answers add no file pages to the process
        ckpt = large_checkpoint(rows=20_480, dim=128)
        path = tmp_path / "large.ckpt"
        save_checkpoint(path, ckpt)
        del ckpt
        table = load_checkpoint(path).pretrained
        queries = np.random.default_rng(4).normal(size=(2_001, 128))
        rank_by_cosine(queries[0], table, topk=10)
        before = rss_file_kb()
        for query in queries[1:]:
            rank_by_cosine(query, table, topk=10)
        assert rss_file_kb() - before < 5 * 1024

    def test_save_peak_memory_is_below_one_table(self, tmp_path):
        ckpt = large_checkpoint(rows=16_384, dim=256)
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "large.ckpt", ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a save checks the table it holds; a second table's float32 screen alone is half a table
        assert peak < ckpt.pretrained.matrix.nbytes / 2

    def test_saving_a_loaded_checkpoint_checks_its_rows_but_takes_no_fingerprints(self, tmp_path, monkeypatch):
        # the load fingerprints each embedding row for the model it builds; a save builds
        # no model, and checks the rows it copies from the file against the CRC-32 the load checked
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        calls = []
        monkeypatch.setattr(trainer, "row_fingerprints", lambda rows: calls.append(len(rows)) or row_fingerprints(rows))
        loaded = load_checkpoint(path)
        assert sum(calls) == len(ckpt.vocab)
        calls.clear()
        save_checkpoint(tmp_path / "copy.ckpt", loaded)
        assert calls == [] and (tmp_path / "copy.ckpt").read_bytes() == path.read_bytes()
        with open(path, "r+b") as handle:  # an inf written into the file after the load
            handle.seek(loaded.model.embeddings.matrix.offset + 8)
            handle.write(np.array([np.inf]).tobytes())
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: array 'param/emb' fails its CRC-32 check$"):
            save_checkpoint(tmp_path / "bad.ckpt", loaded)
        assert calls == [] and not (tmp_path / "bad.ckpt").exists()

    def test_finite_check_makes_no_array_sized_temporary(self, tmp_path):
        ckpt = large_checkpoint(rows=4, dim=4, vocab_size=100, embed_dim=20_000)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(path, ckpt)
        meta, _ = read_checkpoint_file(path)
        arrays = {f"param/{k}": v for k, v in ckpt.model.param_dict().items()}
        arrays["pretrained"] = ckpt.pretrained.matrix
        emb = arrays["param/emb"]
        tracemalloc.start()
        try:
            trainer._checkpoint_from(meta, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < emb.size // 4  # a boolean mask of emb would take emb.size bytes

    def test_meta_holds_exactly_the_meta_keys(self, tmp_path):
        ckpt, _ = self.make_checkpoint(segmentation="bpe")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        header, _ = read_checkpoint_file(path)
        assert sorted(header) == sorted([*trainer.META_KEYS, "arrays"])

    @pytest.mark.parametrize(
        "fact", ["mode", "pad-id", "embed-dim", "hidden-size", "vocab-size", "emb-dtype", "vocab-token", "merge-pair"]
    )
    def test_inconsistent_checkpoint_is_refused_and_writes_nothing(self, tmp_path, fact):
        # a load derives the mode from the config and the PAD id from the vocabulary,
        # so a model that disagrees with either would not come back as it was saved;
        # the array shapes are checked against the config and vocabulary as a load checks them
        ckpt, _ = self.make_checkpoint()
        emb = ckpt.model.embeddings.matrix.shape
        if fact == "mode":
            ckpt.config = ckpt.config.override(encoder_mode="final")
            message = "model mode 'average' is not the config's encoder_mode 'final'"
        elif fact == "pad-id":
            ckpt.model.embeddings.pad_id = 0
            message = f"model pad id 0 is not the vocabulary's {ckpt.vocab.pad_id}"
        elif fact == "embed-dim":
            ckpt.config = ckpt.config.override(embed_dim=emb[1] + 1)
            message = f"array 'param/emb' is float64 {emb}, expected float64 {(emb[0], emb[1] + 1)}"
        elif fact == "hidden-size":
            hidden = ckpt.config.hidden_size
            ckpt.config = ckpt.config.override(hidden_size=hidden + 1)
            message = (
                f"array 'param/fwd.w' is float64 {(emb[1], 4 * hidden)}, expected float64 {(emb[1], 4 * hidden + 4)}"
            )
        elif fact == "vocab-size":
            ckpt.vocab = WordVocab(ckpt.vocab.id_to_token + ["extra"])
            message = f"array 'param/emb' is float64 {emb}, expected float64 {(emb[0] + 1, emb[1])}"
        elif fact == "vocab-token":  # no input token can match an integer
            ckpt.vocab = WordVocab([7] + ckpt.vocab.id_to_token[1:])
            message = "checkpoint 'vocab' is not a list of strings"
        elif fact == "merge-pair":
            ckpt.merges = MergeTable(merges=[("a", 1)])
            message = "checkpoint merge ['a', 1] is not a pair of strings"
        else:  # the file stores float64 only, so a load never meets another dtype
            ckpt.model.embeddings.matrix = ckpt.model.embeddings.matrix.astype(np.float32)
            message = f"array 'param/emb' is float32 {emb}, expected float64 {emb}"
        with pytest.raises(ValueError) as refused:
            save_checkpoint(tmp_path / "model.ckpt", ckpt)
        assert str(refused.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_deeply_nested_header_is_a_data_error(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on a header nested past the interpreter's limit
        path = tmp_path / "deep.ckpt"
        path.write_bytes(framed_header(b"[" * 100_000 + b"]" * 100_000))
        with pytest.raises(DataError, match=f"^{path}: unreadable checkpoint \\(maximum recursion depth exceeded"):
            load_checkpoint(path)

    def test_non_checkpoint_zip_rejected(self, tmp_path):
        import zipfile

        path = tmp_path / "other.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("meta.json", "{}")
        with pytest.raises(DataError, match="not a revdict checkpoint"):
            load_checkpoint(path)


def block_rows(monkeypatch, rows):
    """Set the rows per block of a load's streamed pass and of the in-memory table's pass."""
    monkeypatch.setattr(embeddings, "NORM_BLOCK_ROWS", rows)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


def rewrite_array(source, path, name, edit, keep_crc=True):
    """Copy checkpoint ``source`` to ``path`` with ``edit`` applied to array ``name``'s bytes (a bytearray).

    With ``keep_crc`` the header keeps the array's old CRC-32, which the edited bytes then fail.
    """
    header, arrays = read_checkpoint_file(source)
    data = bytearray(arrays[name])
    edit(data)
    arrays[name] = bytes(data)
    if not keep_crc:
        header["arrays"][name]["crc32"] = zlib.crc32(arrays[name])
    write_checkpoint_file(path, header, arrays)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts descriptors in /proc/self/fd")
class TestStreamedLoad:
    """The load's reader thread: each of the two large arrays is read and CRC-checked a block ahead of its use."""

    BLOCK = 7  # rows per block, so the table and the embedding each take several blocks

    @pytest.fixture
    def saved(self, tmp_path, monkeypatch):
        block_rows(monkeypatch, self.BLOCK)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, large_checkpoint(rows=60, dim=5, vocab_size=40, embed_dim=6))
        return path

    def fails_cleanly(self, call, error, message):
        """Run ``call``, a load or a save, which must raise ``error`` with ``message``, and leave no thread or descriptor.

        The reader has stopped by the time the error leaves the call.  The
        garbage collector is off, so nothing the call opened waits for it.
        """
        threads, descriptors = threading.active_count(), open_descriptors()
        gc.disable()
        try:
            try:
                call()
            except error as exc:
                assert str(exc) == message
                assert threading.active_count() == threads
            else:
                raise AssertionError("no error")
            assert open_descriptors() == descriptors
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "call, name",
        [(0, "param/emb"), (3, "param/emb"), (6, "pretrained"), (14, "pretrained")],
        ids=["emb-first-block", "emb-later-block", "table-first-block", "table-last-block"],
    )
    def test_a_short_read_is_a_data_error(self, saved, monkeypatch, call, name):
        # the embedding's 40 rows take reads 0-5 and the table's 60 rows reads 6-14 (name order: the
        # embedding's pass runs first); read ``call`` returns 8 bytes short, as at the end of a file
        preadv, calls = os.preadv, []

        def short(fd, buffers, offset):
            calls.append(offset)
            got = preadv(fd, buffers, offset)
            return got - 8 if len(calls) == call + 1 else got

        monkeypatch.setattr(embeddings.os, "preadv", short)
        self.fails_cleanly(lambda: load_checkpoint(saved), DataError, f"{saved}: array {name!r} runs past the end of the file")
        assert len(calls) == call + 1  # nothing is read after the short read

    @pytest.mark.parametrize(
        "name, at",
        [("param/emb", 8 * 6 * 20), ("pretrained", 8 * 5 * 59)],  # row 20 of 40 at E=6, row 59 of 60 at D=5
        ids=["emb-middle-block", "table-last-block"],
    )
    def test_a_flipped_byte_fails_the_crc_check(self, saved, tmp_path, name, at):
        broken = tmp_path / "broken.ckpt"

        def flip(data):  # the lowest mantissa byte of a row's first entry, so every entry stays finite
            data[at] ^= 1

        rewrite_array(saved, broken, name, flip)
        self.fails_cleanly(lambda: load_checkpoint(broken), DataError, f"{broken}: array {name!r} fails its CRC-32 check")

    def test_a_non_finite_embedding_entry_in_the_first_block(self, saved, tmp_path):
        # the reader has the second block in hand when the first block's check raises
        broken = tmp_path / "broken.ckpt"

        def inf(data):  # row 0's second entry
            data[8:16] = np.array([np.inf]).tobytes()

        rewrite_array(saved, broken, "param/emb", inf, keep_crc=False)
        message = f"{broken}: array 'param/emb' has a non-finite entry"
        self.fails_cleanly(lambda: load_checkpoint(broken), NonFiniteLossError, message)

    def test_a_load_leaves_no_reader_running(self, saved):
        threads = threading.active_count()
        load_checkpoint(saved)
        assert threading.active_count() == threads

    def test_a_save_of_a_loaded_checkpoint_reads_each_file_backed_array_once(self, saved, tmp_path, monkeypatch):
        # the header takes the CRC-32 the load checked, and one streamed pass both copies and checks the rows
        loaded = load_checkpoint(saved)
        preadv, read = os.preadv, []

        def counted(fd, buffers, offset):
            read.append(preadv(fd, buffers, offset))
            return read[-1]

        monkeypatch.setattr(embeddings.os, "preadv", counted)
        refuse_whole_reads(monkeypatch)
        save_checkpoint(tmp_path / "copy.ckpt", loaded)
        assert sum(read) == nbytes(loaded.pretrained.matrix) + nbytes(loaded.model.embeddings.matrix)
        assert (tmp_path / "copy.ckpt").read_bytes() == saved.read_bytes()

    @pytest.mark.parametrize(
        "call, name", [(3, "param/emb"), (14, "pretrained")], ids=["emb-later-block", "table-last-block"]
    )
    def test_a_short_read_fails_the_save(self, saved, tmp_path, monkeypatch, call, name):
        # as in the load, the embedding's 40 rows take reads 0-5 and the table's 60 rows reads 6-14
        loaded, before = load_checkpoint(saved), sorted(tmp_path.iterdir())
        preadv, calls = os.preadv, []

        def short(fd, buffers, offset):
            calls.append(offset)
            got = preadv(fd, buffers, offset)
            return got - 8 if len(calls) == call + 1 else got

        monkeypatch.setattr(embeddings.os, "preadv", short)
        message = f"{saved}: array {name!r} runs past the end of the file"
        self.fails_cleanly(lambda: save_checkpoint(tmp_path / "copy.ckpt", loaded), DataError, message)
        assert len(calls) == call + 1 and sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "name, row", [("param/emb", 20), ("pretrained", 59)], ids=["emb-middle-block", "table-last-block"]
    )
    def test_a_file_changed_since_the_load_fails_the_save(self, saved, tmp_path, name, row):
        loaded, before = load_checkpoint(saved), sorted(tmp_path.iterdir())
        matrix = loaded.pretrained.matrix if name == "pretrained" else loaded.model.embeddings.matrix
        with open(saved, "r+b") as handle:  # the lowest mantissa byte of the row's first entry
            handle.seek(matrix.offset + row * matrix.shape[1] * 8)
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte ^ 1]))
        message = f"{saved}: array {name!r} fails its CRC-32 check"
        self.fails_cleanly(lambda: save_checkpoint(tmp_path / "copy.ckpt", loaded), DataError, message)
        assert sorted(tmp_path.iterdir()) == before

    def test_numpy_reads_a_loaded_array_only_as_a_checked_copy(self, saved):
        # np.asarray of a FileMatrix is a copy read by its block reader; there is no view of the file
        matrix = load_checkpoint(saved).pretrained.matrix
        assert not isinstance(matrix, np.ndarray)
        copy = np.asarray(matrix)
        assert copy.tobytes() == matrix.read(np.arange(60)).tobytes()
        with pytest.raises(ValueError, match="can only be copied"):
            np.asarray(matrix, copy=False)
        with open(saved, "r+b") as handle:  # the lowest mantissa byte of row 30's first entry
            handle.seek(matrix.offset + 30 * 5 * 8)
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte ^ 1]))
        self.fails_cleanly(lambda: np.asarray(matrix), DataError, f"{saved}: array 'pretrained' fails its CRC-32 check")

    @pytest.mark.parametrize("fail", [2, 16], ids=["emb-first-block", "table-middle-block"])
    def test_a_failed_write_stops_the_reader(self, saved, tmp_path, monkeypatch, fail):
        # writes 0 and 1 are the prefix and the header, 2-7 the embedding's blocks, 8-12 the five small
        # arrays and 13-21 the table's blocks; write ``fail`` raises while the reader holds the next block
        loaded, before = load_checkpoint(saved), sorted(tmp_path.iterdir())
        writes = []

        class FullDisk(io.FileIO):
            def write(self, data):
                writes.append(len(data))
                if len(writes) == fail + 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        monkeypatch.setattr(trainer, "open", lambda path, mode: FullDisk(path, mode.replace("b", "")), raising=False)
        message = "[Errno 28] No space left on device"
        self.fails_cleanly(lambda: save_checkpoint(tmp_path / "copy.ckpt", loaded), OSError, message)
        assert len(writes) == fail + 1 and sorted(tmp_path.iterdir()) == before

    def test_each_block_is_left_alone_until_the_next_is_asked_for(self, saved):
        # the reader fills the other buffer meanwhile; a slow caller still sees each block as read
        header, arrays = read_checkpoint_file(saved)
        rows = np.frombuffer(arrays["pretrained"], "<f8").reshape(header["arrays"]["pretrained"]["shape"])
        offset = len(saved.read_bytes()) - sum(map(len, arrays.values()))
        offset += sum(len(arrays[name]) for name in sorted(arrays) if name < "pretrained")
        crc = header["arrays"]["pretrained"]["crc32"]
        with open(saved, "rb") as handle:
            stream = FileMatrix(handle, offset, rows.shape, crc, "pretrained").blocks()
            lo = 0
            for block in stream:
                time.sleep(0.002)
                assert block.tobytes() == rows[lo : lo + len(block)].tobytes()
                lo += len(block)
        assert lo == len(rows)

    @pytest.mark.parametrize(
        "rows_per_block", [1, 7, embeddings.NORM_BLOCK_ROWS, None], ids=["1", "7", "default", "whole"]
    )
    def test_a_loaded_table_equals_the_in_memory_build_bitwise(self, tmp_path, monkeypatch, rows_per_block):
        ckpt = large_checkpoint(rows=2 * embeddings.NORM_BLOCK_ROWS + 37, dim=30, vocab_size=300, embed_dim=20)
        rng = np.random.default_rng(9)  # entries over many magnitudes
        words = ckpt.pretrained.words
        matrix = ckpt.pretrained.matrix * np.exp(rng.uniform(-20, 20, (len(words), 1)))
        ckpt.pretrained = PretrainedTable.from_arrays(words, matrix)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        block_rows(monkeypatch, len(matrix))
        oracle = PretrainedTable.from_arrays(words, matrix)  # one block: the whole-table norm and divide
        block_rows(monkeypatch, rows_per_block or len(matrix))
        loaded = load_checkpoint(path)
        assert loaded.pretrained.norms.tobytes() == oracle.norms.tobytes() == np.linalg.norm(matrix, axis=1).tobytes()
        assert loaded.pretrained.screen.tobytes() == oracle.screen.tobytes()
        emb = ckpt.model.embeddings.matrix
        assert loaded.model.embeddings.fingerprints.tobytes() == row_fingerprints(emb).tobytes()
