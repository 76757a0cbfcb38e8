"""Loss, sampling, and backpropagation tests (finite differences as oracle)."""

import copy

import numpy as np
import pytest

from revdict import encoder, objective
from revdict.encoder import DefinitionModel, EncoderMode, forward, sigmoid
from revdict.errors import NonFiniteLossError
from revdict.objective import (
    LossKind,
    MARGIN,
    RowGradient,
    backward,
    batch_loss,
    cosine,
    finite_diff_check,
    sample_negative,
    _replica_losses,
)

GATES = "ifog"


def cosine_loss(y, target):
    """1 - cos(y, target); 0 when aligned, 2 when opposite."""
    return 1.0 - cosine(y, target)


def rank_loss(y, target, confounder, margin=MARGIN):
    """Hinge on the cosine gap between target and confounder."""
    return max(0.0, margin - cosine(y, target) + cosine(y, confounder))


class TestScalarLosses:
    def test_cosine_endpoints(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0)
        assert cosine(v, -v) == pytest.approx(-1.0)
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))

    def test_cosine_loss_range_and_identity(self):
        v = np.array([0.5, -1.0, 2.0])
        assert cosine_loss(v, v) == pytest.approx(0.0)
        assert cosine_loss(v, -v) == pytest.approx(2.0)
        assert cosine_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = rng.normal(size=(2, 4))
            assert cosine_loss(a, b) + cosine(a, b) == pytest.approx(1.0)

    def test_rank_loss_values(self):
        y = np.array([1.0, 0.0])
        t = np.array([1.0, 0.0])
        r = np.array([0.0, 1.0])
        # aligned with target, orthogonal confounder: hinge inactive
        assert rank_loss(y, t, r) == 0.0
        # equal similarity to target and confounder: exactly the margin
        assert rank_loss(y, t, t) == pytest.approx(MARGIN)
        # worst case: orthogonal to target, aligned with confounder
        assert rank_loss(np.array([0.0, 1.0]), t, np.array([0.0, 2.0])) == pytest.approx(1.1)

    def test_rank_loss_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y, t, r = rng.normal(size=(3, 5))
            val = rank_loss(y, t, r)
            assert 0.0 <= val <= MARGIN + 2.0
            assert rank_loss(3.0 * y, 0.5 * t, 7.0 * r) == pytest.approx(val)


class TestSampleNegative:
    def test_two_candidates_always_the_other(self):
        rng = np.random.default_rng(0)
        assert all(sample_negative(2, 0, rng) == 1 for _ in range(20))
        assert all(sample_negative(2, 1, rng) == 0 for _ in range(20))

    def test_deterministic_under_seed(self):
        a = [sample_negative(50, 7, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_negative(50, 7, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_never_returns_correct_and_uniform(self):
        rng = np.random.default_rng(42)
        n, correct, draws = 10, 3, 100_000
        counts = np.zeros(n, dtype=int)
        for _ in range(draws):
            counts[sample_negative(n, correct, rng)] += 1
        assert counts[correct] == 0
        expected = draws / (n - 1)
        sigma = np.sqrt(draws * (1 / 9) * (8 / 9))
        others = np.delete(counts, correct)
        assert np.all(np.abs(others - expected) < 3.5 * sigma)

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_negative(1, 0, rng)
        with pytest.raises(ValueError):
            sample_negative(5, 5, rng)


def toy_setup(mode, seed=0, vocab=8, embed=4, hidden=4, out=5, batch=3, max_len=4):
    rng = np.random.default_rng(seed)
    pad = vocab - 1
    model = DefinitionModel.create(
        vocab, pad_id=pad, mode=mode, embed_dim=embed, hidden=hidden, output_dim=out, seed=seed
    )
    # re-draw parameters at O(1) scale: the production init keeps |y| tiny,
    # which is fine for training but ill-conditioned for finite differences
    for arr in model.param_dict().values():
        arr[:] = rng.uniform(-0.9, 0.9, size=arr.shape)
    model.embeddings.matrix[pad] = 0.0
    lengths = rng.integers(1, max_len + 1, size=batch)
    ids = np.full((batch, max_len), pad, dtype=np.int64)
    for b, n in enumerate(lengths):
        ids[b, :n] = rng.integers(0, vocab - 1, size=n)
    targets = rng.normal(size=(batch, out))
    negatives = rng.normal(size=(batch, out))
    return model, ids, lengths, targets, negatives


def per_gate(params):
    """The gate blocks of each fused array, as views: ``per_gate(p)["w"]["f"]`` is (E, H)."""
    return {kind: dict(zip(GATES, np.split(getattr(params, kind), 4, axis=-1))) for kind in "wub"}


def reverse_within_lengths(x_seq, lengths):
    """Reverse each row's first ``lengths[b]`` positions, leaving the tail (row by row)."""
    out = x_seq.copy()
    for b, n in enumerate(lengths):
        out[b, :n] = x_seq[b, :n][::-1]
    return out


def oracle_trace(params, x_seq):
    """Per-gate step loop recording every gate, state and shifted state, as (B, L, H) arrays."""
    batch, length, _ = x_seq.shape
    w, u, b = per_gate(params).values()
    h = np.zeros((batch, params.hidden))
    c = np.zeros_like(h)
    columns = {name: [] for name in ("i", "f", "o", "g", "c", "h", "c_prev", "h_prev")}
    for t in range(length):
        values = {
            name: (np.tanh if name == "g" else sigmoid)(x_seq[:, t] @ w[name] + h @ u[name] + b[name])
            for name in GATES
        }
        values["c_prev"], values["h_prev"] = c, h
        c = values["f"] * c + values["i"] * values["g"]
        h = values["o"] * np.tanh(c)
        values["c"], values["h"] = c, h
        for name, value in values.items():
            columns[name].append(value)
    return {name: np.stack(column, axis=1) for name, column in columns.items()}


def oracle_lstm_backward(params, x_seq, trace, dh_inject):
    """Backpropagation through time one step and one gate at a time, as it ran before the GEMM-shaped BPTT."""
    batch, length, _ = x_seq.shape
    blocks = per_gate(params)
    grads = {f"{kind}_{name}": np.zeros(blocks[kind][name].shape) for kind in "wub" for name in GATES}
    dx = np.zeros_like(x_seq)
    dh_next = np.zeros((batch, params.hidden))
    dc_next = np.zeros((batch, params.hidden))
    for t in reversed(range(length)):
        i, f, o, g = (trace[name][:, t] for name in GATES)
        c, c_prev, h_prev = trace["c"][:, t], trace["c_prev"][:, t], trace["h_prev"][:, t]
        tanh_c = np.tanh(c)
        dh = dh_inject[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz = {
            "o": dh * tanh_c * o * (1.0 - o),
            "i": dc * g * i * (1.0 - i),
            "g": dc * i * (1.0 - g**2),
            "f": dc * c_prev * f * (1.0 - f),
        }
        dc_next = dc * f
        dh_next = np.zeros_like(dh_next)
        for name in GATES:
            grads[f"w_{name}"] += x_seq[:, t].T @ dz[name]
            grads[f"u_{name}"] += h_prev.T @ dz[name]
            grads[f"b_{name}"] += dz[name].sum(axis=0)
            dx[:, t] += dz[name] @ blocks["w"][name].T
            dh_next += dz[name] @ blocks["u"][name].T
    fused = {kind: np.concatenate([grads[f"{kind}_{name}"] for name in GATES], axis=-1) for kind in "wub"}
    return dx, fused


def oracle_gradients(model, token_ids, lengths, targets, loss_kind, negatives):
    """Every gradient of the mean batch loss, by name, from the per-gate oracles and loops."""
    x_seq = model.embeddings.matrix[token_ids]
    rows = np.arange(token_ids.shape[0])
    mask = np.arange(token_ids.shape[1])[None, :] < lengths[:, None]
    bidirectional = model.mode is EncoderMode.BIDIRECTIONAL
    inputs = [x_seq, reverse_within_lengths(x_seq, lengths)] if bidirectional else [x_seq]
    directions = list(zip(("fwd", "bwd"), model.lstms))
    traces = [oracle_trace(params, x) for (_, params), x in zip(directions, inputs)]
    if model.mode is EncoderMode.AVERAGE:
        pre = (traces[0]["h"] * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    else:
        pre = np.concatenate([trace["h"][rows, lengths - 1] for trace in traces], axis=1)
    y = np.tanh(pre @ model.projection.weight + model.projection.bias)
    _, dy = objective._loss_and_dy(y, targets, LossKind(loss_kind), negatives)
    dp = dy * (1.0 - y**2)
    grads = {"proj.w": pre.T @ dp, "proj.b": dp.sum(axis=0)}
    d_pre = dp @ model.projection.weight.T
    hidden = model.lstms[0].hidden
    dx = np.zeros_like(x_seq)
    for k, ((prefix, params), x, trace) in enumerate(zip(directions, inputs, traces)):
        dh_inject = np.zeros(trace["h"].shape)
        if model.mode is EncoderMode.AVERAGE:
            dh_inject[:] = (d_pre / lengths[:, None])[:, None, :] * mask[:, :, None]
        else:
            dh_inject[rows, lengths - 1] = d_pre[:, k * hidden : (k + 1) * hidden]
        dx_dir, fused = oracle_lstm_backward(params, x, trace, dh_inject)
        dx += reverse_within_lengths(dx_dir, lengths) if prefix == "bwd" else dx_dir
        grads.update({f"{prefix}.{kind}": value for kind, value in fused.items()})
    emb = np.zeros(model.embeddings.matrix.shape)
    np.add.at(emb, token_ids.ravel(), dx.reshape(-1, dx.shape[-1]))
    emb[model.embeddings.pad_id] = 0.0
    grads["emb"] = emb
    return grads


class TestBackward:
    @pytest.mark.parametrize("mode", list(EncoderMode))
    @pytest.mark.parametrize("loss_kind", list(LossKind))
    def test_matches_finite_differences(self, mode, loss_kind):
        # negatives near the targets keep the rank hinge active, so the
        # gradient under check is not identically zero
        model, ids, lengths, targets, noise = toy_setup(mode, seed=5)
        negatives = targets + 0.3 * noise if loss_kind is LossKind.RANK else None
        assert batch_loss(model, ids, lengths, targets, loss_kind, negatives) > 0.0
        err = finite_diff_check(model, ids, lengths, targets, loss_kind, negatives)
        assert err < 1e-4

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_catches_a_halved_gate_gradient(self, mode, monkeypatch):
        model, ids, lengths, targets, _ = toy_setup(mode, seed=5)
        true_backward = objective.backward

        def halved_forget_gate(*args, **kwargs):
            loss, grads = true_backward(*args, **kwargs)
            np.split(grads["fwd.u"], 4, axis=-1)[GATES.index("f")][:] *= 0.5
            return loss, grads

        grads = true_backward(model, ids, lengths, targets, LossKind.COSINE)[1]
        assert np.any(np.split(grads["fwd.u"], 4, axis=-1)[GATES.index("f")])
        monkeypatch.setattr(objective, "backward", halved_forget_gate)
        assert finite_diff_check(model, ids, lengths, targets, LossKind.COSINE) > 1e-4

    def test_replica_budget_does_not_change_the_result(self, monkeypatch):
        # a budget of one element scores a single +/- pair per pass; every
        # entry must still be moved both ways exactly once
        model, ids, lengths, targets, negatives = toy_setup("bidirectional", seed=5)
        negatives = targets + 0.3 * negatives
        whole = finite_diff_check(model, ids, lengths, targets, LossKind.RANK, negatives)
        passes = []

        def recording(model, name, entries, deltas, *args):
            passes.append((name, entries, deltas))
            return _replica_losses(model, name, entries, deltas, *args)

        monkeypatch.setattr(objective, "REPLICA_ELEMENTS", 1)
        monkeypatch.setattr(objective, "_replica_losses", recording)
        err = finite_diff_check(model, ids, lengths, targets, LossKind.RANK, negatives)
        assert err == pytest.approx(whole, rel=1e-6)
        for name, param in model.param_dict().items():
            mine = [(entries, deltas) for key, entries, deltas in passes if key == name]
            assert all(len(entries) == 2 for entries, _ in mine)
            np.testing.assert_array_equal(
                np.concatenate([entries for entries, _ in mine]), np.repeat(np.arange(param.size), 2)
            )
            np.testing.assert_array_equal(
                np.concatenate([deltas for _, deltas in mine]), np.tile([1e-4, -1e-4], param.size)
            )

    @pytest.mark.parametrize("max_len", [1, 5])
    @pytest.mark.parametrize("mode", list(EncoderMode))
    @pytest.mark.parametrize("loss_kind", list(LossKind))
    def test_matches_the_per_gate_oracle(self, mode, loss_kind, max_len):
        # the GEMM-shaped BPTT sums in another order than the per-step,
        # per-gate loop it replaced, so the two agree to rounding, not bits;
        # batches of mixed length exercise the masks and the reversal
        model, ids, lengths, targets, noise = toy_setup(mode, seed=6, batch=4, max_len=max_len)
        if max_len > 1:
            lengths[:2] = (max_len, 2)
        negatives = targets + 0.3 * noise if loss_kind is LossKind.RANK else None
        _, grads = backward(model, ids, lengths, targets, loss_kind, negatives)
        expected = oracle_gradients(model, ids, lengths, targets, loss_kind, negatives)
        got = grads.as_dict()
        assert set(got) == set(expected)
        for name, want in expected.items():
            scale = np.abs(want).max()
            # with one step there is no h_prev, so only the recurrent matrices have a zero gradient
            assert (scale == 0.0) == (max_len == 1 and name.endswith(".u")), name
            np.testing.assert_allclose(got[name], want, rtol=0.0, atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_gradients_follow_the_parameter_layout(self, mode):
        model, ids, lengths, targets, _ = toy_setup(mode, seed=5)
        _, grads = backward(model, ids, lengths, targets, LossKind.COSINE)
        params = model.param_dict()
        dense = grads.as_dict()
        assert list(dense) == list(grads) == list(params)
        assert all(dense[name].shape == param.shape for name, param in params.items())
        assert isinstance(grads["emb"], RowGradient)
        np.testing.assert_array_equal(grads["emb"].dense(), dense["emb"])

    def test_finite_diff_check_leaves_model_bitwise_unchanged(self):
        model, ids, lengths, targets, negatives = toy_setup("bidirectional", seed=5)
        before = {name: arr.tobytes() for name, arr in model.param_dict().items()}
        finite_diff_check(model, ids, lengths, targets, LossKind.RANK, targets + 0.3 * negatives)
        after = {name: arr.tobytes() for name, arr in model.param_dict().items()}
        assert after == before

    def test_inactive_hinge_gives_zero_gradients(self):
        model, ids, lengths, _, _ = toy_setup("average", seed=2)
        y = model.encode_ids(ids, lengths)
        loss, grads = backward(model, ids, lengths, y.copy(), LossKind.RANK, -y.copy())
        assert loss == 0.0
        for name, g in grads.as_dict().items():
            assert np.all(g == 0.0), name

    def test_pad_row_and_untouched_rows_get_zero_gradient(self):
        model, ids, lengths, targets, _ = toy_setup("average", seed=3, vocab=12)
        _, grads = backward(model, ids, lengths, targets, LossKind.COSINE)
        emb = grads.as_dict()["emb"]
        assert np.all(emb[model.embeddings.pad_id] == 0.0)
        untouched = set(range(12)) - set(ids.ravel().tolist())
        for row in untouched:
            assert np.all(emb[row] == 0.0)
        touched = sorted(set(ids[np.arange(len(lengths))[:, None], :].ravel().tolist()) - {model.embeddings.pad_id})
        assert any(np.any(emb[row] != 0.0) for row in touched)

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_padding_does_not_change_gradients(self, mode):
        model, _, _, _, _ = toy_setup(mode, seed=7)
        rng = np.random.default_rng(8)
        seq = rng.integers(0, 7, size=3)
        target = rng.normal(size=(1, 5))
        pad = model.embeddings.pad_id
        solo_ids = seq[None, :]
        padded_ids = np.concatenate([seq, [pad, pad]])[None, :]
        loss_a, grads_a = backward(model, solo_ids, np.array([3]), target, LossKind.COSINE)
        loss_b, grads_b = backward(model, padded_ids, np.array([3]), target, LossKind.COSINE)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        for name, g in grads_a.as_dict().items():
            np.testing.assert_allclose(g, grads_b.as_dict()[name], atol=1e-12, err_msg=name)

    def test_forward_agrees_with_encoder_inference(self):
        # batch_loss probes the forward without a trace (encode_ids) while
        # backward differentiates the recorded one; they must agree bitwise
        for mode in EncoderMode:
            model, ids, lengths, _, _ = toy_setup(mode, seed=11)
            y, _ = forward(model, ids, lengths, objective.run_lstm, record=True)
            assert y.tobytes() == model.encode_ids(ids, lengths).tobytes()
            assert y.tobytes() == forward(model, ids, lengths, objective.run_lstm)[0].tobytes()

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_each_path_runs_the_recurrence_under_its_own_name(self, mode, monkeypatch):
        # the benchmark's tracer times training at objective.run_lstm and
        # inference at encoder.run_lstm_states, replacing each name when the
        # run starts: every path must look its recurrence up there, at call time
        model, ids, lengths, targets, _ = toy_setup(mode, seed=5)
        calls = {}

        def counting(site, run):
            def wrapper(*args, **kwargs):
                calls[site] += 1
                return run(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(objective, "run_lstm", counting("training", objective.run_lstm))
        monkeypatch.setattr(encoder, "run_lstm_states", counting("inference", encoder.run_lstm_states))

        def counted(call):
            calls.update(training=0, inference=0)
            call()
            return calls["training"], calls["inference"]

        directions = 2 if mode is EncoderMode.BIDIRECTIONAL else 1
        replicas = ("proj.b", np.array([0, 0]), np.array([1e-4, -1e-4]))
        assert counted(lambda: backward(model, ids, lengths, targets, LossKind.COSINE)) == (directions, 0)
        assert counted(lambda: _replica_losses(model, *replicas, ids, lengths, targets, LossKind.COSINE)) == (
            directions, 0
        )
        assert counted(lambda: model.encode_ids(ids, lengths)) == (0, directions)
        assert counted(lambda: batch_loss(model, ids, lengths, targets, LossKind.COSINE)) == (0, directions)

    @pytest.mark.parametrize("mode", list(EncoderMode))
    @pytest.mark.parametrize("loss_kind", list(LossKind))
    def test_replica_losses_match_batch_loss(self, mode, loss_kind):
        # the stacked evaluator inside finite_diff_check against the
        # one-model-at-a-time path it replaces; negatives near the targets
        # keep every hinge row active
        model, ids, lengths, targets, noise = toy_setup(mode, seed=5)
        negatives = targets + 0.3 * noise if loss_kind is LossKind.RANK else None
        for name, param in model.param_dict().items():
            entries = np.arange(param.size)
            deltas = np.where(entries % 2 == 0, 1e-4, -1e-4)
            got = _replica_losses(
                model, name, entries, deltas, ids, lengths, targets, loss_kind, negatives
            )
            expected = []
            for entry, delta in zip(entries, deltas):
                replica = copy.deepcopy(model)
                replica.param_dict()[name].reshape(-1)[entry] += delta
                expected.append(batch_loss(replica, ids, lengths, targets, loss_kind, negatives))
            assert min(expected) > 0.0
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0, err_msg=name)

    def test_replica_losses_raise_like_batch_loss(self):
        model, ids, lengths, targets, negatives = toy_setup("final", seed=1)
        replicas = ("proj.b", np.array([0, 0]), np.array([1e-4, -1e-4]))
        negatives[1, :] = np.inf
        with pytest.raises(NonFiniteLossError):
            _replica_losses(model, *replicas, ids, lengths, targets, LossKind.RANK, negatives)
        lengths[0] = 0
        with pytest.raises(ValueError, match="all-pad"):
            _replica_losses(model, *replicas, ids, lengths, targets, LossKind.COSINE)

    def test_non_finite_loss_raises(self):
        model, ids, lengths, targets, _ = toy_setup("final", seed=1)
        targets[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError, match="non-finite cosine in loss"):
            batch_loss(model, ids, lengths, targets, LossKind.COSINE)
        with pytest.raises(NonFiniteLossError, match="non-finite cosine in loss"):
            backward(model, ids, lengths, targets, LossKind.COSINE)

    def test_zero_norm_target_and_missing_negatives_are_refused(self):
        model, ids, lengths, targets, _ = toy_setup("final", seed=1)
        with pytest.raises(ValueError, match="rank loss needs negative targets"):
            batch_loss(model, ids, lengths, targets, LossKind.RANK)
        targets[0] = 0.0
        with pytest.raises(ValueError, match="cosine of a zero-norm vector is undefined"):
            batch_loss(model, ids, lengths, targets, LossKind.COSINE)

    def test_non_finite_rank_loss_raises_instead_of_scoring_zero(self):
        # nan similarities must not slip through the hinge as inactive rows
        model, ids, lengths, targets, negatives = toy_setup("final", seed=1)
        negatives[1, :] = np.inf
        with pytest.raises(NonFiniteLossError):
            batch_loss(model, ids, lengths, targets, LossKind.RANK, negatives)

    def test_gradient_set_keys_mirror_params(self):
        model, ids, lengths, targets, negatives = toy_setup("bidirectional", seed=4)
        _, grads = backward(model, ids, lengths, targets, LossKind.RANK, negatives)
        gdict = grads.as_dict()
        pdict = model.param_dict()
        assert set(gdict) == set(pdict)
        for name in pdict:
            assert gdict[name].shape == pdict[name].shape, name
