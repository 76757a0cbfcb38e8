"""Loss, sampling, and backpropagation tests (finite differences as oracle)."""

import copy

import numpy as np
import pytest

from revdict import objective
from revdict.encoder import DefinitionModel, EncoderMode
from revdict.errors import NonFiniteLossError
from revdict.objective import (
    GradientSet,
    LossKind,
    MARGIN,
    backward,
    batch_loss,
    cosine,
    cosine_loss,
    finite_diff_check,
    rank_loss,
    sample_negative,
    _forward,
    _replica_losses,
)


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
            grads.lstm.u_f = grads.lstm.u_f * 0.5
            return loss, grads

        assert np.any(true_backward(model, ids, lengths, targets, LossKind.COSINE)[1].lstm.u_f)
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

    def test_finite_diff_check_leaves_model_bitwise_unchanged(self):
        model, ids, lengths, targets, negatives = toy_setup("bidirectional", seed=5)
        before = {name: arr.tobytes() for name, arr in model.param_dict().items()}
        finite_diff_check(model, ids, lengths, targets, LossKind.RANK, targets + 0.3 * negatives)
        after = {name: arr.tobytes() for name, arr in model.param_dict().items()}
        assert after == before

    def test_inactive_hinge_gives_zero_gradients(self):
        model, ids, lengths, _, _ = toy_setup("average", seed=2)
        y, _ = _forward(model, ids, lengths)
        loss, grads = backward(model, ids, lengths, y.copy(), LossKind.RANK, -y.copy())
        assert loss == 0.0
        for name, g in grads.as_dict().items():
            assert np.all(g == 0.0), name

    def test_pad_row_and_untouched_rows_get_zero_gradient(self):
        model, ids, lengths, targets, _ = toy_setup("average", seed=3, vocab=12)
        _, grads = backward(model, ids, lengths, targets, LossKind.COSINE)
        emb = grads.embeddings
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
        # batch_loss probes the inference path while backward differentiates
        # the traced one; they must compute the very same function
        for mode in EncoderMode:
            model, ids, lengths, _, _ = toy_setup(mode, seed=11)
            y, _ = _forward(model, ids, lengths)
            np.testing.assert_array_equal(y, model.encode_ids(ids, lengths))

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
        with pytest.raises(NonFiniteLossError):
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
