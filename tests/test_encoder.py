"""LSTM step/encode/projection tests against hand-derived and fold oracles."""

import math

import numpy as np
import pytest

from revdict.encoder import (
    EncoderMode,
    LSTMParams,
    Projection,
    DefinitionModel,
    encode,
    init_lstm,
    lstm_step,
    project,
    run_lstm,
    run_lstm_states,
)

# Hand evaluation of the gate equations for E=H=1, all weights 1, biases 0,
# x=1, h0=c0=0: every gate pre-activation is 1, so c1 = sigma(1)*tanh(1) and
# h1 = sigma(1)*tanh(c1).
SCALAR_C1 = 0.5567699411459397
SCALAR_H1 = 0.36960635293570576


def ones_params():
    p = LSTMParams.zeros(1, 1)
    for name in LSTMParams.FIELDS:
        if name.startswith(("w_", "u_")):
            getattr(p, name)[:] = 1.0
    return p


def oracle_fold(params, x_seq):
    """Plain-python LSTM fold, one hidden unit at a time."""

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    hidden = params.hidden
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    states = []
    for x in x_seq:
        h_new = np.zeros(hidden)
        c_new = np.zeros(hidden)
        for j in range(hidden):
            pre = {}
            for gate in "ifog":
                w = getattr(params, f"w_{gate}")
                u = getattr(params, f"u_{gate}")
                b = getattr(params, f"b_{gate}")
                pre[gate] = (
                    sum(x[k] * w[k, j] for k in range(len(x)))
                    + sum(h[k] * u[k, j] for k in range(hidden))
                    + b[j]
                )
            i, f, o = sig(pre["i"]), sig(pre["f"]), sig(pre["o"])
            g = math.tanh(pre["g"])
            c_new[j] = f * c[j] + i * g
            h_new[j] = o * math.tanh(c_new[j])
        h, c = h_new, c_new
        states.append(h.copy())
    return np.array(states)


class TestLstmStep:
    def test_zero_parameters_give_zero_state(self):
        p = LSTMParams.zeros(3, 2)
        h, c = lstm_step(p, np.array([5.0, -1.0, 2.0]), np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(c, 0.0)

    def test_scalar_hand_derivation(self):
        h, c = lstm_step(ones_params(), np.ones(1), np.zeros(1), np.zeros(1))
        assert c[0] == pytest.approx(SCALAR_C1, abs=1e-14)
        assert h[0] == pytest.approx(SCALAR_H1, abs=1e-14)

    def test_saturated_gates_carry_cell_through(self):
        # forget gate pinned open, input gate pinned shut
        p = LSTMParams.zeros(2, 3)
        p.b_f[:] = 20.0
        p.b_i[:] = -20.0
        c_prev = np.array([0.3, -0.7, 1.2])
        _, c = lstm_step(p, np.array([1.0, -4.0]), np.zeros(3), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-7)

    def test_shape_mismatch_rejected(self):
        p = LSTMParams.zeros(3, 2)
        with pytest.raises(ValueError):
            lstm_step(p, np.zeros(4), np.zeros(2), np.zeros(2))


class TestRunLstm:
    def test_matches_python_fold(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            e = int(rng.integers(1, 4))
            hdim = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            params = init_lstm(e, hdim, rng)
            for name in LSTMParams.FIELDS:
                if name.startswith("b_"):
                    getattr(params, name)[:] = rng.uniform(-0.5, 0.5, size=hdim)
            x = rng.normal(size=(n, e))
            trace = run_lstm(params, x[None])
            np.testing.assert_allclose(trace.h[0], oracle_fold(params, x), atol=1e-12)

    def test_states_only_run_is_bitwise_identical(self):
        # inference leans on the trace-free loop; it must not drift from the
        # traced one by even an ulp
        rng = np.random.default_rng(32)
        for _ in range(5):
            e = int(rng.integers(1, 5))
            hdim = int(rng.integers(1, 6))
            params = init_lstm(e, hdim, rng)
            x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 7)), e))
            np.testing.assert_array_equal(run_lstm_states(params, x), run_lstm(params, x).h)

    def test_trace_flags_overflowing_pre_activations(self):
        params = init_lstm(2, 3, np.random.default_rng(0))
        x = 1.0 + np.random.default_rng(1).uniform(size=(2, 4, 2))
        assert run_lstm(params, x).finite
        params.w_f[:] = 1e308  # x @ w overflows; the forget gate saturates to a finite 0 or 1
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run_lstm(params, x)
        assert not trace.finite
        assert np.all(np.isfinite(trace.h))

    def test_states_only_run_handles_empty_sequence(self):
        params = init_lstm(2, 3, np.random.default_rng(0))
        assert run_lstm_states(params, np.zeros((2, 0, 2))).shape == (2, 0, 3)


class TestEncode:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.params = init_lstm(3, 4, rng)
        self.back = init_lstm(3, 4, rng)
        self.rng = rng

    def test_final_state_is_last_true_position(self):
        x = self.rng.normal(size=(1, 5, 3))
        mask = np.array([[True, True, True, False, False]])
        out = encode(EncoderMode.FINAL, self.params, x, mask)
        np.testing.assert_allclose(out[0], oracle_fold(self.params, x[0, :3])[-1], atol=1e-12)

    def test_average_masks_pad_positions(self):
        x = self.rng.normal(size=(1, 4, 3))
        mask = np.array([[True, True, False, False]])
        out = encode(EncoderMode.AVERAGE, self.params, x, mask)
        states = oracle_fold(self.params, x[0, :2])
        np.testing.assert_allclose(out[0], states.mean(axis=0), atol=1e-12)

    def test_single_token_final_equals_average(self):
        x = self.rng.normal(size=(2, 1, 3))
        mask = np.ones((2, 1), dtype=bool)
        a = encode(EncoderMode.FINAL, self.params, x, mask)
        b = encode(EncoderMode.AVERAGE, self.params, x, mask)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_single_token_bidirectional_concatenates_two_steps(self):
        x = self.rng.normal(size=(1, 3))
        out = encode(
            EncoderMode.BIDIRECTIONAL, self.params, x, np.array([True]), self.back
        )
        h_f, _ = lstm_step(self.params, x[0], np.zeros(4), np.zeros(4))
        h_b, _ = lstm_step(self.back, x[0], np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(out, np.concatenate([h_f, h_b]), atol=1e-15)
        assert out.shape == (8,)

    def test_bidirectional_reads_reversed_tokens(self):
        x = self.rng.normal(size=(1, 3, 3))
        mask = np.ones((1, 3), dtype=bool)
        out = encode(EncoderMode.BIDIRECTIONAL, self.params, x, mask, self.back)
        fwd = oracle_fold(self.params, x[0])[-1]
        bwd = oracle_fold(self.back, x[0][::-1])[-1]
        np.testing.assert_allclose(out[0], np.concatenate([fwd, bwd]), atol=1e-12)

    def test_average_is_order_sensitive(self):
        x = self.rng.normal(size=(3, 3))
        swapped = x[[1, 0, 2]]
        mask = np.ones(3, dtype=bool)
        a = encode(EncoderMode.AVERAGE, self.params, x, mask)
        b = encode(EncoderMode.AVERAGE, self.params, swapped, mask)
        assert not np.allclose(a, b)

    def test_all_pad_row_rejected(self):
        x = self.rng.normal(size=(1, 2, 3))
        with pytest.raises(ValueError):
            encode(EncoderMode.FINAL, self.params, x, np.zeros((1, 2), dtype=bool))

    def test_solo_equals_batched_row(self):
        # pad tail embeddings deliberately nonzero: masking must hide them
        lens = [3, 1, 2]
        x = self.rng.normal(size=(3, 3, 3))
        mask = np.arange(3)[None, :] < np.array(lens)[:, None]
        for mode in EncoderMode:
            batched = encode(mode, self.params, x, mask, self.back)
            for row, n in enumerate(lens):
                solo = encode(mode, self.params, x[row, :n], np.ones(n, bool), self.back)
                np.testing.assert_allclose(batched[row], solo, atol=1e-12)

    def test_outputs_finite_for_bounded_inputs(self):
        x = self.rng.uniform(-10, 10, size=(2, 6, 3))
        mask = np.ones((2, 6), dtype=bool)
        for mode in EncoderMode:
            out = encode(mode, self.params, x, mask, self.back)
            assert np.all(np.isfinite(out))


class TestProject:
    def test_zero_weights_zero_output(self):
        proj = Projection(weight=np.zeros((4, 6)), bias=np.zeros(6))
        out = project(np.ones(4), proj)
        np.testing.assert_array_equal(out, 0.0)
        assert out.shape == (6,)

    def test_output_strictly_bounded(self):
        rng = np.random.default_rng(3)
        proj = Projection(weight=rng.normal(size=(4, 6)), bias=rng.normal(size=6))
        out = project(rng.normal(size=(7, 4)), proj)
        assert np.all(np.abs(out) < 1.0)

    def test_width_mismatch_rejected(self):
        proj = Projection(weight=np.zeros((4, 6)), bias=np.zeros(6))
        with pytest.raises(ValueError):
            project(np.ones(5), proj)


class TestDefinitionModel:
    def test_create_is_deterministic(self):
        a = DefinitionModel.create(10, pad_id=9, mode="average", embed_dim=4, hidden=3, output_dim=5, seed=11)
        b = DefinitionModel.create(10, pad_id=9, mode="average", embed_dim=4, hidden=3, output_dim=5, seed=11)
        for name, arr in a.param_dict().items():
            np.testing.assert_array_equal(arr, b.param_dict()[name])
        assert a.lstm_back is None
        assert np.all(a.embeddings.matrix[9] == 0.0)

    def test_bidirectional_widths(self):
        m = DefinitionModel.create(10, pad_id=9, mode="bidirectional", embed_dim=4, hidden=3, output_dim=5, seed=1)
        assert m.lstm_back is not None
        assert m.projection.input_width == 6
        assert set(m.param_dict()) >= {"bwd.w_i", "bwd.b_g"}

    def test_param_dict_views_are_live(self):
        m = DefinitionModel.create(10, pad_id=9, mode="final", embed_dim=4, hidden=3, output_dim=5, seed=1)
        m.param_dict()["proj.b"][:] = 7.0
        assert np.all(m.projection.bias == 7.0)

    def test_encode_ids_solo_matches_batch(self):
        m = DefinitionModel.create(10, pad_id=9, mode="average", embed_dim=4, hidden=3, output_dim=5, seed=2)
        ids = np.array([[1, 2, 3], [4, 9, 9]])
        lengths = np.array([3, 1])
        batch = m.encode_ids(ids, lengths)
        solo = m.encode_ids(np.array([4]), np.array([1]))
        assert solo.shape == (5,)
        np.testing.assert_allclose(batch[1], solo, atol=1e-12)

