"""LSTM step/forward/projection tests against hand-derived and fold oracles."""

import math
import warnings

import numpy as np
import pytest

from revdict import encoder
from revdict.encoder import (
    EncoderMode,
    LSTMParams,
    Projection,
    DefinitionModel,
    directions,
    forward,
    init_lstm,
    named_params,
    param_shapes,
    read_out,
    read_out_adjoint,
    reverse_steps,
    run_lstm_states,
    sigmoid,
)
from revdict.errors import NonFiniteLossError

# Hand evaluation of the gate equations for E=H=1, all weights 1, biases 0,
# x=1, h0=c0=0: every gate pre-activation is 1, so c1 = sigma(1)*tanh(1) and
# h1 = sigma(1)*tanh(c1).
SCALAR_C1 = 0.5567699411459397
SCALAR_H1 = 0.36960635293570576

GATES = "ifog"


def gate(params, kind, name):
    """The per-gate block ``name`` of fused array ``kind`` ("w", "u" or "b"), as a view."""
    hidden = params.hidden
    k = GATES.index(name)
    return getattr(params, kind)[..., k * hidden : (k + 1) * hidden]


def zero_params(embed_dim, hidden):
    return LSTMParams(np.zeros((embed_dim, 4 * hidden)), np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden))


def ones_params():
    p = zero_params(1, 1)
    p.w[:] = 1.0
    p.u[:] = 1.0
    return p


def lstm_step(params, x_t, h_prev, c_prev):
    """One LSTM step, one gate at a time; works on single vectors or batch rows alike."""
    if x_t.shape[-1] != params.embed_dim:
        raise ValueError(f"input width {x_t.shape[-1]} != embed dim {params.embed_dim}")

    def pre(name):
        return x_t @ gate(params, "w", name) + h_prev @ gate(params, "u", name) + gate(params, "b", name)

    i, f, o = sigmoid(pre("i")), sigmoid(pre("f")), sigmoid(pre("o"))
    g = np.tanh(pre("g"))
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


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
            for name in GATES:
                w, u, b = (gate(params, kind, name) for kind in "wub")
                pre[name] = (
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


def full_lengths(x):
    """Every row of (..., B, L, E) inputs runs all L steps."""
    return np.full(x.shape[-3], x.shape[-2])


def reverse_within_lengths(x_seq, lengths):
    """Reverse each row's first ``lengths[b]`` positions, leaving the tail (row by row)."""
    out = x_seq.copy()
    for b, n in enumerate(lengths):
        out[b, :n] = x_seq[b, :n][::-1]
    return out


def oracle_states(params, x_seq, lengths):
    """The step loop the inference path ran before the fused core, kept as its bitwise oracle.

    It rebuilds the fused matrices from the per-gate blocks, projects each
    row's inputs with a GEMM of its own and keeps every state in a list; the
    per-element arithmetic is the one production must keep, so outputs
    match to the bit.  A step updates only the rows still running (a GEMM
    over a subset of rows gives that subset's rows of the full GEMM, so on
    full-length rows this is the plain loop), and padded positions hold 0.
    """
    hidden = params.hidden
    w, u, b = (np.concatenate([gate(params, kind, name) for name in GATES], axis=-1) for kind in "wub")
    x_proj = x_seq @ w
    h = np.zeros((x_seq.shape[0], hidden))
    c = np.zeros_like(h)
    states = []
    for t in range(x_seq.shape[1]):
        rows = [row for row, n in enumerate(lengths) if n > t]
        pre = x_proj[rows, t] + h[rows] @ u + b
        gates = sigmoid(pre[:, : 3 * hidden])
        g = np.tanh(pre[:, 3 * hidden :])
        c[rows] = gates[:, hidden : 2 * hidden] * c[rows] + gates[:, :hidden] * g
        h[rows] = gates[:, 2 * hidden :] * np.tanh(c[rows])
        step = np.zeros_like(h)
        step[rows] = h[rows]
        states.append(step)
    return np.stack(states, axis=1)


def oracle_encode_ids(model, token_ids, lengths):
    """encode_ids as the inference path computed it before the fused core."""
    x_seq = model.embeddings.matrix[token_ids]
    rows = np.arange(token_ids.shape[0])
    mask = np.arange(token_ids.shape[1])[None, :] < lengths[:, None]
    states = oracle_states(model.lstms[0], x_seq, lengths)
    if model.mode is EncoderMode.FINAL:
        out = states[rows, lengths - 1]
    elif model.mode is EncoderMode.AVERAGE:
        out = (states * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    else:
        back = oracle_states(model.lstms[1], reverse_within_lengths(x_seq, lengths), lengths)
        out = np.concatenate([states[rows, lengths - 1], back[rows, lengths - 1]], axis=1)
    return np.tanh(out @ model.projection.weight + model.projection.bias)


def embedded_model(mode, x, params, back=None, projection=None):
    """A model whose embedding rows are the (B, L, E) inputs ``x``, and the (B, L) ids that gather them.

    Its pad row is one more, all-zero row; ``projection`` defaults to a
    zero one of width 1.
    """
    batch, length, embed = x.shape
    width = params.hidden * (2 if EncoderMode(mode) is EncoderMode.BIDIRECTIONAL else 1)
    projection = projection or Projection(weight=np.zeros((width, 1)), bias=np.zeros(1))
    emb = np.vstack([x.reshape(-1, embed), np.zeros(embed)])
    arrays = named_params(emb, [params] if back is None else [params, back], projection.weight, projection.bias)
    model = DefinitionModel.from_params(mode, batch * length, arrays)
    return model, np.arange(batch * length).reshape(batch, length)


def encode(mode, params, x, lengths, back=None):
    """The pre-projection vectors (B, H or 2H) that ``forward`` reads out of embedded (B, L, E) inputs."""
    model, ids = embedded_model(mode, x, params, back)
    _, (pre, _, _) = forward(model, ids, lengths, run_lstm_states)
    return pre


class TestLstmStep:
    def test_zero_parameters_give_zero_state(self):
        p = zero_params(3, 2)
        h, c = lstm_step(p, np.array([5.0, -1.0, 2.0]), np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(c, 0.0)

    def test_scalar_hand_derivation(self):
        h, c = lstm_step(ones_params(), np.ones(1), np.zeros(1), np.zeros(1))
        assert c[0] == pytest.approx(SCALAR_C1, abs=1e-14)
        assert h[0] == pytest.approx(SCALAR_H1, abs=1e-14)

    def test_saturated_gates_carry_cell_through(self):
        # forget gate pinned open, input gate pinned shut
        p = zero_params(2, 3)
        gate(p, "b", "f")[:] = 20.0
        gate(p, "b", "i")[:] = -20.0
        c_prev = np.array([0.3, -0.7, 1.2])
        _, c = lstm_step(p, np.array([1.0, -4.0]), np.zeros(3), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-7)

    def test_shape_mismatch_rejected(self):
        p = zero_params(3, 2)
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
            params.b[:] = rng.uniform(-0.5, 0.5, size=4 * hdim)
            x = rng.normal(size=(n, e))
            trace = run_lstm_states(params, x[None], np.array([n]), record=True)
            np.testing.assert_allclose(trace.h[0], oracle_fold(params, x), atol=1e-12)

    def test_states_only_run_is_bitwise_identical(self):
        # inference skips the trace; it must not drift from the recorded run
        # by even an ulp
        rng = np.random.default_rng(32)
        for _ in range(5):
            e = int(rng.integers(1, 5))
            hdim = int(rng.integers(1, 6))
            params = init_lstm(e, hdim, rng)
            x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 7)), e))
            lengths = rng.integers(0, x.shape[1] + 1, size=x.shape[0])
            np.testing.assert_array_equal(
                run_lstm_states(params, x, lengths), run_lstm_states(params, x, lengths, record=True).h
            )

    def test_trace_records_gates_and_cells(self):
        rng = np.random.default_rng(33)
        params = init_lstm(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        trace = run_lstm_states(params, x, full_lengths(x), record=True)
        h, c = np.zeros((2, 4)), np.zeros((2, 4))
        for t in range(5):
            h_prev, c_prev = h, c
            h, c = lstm_step(params, x[:, t], h_prev, c_prev)
            np.testing.assert_allclose(trace.h[:, t], h, rtol=1e-13)
            np.testing.assert_allclose(trace.c[:, t], c, rtol=1e-13)
            i, f, o, g = np.split(trace.gates[:, t], 4, axis=-1)
            np.testing.assert_allclose(f * c_prev + i * g, c, rtol=1e-13)
            np.testing.assert_allclose(o * np.tanh(c), h, rtol=1e-13)

    @pytest.mark.parametrize("record", [False, True], ids=["states", "recorded"])
    def test_overflowing_pre_activation_raises_at_its_step(self, record, monkeypatch):
        # x @ w overflows at step 2 alone, where the forget gate would saturate
        # to a finite 0 or 1 and hide it: the run stops there, gates unevaluated
        params = init_lstm(2, 3, np.random.default_rng(0))
        x = 1.0 + np.random.default_rng(1).uniform(size=(2, 4, 2))
        x[:, 2] = 1e300
        gate(params, "w", "f")[:] = 1e10
        steps = []
        monkeypatch.setattr(encoder, "sigmoid", lambda z: steps.append(z) or sigmoid(z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the named error is the only report
            with pytest.raises(NonFiniteLossError, match="non-finite LSTM pre-activation"):
                run_lstm_states(params, x, full_lengths(x), record=record)
        assert len(steps) == 2

    def test_states_only_run_handles_empty_sequence(self):
        params = init_lstm(2, 3, np.random.default_rng(0))
        assert run_lstm_states(params, np.zeros((2, 0, 2)), np.zeros(2, dtype=int)).shape == (2, 0, 3)

    def test_replica_axes_broadcast(self):
        # stacked parameters over shared inputs, and stacked inputs over
        # shared parameters, each equal the runs one replica at a time, with
        # rows finishing at different steps
        rng = np.random.default_rng(34)
        replicas = [init_lstm(3, 2, rng) for _ in range(3)]
        stacked = LSTMParams(*(np.stack([getattr(p, k) for p in replicas]) for k in LSTMParams.FIELDS))
        x = rng.normal(size=(4, 5, 3))
        lengths = np.array([5, 2, 4, 1])
        got = run_lstm_states(stacked, x[None], lengths)
        assert got.shape == (3, 4, 5, 2)
        for r, params in enumerate(replicas):
            np.testing.assert_allclose(got[r], run_lstm_states(params, x, lengths), rtol=1e-13)
        xs = rng.normal(size=(3, 4, 5, 3))
        shared = LSTMParams(*(getattr(replicas[0], k)[None] for k in LSTMParams.FIELDS))
        got = run_lstm_states(shared, xs, lengths, record=True)
        for r in range(3):
            solo = run_lstm_states(replicas[0], xs[r], lengths, record=True)
            for name in ("gates", "c", "h"):
                np.testing.assert_allclose(getattr(got, name)[r], getattr(solo, name), rtol=1e-13)

    def test_padded_positions_stay_zero(self):
        # a row stops at its length: the recorded gates, cells and states of
        # its padded positions are exactly 0 (so BPTT's dZ is exactly 0
        # there), and its true positions equal a run of that row alone
        rng = np.random.default_rng(35)
        params = init_lstm(3, 4, rng)
        params.b[:] = rng.uniform(-0.5, 0.5, size=params.b.shape)
        x = rng.normal(size=(4, 6, 3))  # pad positions deliberately nonzero
        lengths = np.array([2, 6, 1, 4])
        trace = run_lstm_states(params, x, lengths, record=True)
        pad = np.arange(6)[None, :] >= lengths[:, None]
        for name in ("gates", "c", "h"):
            recorded = getattr(trace, name)
            assert recorded[pad].tobytes() == np.zeros_like(recorded[pad]).tobytes()
        for row, n in enumerate(lengths):
            solo = run_lstm_states(params, x[row : row + 1, :n], np.array([n]), record=True)
            np.testing.assert_allclose(trace.h[row, :n], solo.h[0], rtol=1e-13)
            np.testing.assert_allclose(trace.c[row, :n], solo.c[0], rtol=1e-13)


class TestReadOut:
    def test_reversal_is_the_row_by_row_reverse_and_its_own_inverse(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(4, 6, 3))
        lengths = np.array([6, 1, 3, 4])
        reversed_x = reverse_steps(x, lengths)
        assert reversed_x.tobytes() == reverse_within_lengths(x, lengths).tobytes()
        assert reverse_steps(reversed_x, lengths).tobytes() == x.tobytes()
        stacked = reverse_steps(np.stack([x, 2.0 * x]), lengths)
        np.testing.assert_array_equal(stacked[1], 2.0 * reversed_x)

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_adjoint_is_the_transpose(self, mode):
        # <read_out(states), d> == <states, read_out_adjoint(d)> for any
        # states and d: the adjoint is exactly the read-out's transpose
        rng = np.random.default_rng(41)
        lengths = np.array([5, 1, 3])
        width = 2 if mode is EncoderMode.BIDIRECTIONAL else 1
        states = [rng.normal(size=(3, 5, 4)) for _ in range(width)]
        d_pre = rng.normal(size=(3, 4 * width))
        forward = np.sum(read_out(mode, lengths, *states) * d_pre)
        grads = read_out_adjoint(mode, lengths, 5, d_pre)
        assert len(grads) == width
        assert forward == pytest.approx(sum(np.sum(s * g) for s, g in zip(states, grads)), rel=1e-13)


class TestEncode:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.params = init_lstm(3, 4, rng)
        self.back = init_lstm(3, 4, rng)
        self.rng = rng

    def test_final_state_is_last_true_position(self):
        x = self.rng.normal(size=(1, 5, 3))
        out = encode(EncoderMode.FINAL, self.params, x, np.array([3]))
        np.testing.assert_allclose(out[0], oracle_fold(self.params, x[0, :3])[-1], atol=1e-12)

    def test_average_masks_pad_positions(self):
        x = self.rng.normal(size=(1, 4, 3))
        out = encode(EncoderMode.AVERAGE, self.params, x, np.array([2]))
        states = oracle_fold(self.params, x[0, :2])
        np.testing.assert_allclose(out[0], states.mean(axis=0), atol=1e-12)

    def test_single_token_final_equals_average(self):
        x = self.rng.normal(size=(2, 1, 3))
        lengths = np.ones(2, dtype=int)
        a = encode(EncoderMode.FINAL, self.params, x, lengths)
        b = encode(EncoderMode.AVERAGE, self.params, x, lengths)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_single_token_bidirectional_concatenates_two_steps(self):
        x = self.rng.normal(size=(1, 1, 3))
        out = encode(EncoderMode.BIDIRECTIONAL, self.params, x, np.array([1]), self.back)
        h_f, _ = lstm_step(self.params, x[0, 0], np.zeros(4), np.zeros(4))
        h_b, _ = lstm_step(self.back, x[0, 0], np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(out[0], np.concatenate([h_f, h_b]), atol=1e-15)
        assert out.shape == (1, 8)

    def test_bidirectional_reads_reversed_tokens(self):
        x = self.rng.normal(size=(1, 3, 3))
        out = encode(EncoderMode.BIDIRECTIONAL, self.params, x, np.array([3]), self.back)
        fwd = oracle_fold(self.params, x[0])[-1]
        bwd = oracle_fold(self.back, x[0][::-1])[-1]
        np.testing.assert_allclose(out[0], np.concatenate([fwd, bwd]), atol=1e-12)

    def test_average_is_order_sensitive(self):
        x = self.rng.normal(size=(1, 3, 3))
        swapped = x[:, [1, 0, 2]]
        a = encode(EncoderMode.AVERAGE, self.params, x, np.array([3]))
        b = encode(EncoderMode.AVERAGE, self.params, swapped, np.array([3]))
        assert not np.allclose(a, b)

    def test_all_pad_row_rejected(self):
        x = self.rng.normal(size=(1, 2, 3))
        with pytest.raises(ValueError):
            encode(EncoderMode.FINAL, self.params, x, np.array([0]))

    def test_solo_equals_batched_row(self):
        # pad tail embeddings deliberately nonzero: masking must hide them
        lens = np.array([3, 1, 2])
        x = self.rng.normal(size=(3, 3, 3))
        for mode in EncoderMode:
            batched = encode(mode, self.params, x, lens, self.back)
            for row, n in enumerate(lens):
                solo = encode(mode, self.params, x[row : row + 1, :n], np.array([n]), self.back)
                np.testing.assert_allclose(batched[row], solo[0], atol=1e-12)

    def test_outputs_finite_for_bounded_inputs(self):
        x = self.rng.uniform(-10, 10, size=(2, 6, 3))
        for mode in EncoderMode:
            out = encode(mode, self.params, x, np.array([6, 6]), self.back)
            assert np.all(np.isfinite(out))


class TestProject:
    def test_zero_weights_zero_output(self):
        proj = Projection(weight=np.zeros((4, 6)), bias=np.zeros(6))
        params = init_lstm(3, 4, np.random.default_rng(3))
        model, ids = embedded_model(EncoderMode.FINAL, np.ones((1, 2, 3)), params, projection=proj)
        out = model.encode_ids(ids[0], np.array([2]))
        np.testing.assert_array_equal(out, 0.0)
        assert out.shape == (6,)

    def test_output_strictly_bounded(self):
        rng = np.random.default_rng(3)
        proj = Projection(weight=rng.normal(size=(4, 6)), bias=rng.normal(size=6))
        x = rng.normal(size=(7, 2, 3))
        model, ids = embedded_model(EncoderMode.AVERAGE, x, init_lstm(3, 4, rng), projection=proj)
        out = model.encode_ids(ids, np.array([2, 1, 2, 2, 1, 1, 2]))
        assert out.shape == (7, 6)
        assert np.all(np.abs(out) < 1.0)


class TestDefinitionModel:
    def test_create_is_deterministic(self):
        a = DefinitionModel.create(10, pad_id=9, mode="average", embed_dim=4, hidden=3, output_dim=5, seed=11)
        b = DefinitionModel.create(10, pad_id=9, mode="average", embed_dim=4, hidden=3, output_dim=5, seed=11)
        for name, arr in a.param_dict().items():
            np.testing.assert_array_equal(arr, b.param_dict()[name])
        assert len(a.lstms) == 1
        assert np.all(a.embeddings.matrix[9] == 0.0)

    def test_create_draws_a_bounded_table_with_a_zero_pad_row(self):
        # the gloss table is the first of four streams spawned from the seed, PAD row zeroed
        m = DefinitionModel.create(10, pad_id=4, mode="final", embed_dim=8, hidden=3, output_dim=5, seed=5)
        emb_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(4)[0])
        expected = emb_rng.uniform(-0.05, 0.05, size=(10, 8))
        expected[4] = 0.0
        assert m.embeddings.matrix.tobytes() == expected.tobytes()
        assert m.embeddings.pad_id == 4
        other = DefinitionModel.create(10, pad_id=4, mode="final", embed_dim=8, hidden=3, output_dim=5, seed=6)
        assert not np.array_equal(m.embeddings.matrix, other.embeddings.matrix)

    @pytest.mark.parametrize(
        "vocab_size, pad_id, message",
        [(1, 0, "at least UNK and PAD"), (10, 10, r"pad id 10 outside \[0, 10\)"), (10, -1, r"pad id -1 outside")],
        ids=["vocab-floor", "pad-past-end", "pad-negative"],
    )
    def test_create_refuses_a_small_vocabulary_or_a_pad_id_outside_it(self, vocab_size, pad_id, message):
        with pytest.raises(ValueError, match=message):
            DefinitionModel.create(vocab_size, pad_id=pad_id, mode="final", embed_dim=4, hidden=3, output_dim=5)

    def test_fused_init_keeps_the_per_gate_draws(self):
        # the fused arrays hold the draws of one (E, H) matrix per gate, then
        # one (H, H) matrix per gate, in gate order: a seed keeps its values
        params = init_lstm(4, 3, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        draws = [rng.uniform(-0.05, 0.05, size=shape) for shape in [(4, 3)] * 4 + [(3, 3)] * 4]
        for k, name in enumerate(GATES):
            np.testing.assert_array_equal(gate(params, "w", name), draws[k])
            np.testing.assert_array_equal(gate(params, "u", name), draws[4 + k])
        np.testing.assert_array_equal(params.b, 0.0)
        assert (params.w.shape, params.u.shape, params.b.shape) == ((4, 12), (3, 12), (12,))

    def test_bidirectional_widths(self):
        m = DefinitionModel.create(10, pad_id=9, mode="bidirectional", embed_dim=4, hidden=3, output_dim=5, seed=1)
        assert len(m.lstms) == 2
        assert m.projection.weight.shape[0] == 6
        assert set(m.param_dict()) == {"emb", "fwd.w", "fwd.u", "fwd.b", "bwd.w", "bwd.u", "bwd.b", "proj.w", "proj.b"}

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_param_shapes_are_the_created_layout(self, mode):
        m = DefinitionModel.create(10, pad_id=9, mode=mode, embed_dim=4, hidden=3, output_dim=5, seed=1)
        expected = [(name, array.shape) for name, array in m.param_dict().items()]
        assert list(param_shapes(mode, 10, 4, 3, 5).items()) == expected
        assert len(m.lstms) == len(directions(mode)) == (2 if mode == "bidirectional" else 1)

    def test_param_dict_views_are_live(self):
        m = DefinitionModel.create(10, pad_id=9, mode="final", embed_dim=4, hidden=3, output_dim=5, seed=1)
        m.param_dict()["proj.b"][:] = 7.0
        assert np.all(m.projection.bias == 7.0)
        rebuilt = DefinitionModel.from_params(m.mode, 9, m.param_dict())
        assert all(rebuilt.param_dict()[k] is v for k, v in m.param_dict().items())

    def test_encode_ids_solo_matches_batch(self):
        m = DefinitionModel.create(10, pad_id=9, mode="average", embed_dim=4, hidden=3, output_dim=5, seed=2)
        ids = np.array([[1, 2, 3], [4, 9, 9]])
        lengths = np.array([3, 1])
        batch = m.encode_ids(ids, lengths)
        solo = m.encode_ids(np.array([4]), np.array([1]))
        assert solo.shape == (5,)
        np.testing.assert_allclose(batch[1], solo, atol=1e-12)

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_encode_ids_equals_the_oracle_forward_bitwise(self, mode):
        # eval and query ranks hang on these bits: the fused core must keep
        # the step loop's arithmetic exactly, solo and in mixed-length
        # batches; at batch 1 no row finishes early, so there the oracle
        # is the plain step loop with no row skipped
        rng = np.random.default_rng(13)
        m = DefinitionModel.create(30, pad_id=29, mode=mode, embed_dim=6, hidden=5, output_dim=4, seed=3)
        m.lstms[0].b[:] = rng.uniform(-0.5, 0.5, size=m.lstms[0].b.shape)
        for batch in (1, 5, 16):
            lengths = rng.integers(1, 8, size=batch)
            ids = np.full((batch, lengths.max()), 29)
            for b, n in enumerate(lengths):
                ids[b, :n] = rng.integers(0, 29, size=n)
            assert m.encode_ids(ids, lengths).tobytes() == oracle_encode_ids(m, ids, lengths).tobytes()
