"""Gloss encoders: LSTM composition in three modes.

A gloss is embedded token by token and folded into one vector:

* ``final``          -- hidden state at the last non-pad position
* ``average``        -- mean of hidden states over non-pad positions
* ``bidirectional``  -- forward final state concatenated with the final
                        state of a second LSTM run over the reversed tokens

The result is projected through a tanh layer into the pretrained embedding
space.  All arithmetic is float64 and batch-first; single sequences are
accepted anywhere a batch is and return unbatched vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embeddings import INIT_SCALE, LearnedTable, init_learned

HIDDEN_SIZE = 512
OUTPUT_DIM = 500


class EncoderMode(str, Enum):
    FINAL = "final"
    AVERAGE = "average"
    BIDIRECTIONAL = "bidirectional"


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; both branches are the textbook halves
    z = np.asarray(z)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


@dataclass
class LSTMParams:
    """Gate weights: input matrices (E, H), recurrent matrices (H, H), biases (H,)."""

    w_i: np.ndarray
    w_f: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    u_i: np.ndarray
    u_f: np.ndarray
    u_o: np.ndarray
    u_g: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    FIELDS = ("w_i", "w_f", "w_o", "w_g", "u_i", "u_f", "u_o", "u_g", "b_i", "b_f", "b_o", "b_g")

    @property
    def embed_dim(self) -> int:
        return int(self.w_i.shape[0])

    @property
    def hidden(self) -> int:
        return int(self.w_i.shape[1])

    @classmethod
    def zeros(cls, embed_dim: int, hidden: int) -> "LSTMParams":
        return cls(
            *(np.zeros((embed_dim, hidden)) for _ in range(4)),
            *(np.zeros((hidden, hidden)) for _ in range(4)),
            *(np.zeros(hidden) for _ in range(4)),
        )


def init_lstm(embed_dim: int, hidden: int, rng: np.random.Generator) -> LSTMParams:
    """Uniform [-0.05, 0.05] gate matrices; biases start at zero."""
    return LSTMParams(
        *(rng.uniform(-INIT_SCALE, INIT_SCALE, size=(embed_dim, hidden)) for _ in range(4)),
        *(rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, hidden)) for _ in range(4)),
        *(np.zeros(hidden) for _ in range(4)),
    )


@dataclass
class Projection:
    """y = tanh(v @ weight + bias); weight is (H or 2H, D)."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def input_width(self) -> int:
        return int(self.weight.shape[0])

    @property
    def output_dim(self) -> int:
        return int(self.weight.shape[1])


def init_projection(input_width: int, output_dim: int, rng: np.random.Generator) -> Projection:
    return Projection(
        weight=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(input_width, output_dim)),
        bias=np.zeros(output_dim),
    )


def lstm_step(
    params: LSTMParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step; works on single vectors or batch rows alike."""
    if x_t.shape[-1] != params.embed_dim:
        raise ValueError(f"input width {x_t.shape[-1]} != embed dim {params.embed_dim}")
    i = sigmoid(x_t @ params.w_i + h_prev @ params.u_i + params.b_i)
    f = sigmoid(x_t @ params.w_f + h_prev @ params.u_f + params.b_f)
    o = sigmoid(x_t @ params.w_o + h_prev @ params.u_o + params.b_o)
    g = np.tanh(x_t @ params.w_g + h_prev @ params.u_g + params.b_g)
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


@dataclass
class LSTMTrace:
    """Every intermediate of a forward run, kept for backpropagation.

    All arrays are (B, L, H); ``c_prev[:, t]`` is the cell state entering
    step t (zeros at t = 0).  ``finite`` is False when any gate
    pre-activation overflowed to inf or was nan, which the saturating gates
    would otherwise hide.
    """

    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    h: np.ndarray
    c_prev: np.ndarray
    h_prev: np.ndarray
    finite: bool = True


def run_lstm(params: LSTMParams, x_seq: np.ndarray) -> LSTMTrace:
    """Run the LSTM over (B, L, E) inputs from zero state, recording gates.

    The four gate projections run as stacked matmuls; per-element
    arithmetic is identical to repeated lstm_step calls.
    """
    batch, length, _ = x_seq.shape
    hidden = params.hidden
    if length == 0:
        empty = np.zeros((batch, 0, hidden))
        return LSTMTrace(*(empty.copy() for _ in range(8)))
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    w = np.concatenate((params.w_i, params.w_f, params.w_o, params.w_g), axis=1)
    u = np.concatenate((params.u_i, params.u_f, params.u_o, params.u_g), axis=1)
    b = np.concatenate((params.b_i, params.b_f, params.b_o, params.b_g))
    x_proj = x_seq @ w
    columns: tuple[list, ...] = tuple([] for _ in range(8))
    finite = True
    for t in range(length):
        pre = x_proj[:, t] + h @ u + b
        finite = finite and bool(np.isfinite(pre).all())
        gates = sigmoid(pre[:, : 3 * hidden])
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        o = gates[:, 2 * hidden :]
        g = np.tanh(pre[:, 3 * hidden :])
        c_next = f * c + i * g
        h_next = o * np.tanh(c_next)
        for column, value in zip(columns, (i, f, o, g, c_next, h_next, c, h)):
            column.append(value)
        h, c = h_next, c_next
    return LSTMTrace(*(np.stack(column, axis=1) for column in columns), finite=finite)


def run_lstm_states(params: LSTMParams, x_seq: np.ndarray) -> np.ndarray:
    """Hidden states (B, L, H) only, skipping the gate trace.

    Same arithmetic as run_lstm; for inference paths that never
    backpropagate.
    """
    batch, length, _ = x_seq.shape
    hidden = params.hidden
    if length == 0:
        return np.zeros((batch, 0, hidden))
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    w = np.concatenate((params.w_i, params.w_f, params.w_o, params.w_g), axis=1)
    u = np.concatenate((params.u_i, params.u_f, params.u_o, params.u_g), axis=1)
    b = np.concatenate((params.b_i, params.b_f, params.b_o, params.b_g))
    x_proj = x_seq @ w
    states = []
    for t in range(length):
        pre = x_proj[:, t] + h @ u + b
        gates = sigmoid(pre[:, : 3 * hidden])
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        o = gates[:, 2 * hidden :]
        g = np.tanh(pre[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h)
    return np.stack(states, axis=1)


def reverse_within_lengths(x_seq: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse each row's first ``lengths[b]`` positions, leaving the tail."""
    out = x_seq.copy()
    for b, n in enumerate(lengths):
        out[b, :n] = x_seq[b, :n][::-1]
    return out


def _as_batch(x_seq: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    if x_seq.ndim == 2:
        return x_seq[None, :, :], np.asarray(mask, dtype=bool)[None, :], True
    return x_seq, np.asarray(mask, dtype=bool), False


def encode(
    mode: EncoderMode,
    params: LSTMParams,
    x_seq: np.ndarray,
    mask: np.ndarray,
    params_back: LSTMParams | None = None,
) -> np.ndarray:
    """Compose embedded tokens into pre-projection vectors (B, H or 2H).

    ``mask`` marks true (non-pad) positions and must be a prefix per row,
    padding being a suffix by construction; a row with no true position is
    an error.  Accepts a single (L, E) sequence and returns one vector.
    """
    mode = EncoderMode(mode)
    x_seq, mask, single = _as_batch(x_seq, mask)
    lengths = mask.sum(axis=1)
    if np.any(lengths == 0):
        raise ValueError("cannot encode an all-pad sequence")
    rows = np.arange(x_seq.shape[0])

    states = run_lstm_states(params, x_seq)
    if mode is EncoderMode.FINAL:
        out = states[rows, lengths - 1]
    elif mode is EncoderMode.AVERAGE:
        out = (states * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    else:
        if params_back is None:
            raise ValueError("bidirectional mode needs backward-direction parameters")
        forward = states[rows, lengths - 1]
        back_states = run_lstm_states(params_back, reverse_within_lengths(x_seq, lengths))
        out = np.concatenate([forward, back_states[rows, lengths - 1]], axis=1)
    return out[0] if single else out


def project(v: np.ndarray, projection: Projection) -> np.ndarray:
    """tanh-projected output, every entry strictly inside (-1, 1)."""
    if v.shape[-1] != projection.input_width:
        raise ValueError(
            f"projection expects width {projection.input_width}, got {v.shape[-1]}"
        )
    return np.tanh(v @ projection.weight + projection.bias)


@dataclass
class DefinitionModel:
    """All trainable state for one gloss-to-embedding model."""

    embeddings: LearnedTable
    lstm: LSTMParams
    lstm_back: LSTMParams | None
    projection: Projection
    mode: EncoderMode

    @classmethod
    def create(
        cls,
        vocab_size: int,
        pad_id: int,
        mode: EncoderMode,
        embed_dim: int,
        hidden: int = HIDDEN_SIZE,
        output_dim: int = OUTPUT_DIM,
        seed: int = 0,
    ) -> "DefinitionModel":
        mode = EncoderMode(mode)
        seq = np.random.SeedSequence(seed)
        emb_rng, fwd_rng, bwd_rng, proj_rng = (
            np.random.default_rng(s) for s in seq.spawn(4)
        )
        bidirectional = mode is EncoderMode.BIDIRECTIONAL
        return cls(
            embeddings=init_learned(vocab_size, dim=embed_dim, seed=emb_rng, pad_id=pad_id),
            lstm=init_lstm(embed_dim, hidden, fwd_rng),
            lstm_back=init_lstm(embed_dim, hidden, bwd_rng) if bidirectional else None,
            projection=init_projection(
                2 * hidden if bidirectional else hidden, output_dim, proj_rng
            ),
            mode=mode,
        )

    @property
    def output_dim(self) -> int:
        return self.projection.output_dim

    def param_dict(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (PAD row handled by the trainer)."""
        params = {"emb": self.embeddings.matrix}
        for name in LSTMParams.FIELDS:
            params[f"fwd.{name}"] = getattr(self.lstm, name)
        if self.lstm_back is not None:
            for name in LSTMParams.FIELDS:
                params[f"bwd.{name}"] = getattr(self.lstm_back, name)
        params["proj.w"] = self.projection.weight
        params["proj.b"] = self.projection.bias
        return params

    def encode_ids(self, token_ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Encode id matrices straight to projected vectors (inference path)."""
        token_ids = np.asarray(token_ids)
        single = token_ids.ndim == 1
        token_ids = np.atleast_2d(token_ids)
        lengths = np.atleast_1d(np.asarray(lengths))
        x_seq = self.embeddings.matrix[token_ids]
        mask = np.arange(token_ids.shape[1])[None, :] < lengths[:, None]
        pre = encode(self.mode, self.lstm, x_seq, mask, self.lstm_back)
        y = project(pre, self.projection)
        return y[0] if single else y

