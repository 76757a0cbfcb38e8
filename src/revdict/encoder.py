"""Gloss encoders: LSTM composition in three modes.

A gloss is embedded token by token and folded into one vector:

* ``final``          -- hidden state at the last non-pad position
* ``average``        -- mean of hidden states over non-pad positions
* ``bidirectional``  -- forward final state concatenated with the final
                        state of a second LSTM run over the reversed tokens

The result is projected through a tanh layer into the pretrained embedding
space.  Training, inference and the gradient check share one recurrence
(``run_lstm_states``) and one read-out (``read_out``, with its adjoint).
The recurrence takes each row's length and steps only the rows that are
still running, so padded positions cost nothing and hold zeros.  All
arithmetic is float64 and batch-first; ``encode_ids`` and ``project`` also
take a single sequence and return an unbatched vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embeddings import INIT_SCALE, LearnedTable, init_learned
from .errors import NonFiniteLossError

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
    """One direction's fused gate weights, gate blocks in the order i, f, o, g.

    ``w`` is (E, 4H), ``u`` is (H, 4H) and ``b`` is (4H,).  Leading axes
    before those broadcast, so one object can hold stacked replicas.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    FIELDS = ("w", "u", "b")

    @property
    def embed_dim(self) -> int:
        return int(self.w.shape[-2])

    @property
    def hidden(self) -> int:
        return int(self.u.shape[-2])

    def named(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": getattr(self, name) for name in self.FIELDS}


def init_lstm(embed_dim: int, hidden: int, rng: np.random.Generator) -> LSTMParams:
    """Uniform [-0.05, 0.05] gate matrices, drawn gate by gate; biases start at zero."""
    w = [rng.uniform(-INIT_SCALE, INIT_SCALE, size=(embed_dim, hidden)) for _ in range(4)]
    u = [rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, hidden)) for _ in range(4)]
    return LSTMParams(np.concatenate(w, axis=1), np.concatenate(u, axis=1), np.zeros(4 * hidden))


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


@dataclass
class LSTMTrace:
    """Every intermediate of a recorded run, kept for backpropagation.

    ``gates`` is (..., B, L, 4H), the activated i, f, o, g blocks; ``c`` and
    ``h`` are (..., B, L, H), the cell and hidden state after each step.
    ``finite`` is False when any gate pre-activation overflowed to inf or
    was nan, which the saturating gates would otherwise hide.
    """

    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    finite: bool = True


def run_lstm_states(params: LSTMParams, x: np.ndarray, lengths: np.ndarray, record: bool = False):
    """Run the LSTM over (..., B, L, E) inputs from zero state.

    Row b steps through its first ``lengths[b]`` positions only, and its
    padded positions keep zero states, gates and cells.  Returns the hidden
    states (..., B, L, H), or with ``record`` the whole LSTMTrace.  The
    params' leading axes broadcast against the inputs' (...), so stacked
    model replicas run in one pass.  Non-finite gate pre-activations clear
    a recorded run's ``finite``; any other run raises NonFiniteLossError.
    """
    hidden = params.hidden
    batch, length, embed = x.shape[-3:]
    lead = np.broadcast_shapes(x.shape[:-3], params.w.shape[:-2], params.u.shape[:-2], params.b.shape[:-1])
    shape = lead + (batch, length)
    h = np.zeros(lead + (batch, hidden))
    c = np.zeros_like(h)
    states = np.zeros(shape + (hidden,))
    if record:
        gate_record = np.zeros(shape + (4 * hidden,))
        cells = np.zeros(shape + (hidden,))
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):  # reported through ``finite`` instead
        # one GEMM over all B*L positions; the leading axes still broadcast
        x_proj = x.reshape(x.shape[:-3] + (batch * length, embed)) @ params.w
        x_proj = x_proj.reshape(x_proj.shape[:-2] + (batch, length, 4 * hidden))
        b = params.b[..., None, :]
        for t in range(length):
            rows = np.flatnonzero(lengths > t)
            if rows.size == batch:
                rows = slice(None)  # every row still running: views, no gathers
            pre = x_proj[..., rows, t, :] + h[..., rows, :] @ params.u + b
            finite = finite and bool(np.isfinite(pre).all())
            gates = sigmoid(pre[..., : 3 * hidden])
            g = np.tanh(pre[..., 3 * hidden :])
            c_t = gates[..., hidden : 2 * hidden] * c[..., rows, :] + gates[..., :hidden] * g
            h_t = gates[..., 2 * hidden :] * np.tanh(c_t)
            c[..., rows, :] = c_t
            h[..., rows, :] = h_t
            states[..., rows, t, :] = h_t
            if record:
                gate_record[..., rows, t, : 3 * hidden] = gates
                gate_record[..., rows, t, 3 * hidden :] = g
                cells[..., rows, t, :] = c_t
    if not (record or finite):
        raise NonFiniteLossError("non-finite LSTM pre-activation")
    return LSTMTrace(gate_record, cells, states, finite) if record else states


def reverse_steps(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(..., B, L, D) with each row's first ``lengths[b]`` steps reversed and its pad tail kept.

    A permutation, and its own inverse: it feeds the backward direction its
    inputs and hands its input gradients back in forward order.
    """
    steps = np.arange(x.shape[-2])
    order = np.where(steps < lengths[:, None], lengths[:, None] - 1 - steps, steps)
    return x[..., np.arange(lengths.size)[:, None], order, :]


def _mask(lengths: np.ndarray, length: int) -> np.ndarray:
    return np.arange(length)[None, :] < lengths[:, None]


def read_out(
    mode: EncoderMode, lengths: np.ndarray, states: np.ndarray, back_states: np.ndarray | None = None
) -> np.ndarray:
    """Fold (..., B, L, H) states into pre-projection vectors (..., B, H or 2H).

    ``back_states`` are the bidirectional mode's second direction, run over
    reversed inputs.  A row of length 0 is an error.
    """
    if np.any(lengths < 1):
        raise ValueError("cannot encode an all-pad sequence")
    if mode is EncoderMode.AVERAGE:
        mask = _mask(lengths, states.shape[-2])
        return (states * mask[:, :, None]).sum(axis=-2) / lengths[:, None]
    rows = np.arange(lengths.size)
    last = states[..., rows, lengths - 1, :]
    if mode is EncoderMode.FINAL:
        return last
    return np.concatenate(np.broadcast_arrays(last, back_states[..., rows, lengths - 1, :]), axis=-1)


def read_out_adjoint(mode: EncoderMode, lengths: np.ndarray, length: int, d_pre: np.ndarray) -> list[np.ndarray]:
    """Gradients (B, L, H) at each direction's states, given the gradient of read_out's (B, H or 2H) output."""
    if mode is EncoderMode.AVERAGE:
        return [(d_pre / lengths[:, None])[:, None, :] * _mask(lengths, length)[:, :, None]]
    grads = []
    for part in np.split(d_pre, 2 if mode is EncoderMode.BIDIRECTIONAL else 1, axis=-1):
        dh = np.zeros((lengths.size, length, part.shape[-1]))
        dh[np.arange(lengths.size), lengths - 1] = part
        grads.append(dh)
    return grads


def encode(
    mode: EncoderMode,
    params: LSTMParams,
    x_seq: np.ndarray,
    lengths: np.ndarray,
    params_back: LSTMParams | None = None,
) -> np.ndarray:
    """Compose embedded (B, L, E) tokens into pre-projection vectors (B, H or 2H).

    Row b holds ``lengths[b]`` true positions followed by padding.
    """
    mode = EncoderMode(mode)
    states = run_lstm_states(params, x_seq, lengths)
    back_states = None
    if mode is EncoderMode.BIDIRECTIONAL:
        if params_back is None:
            raise ValueError("bidirectional mode needs backward-direction parameters")
        back_states = run_lstm_states(params_back, reverse_steps(x_seq, lengths), lengths)
    return read_out(mode, lengths, states, back_states)


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

    @classmethod
    def from_params(cls, mode: EncoderMode, pad_id: int, params: dict[str, np.ndarray]) -> "DefinitionModel":
        """The model over the arrays ``param_dict`` names, as views."""
        mode = EncoderMode(mode)

        def lstm(prefix: str) -> LSTMParams:
            return LSTMParams(*(params[f"{prefix}.{name}"] for name in LSTMParams.FIELDS))

        return cls(
            embeddings=LearnedTable(matrix=params["emb"], pad_id=pad_id),
            lstm=lstm("fwd"),
            lstm_back=lstm("bwd") if mode is EncoderMode.BIDIRECTIONAL else None,
            projection=Projection(weight=params["proj.w"], bias=params["proj.b"]),
            mode=mode,
        )

    def param_dict(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (PAD row handled by the trainer)."""
        params = {"emb": self.embeddings.matrix, **self.lstm.named("fwd")}
        if self.lstm_back is not None:
            params.update(self.lstm_back.named("bwd"))
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
        pre = encode(self.mode, self.lstm, x_seq, lengths, self.lstm_back)
        y = project(pre, self.projection)
        return y[0] if single else y
