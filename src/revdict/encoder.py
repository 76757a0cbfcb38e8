"""Gloss encoders: LSTM composition in three modes.

A gloss is embedded token by token and folded into one vector:

* ``final``          -- hidden state at the last non-pad position
* ``average``        -- mean of hidden states over non-pad positions
* ``bidirectional``  -- forward final state concatenated with the final
                        state of a second LSTM run over the reversed tokens

The result is projected through a tanh layer into the pretrained embedding
space.  Training, inference and the gradient check share one recurrence
(``run_lstm_states``), one read-out (``read_out``, with its adjoint) and
one forward (``forward``) that strings them together; its embedding
gather is ``LearnedTable.lookup``, which reads a loaded checkpoint's rows
from the file by position and checks each one.  The parameter
layout is stated once: ``directions`` names a mode's LSTM runs,
``named_params`` names the arrays in ``param_dict`` order (the parameters,
their gradients and their shapes alike) and ``param_shapes`` gives each
array's shape.  The recurrence takes each row's length and steps only the
rows that are still running, so padded positions cost nothing and hold
zeros; a non-finite gate pre-activation raises NonFiniteLossError at
its step.  All arithmetic is float64 and batch-first; ``encode_ids``
also takes a single sequence and returns an unbatched vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embeddings import INIT_SCALE, LearnedTable
from .errors import NonFiniteLossError

HIDDEN_SIZE = 512
DIRECTIONS = ("fwd", "bwd")  # the gloss read forward, and reversed


class EncoderMode(str, Enum):
    FINAL = "final"
    AVERAGE = "average"
    BIDIRECTIONAL = "bidirectional"


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; the numerator is 1 for z >= 0 (as ez <= 1) and ez below,
    # the textbook halves 1/(1+ez) and ez/(1+ez) without a data-dependent branch
    ez = np.exp(-np.abs(z))
    return np.maximum(ez, z >= 0) / (1.0 + ez)


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
    def hidden(self) -> int:
        return int(self.u.shape[-2])

    def named(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": getattr(self, name) for name in self.FIELDS}


def directions(mode: EncoderMode) -> tuple[str, ...]:
    """The names of ``mode``'s LSTM runs: forward, and for ``bidirectional`` the reversed gloss too."""
    return DIRECTIONS if EncoderMode(mode) is EncoderMode.BIDIRECTIONAL else DIRECTIONS[:1]


def named_params(emb, lstms, proj_w, proj_b) -> dict:
    """The parameter layout by name: ``emb``, each direction's gates, the projection (arrays, gradients or shapes)."""
    named = {"emb": emb}
    for prefix, lstm in zip(DIRECTIONS, lstms):
        named.update(lstm.named(prefix))
    return {**named, "proj.w": proj_w, "proj.b": proj_b}


def param_shapes(
    mode: EncoderMode, vocab_size: int, embed_dim: int, hidden: int, output_dim: int
) -> dict[str, tuple[int, ...]]:
    """Each parameter array's name and shape for a model of ``mode``, in ``param_dict`` order."""
    count = len(directions(mode))
    gates = LSTMParams(w=(embed_dim, 4 * hidden), u=(hidden, 4 * hidden), b=(4 * hidden,))
    return named_params((vocab_size, embed_dim), [gates] * count, (count * hidden, output_dim), (output_dim,))


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


@dataclass
class LSTMTrace:
    """Every intermediate of a recorded run, kept for backpropagation.

    ``gates`` is (..., B, L, 4H), the activated i, f, o, g blocks; ``c`` and
    ``h`` are (..., B, L, H), the cell and hidden state after each step.
    """

    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray


def run_lstm_states(params: LSTMParams, x: np.ndarray, lengths: np.ndarray, record: bool = False):
    """Run the LSTM over (..., B, L, E) inputs from zero state.

    Row b steps through its first ``lengths[b]`` positions only, and its
    padded positions keep zero states, gates and cells.  Returns the hidden
    states (..., B, L, H), or with ``record`` the whole LSTMTrace.  The
    params' leading axes broadcast against the inputs' (...), so stacked
    model replicas run in one pass.  A gate pre-activation that overflows
    to inf or is nan, which the saturating gates would hide, raises
    NonFiniteLossError at its step.
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
    with np.errstate(over="ignore", invalid="ignore"):  # raised as the named error instead
        # one GEMM over all B*L positions; the leading axes still broadcast
        x_proj = x.reshape(x.shape[:-3] + (batch * length, embed)) @ params.w
        x_proj = x_proj.reshape(x_proj.shape[:-2] + (batch, length, 4 * hidden))
        b = params.b[..., None, :]
        for t in range(length):
            rows = np.flatnonzero(lengths > t)
            if rows.size == batch:
                rows = slice(None)  # every row still running: views, no gathers
            pre = x_proj[..., rows, t, :] + h[..., rows, :] @ params.u + b
            if not np.isfinite(pre).all():
                raise NonFiniteLossError("non-finite LSTM pre-activation")
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
    return LSTMTrace(gate_record, cells, states) if record else states


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


def forward(model: DefinitionModel, token_ids: np.ndarray, lengths: np.ndarray, run, record: bool = False):
    """Projected outputs (..., B, D) plus what backward needs: pre, each direction's inputs and run.

    ``run`` is the recurrence, ``run_lstm_states`` under the name its caller
    looks it up by.  The model's arrays may carry leading replica axes (see
    ``objective._replica_losses``); without ``record`` each run is its
    states, not an LSTMTrace.
    """
    x = model.embeddings.lookup(token_ids)
    inputs = [x, reverse_steps(x, lengths)] if len(model.lstms) > 1 else [x]
    runs = [run(params, x_dir, lengths, record) for params, x_dir in zip(model.lstms, inputs)]
    pre = read_out(model.mode, lengths, *(r.h if record else r for r in runs))
    y = np.tanh(pre @ model.projection.weight + model.projection.bias[..., None, :])
    return y, (pre, inputs, runs)


@dataclass
class DefinitionModel:
    """All trainable state for one gloss-to-embedding model."""

    embeddings: LearnedTable
    lstms: tuple[LSTMParams, ...]  # one per name in ``directions(mode)``
    projection: Projection
    mode: EncoderMode

    @classmethod
    def create(
        cls,
        vocab_size: int,
        pad_id: int,
        mode: EncoderMode,
        embed_dim: int,
        hidden: int,
        output_dim: int,
        seed: int,
    ) -> "DefinitionModel":
        if vocab_size < 2:
            raise ValueError("vocabulary must contain at least UNK and PAD")
        if not 0 <= pad_id < vocab_size:
            raise ValueError(f"pad id {pad_id} outside [0, {vocab_size})")
        mode = EncoderMode(mode)
        seq = np.random.SeedSequence(seed)
        emb_rng, *lstm_rngs, proj_rng = (np.random.default_rng(s) for s in seq.spawn(4))
        proj_shape = param_shapes(mode, vocab_size, embed_dim, hidden, output_dim)["proj.w"]
        emb = emb_rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, embed_dim))
        emb[pad_id] = 0.0
        return cls(
            embeddings=LearnedTable(matrix=emb, pad_id=pad_id),
            lstms=tuple(init_lstm(embed_dim, hidden, rng) for rng in lstm_rngs[: len(directions(mode))]),
            projection=Projection(
                weight=proj_rng.uniform(-INIT_SCALE, INIT_SCALE, size=proj_shape), bias=np.zeros(output_dim)
            ),
            mode=mode,
        )

    @classmethod
    def from_params(cls, mode: EncoderMode, pad_id: int, params: dict[str, np.ndarray]) -> "DefinitionModel":
        """The model over the arrays ``param_dict`` names, as views."""
        mode = EncoderMode(mode)
        return cls(
            embeddings=LearnedTable(matrix=params["emb"], pad_id=pad_id),
            lstms=tuple(
                LSTMParams(*(params[f"{prefix}.{name}"] for name in LSTMParams.FIELDS)) for prefix in directions(mode)
            ),
            projection=Projection(weight=params["proj.w"], bias=params["proj.b"]),
            mode=mode,
        )

    def param_dict(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (PAD row handled by the trainer)."""
        return named_params(self.embeddings.matrix, self.lstms, self.projection.weight, self.projection.bias)

    def encode_ids(self, token_ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Encode id matrices straight to projected vectors (inference path)."""
        token_ids = np.asarray(token_ids)
        single = token_ids.ndim == 1
        lengths = np.atleast_1d(np.asarray(lengths))
        y, _ = forward(self, np.atleast_2d(token_ids), lengths, run_lstm_states)
        return y[0] if single else y
