"""Training objectives and exact gradients for the definition model.

Two losses over the projected gloss vector y and the pretrained target v_c:

* cosine: 1 - cos(y, v_c)
* rank:   max(0, m - cos(y, v_c) + cos(y, v_r)) with a random confounder
          v_r; zero exactly when y is at least m closer (in cosine) to the
          target than to the confounder.

``backward`` runs backpropagation through the projection, the encoder mode,
and time, by hand; ``finite_diff_check`` is the central-difference harness
that keeps it honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoder import (
    DefinitionModel,
    EncoderMode,
    LSTMParams,
    reverse_within_lengths,
    run_lstm,
    sigmoid,
)
from .errors import NonFiniteLossError

MARGIN = 0.1


class LossKind(str, Enum):
    COSINE = "cosine"
    RANK = "rank"


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero-norm vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def cosine_loss(y: np.ndarray, target: np.ndarray) -> float:
    """1 - cos(y, target); 0 when aligned, 2 when opposite."""
    return 1.0 - cosine(y, target)


def rank_loss(
    y: np.ndarray, target: np.ndarray, confounder: np.ndarray, margin: float = MARGIN
) -> float:
    """Hinge on the cosine gap between target and confounder."""
    return max(0.0, margin - cosine(y, target) + cosine(y, confounder))


def sample_negative(n_candidates: int, correct_id: int, rng: np.random.Generator) -> int:
    """Uniform draw over candidate ids excluding ``correct_id``."""
    if n_candidates < 2:
        raise ValueError("need at least two candidates to sample a negative")
    if not 0 <= correct_id < n_candidates:
        raise ValueError(f"correct_id {correct_id} outside [0, {n_candidates})")
    drawn = int(rng.integers(n_candidates - 1))
    return drawn + 1 if drawn >= correct_id else drawn


@dataclass
class RowGradient:
    """A gradient that is zero outside ``rows``: ascending unique row ids and their values."""

    rows: np.ndarray  # (k,) int64
    values: np.ndarray  # (k, ...) float64
    shape: tuple[int, ...]  # shape of the full parameter

    def dense(self) -> np.ndarray:
        full = np.zeros(self.shape)
        full[self.rows] = self.values
        return full


@dataclass
class GradientSet:
    """Gradients of every model parameter; the embedding's holds only its touched rows."""

    embedding_rows: RowGradient
    lstm: LSTMParams
    lstm_back: LSTMParams | None
    proj_weight: np.ndarray
    proj_bias: np.ndarray

    @property
    def embeddings(self) -> np.ndarray:
        return self.embedding_rows.dense()

    def as_dict(self, sparse: bool = False) -> dict[str, np.ndarray | RowGradient]:
        """Gradients by parameter name, shaped like the parameters.

        With ``sparse`` the embedding gradient stays a RowGradient, which
        ``trainer.adam_update`` applies without a dense table-sized array.
        """
        grads = {"emb": self.embedding_rows if sparse else self.embeddings}
        for name in LSTMParams.FIELDS:
            grads[f"fwd.{name}"] = getattr(self.lstm, name)
        if self.lstm_back is not None:
            for name in LSTMParams.FIELDS:
                grads[f"bwd.{name}"] = getattr(self.lstm_back, name)
        grads["proj.w"] = self.proj_weight
        grads["proj.b"] = self.proj_bias
        return grads


def _mask_from_lengths(token_ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    return np.arange(token_ids.shape[1])[None, :] < lengths[:, None]


def _forward(model: DefinitionModel, token_ids: np.ndarray, lengths: np.ndarray):
    """Shared forward pass returning y plus everything backward needs."""
    x_seq = model.embeddings.matrix[token_ids]
    mask = _mask_from_lengths(token_ids, lengths)
    if np.any(lengths < 1):
        raise ValueError("cannot encode an all-pad sequence")
    rows = np.arange(token_ids.shape[0])
    trace = run_lstm(model.lstm, x_seq)

    back_trace = None
    x_rev = None
    if model.mode is EncoderMode.FINAL:
        pre = trace.h[rows, lengths - 1]
    elif model.mode is EncoderMode.AVERAGE:
        pre = (trace.h * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    else:
        x_rev = reverse_within_lengths(x_seq, lengths)
        back_trace = run_lstm(model.lstm_back, x_rev)
        pre = np.concatenate(
            [trace.h[rows, lengths - 1], back_trace.h[rows, lengths - 1]], axis=1
        )

    p = pre @ model.projection.weight + model.projection.bias
    y = np.tanh(p)
    return y, (x_seq, x_rev, mask, rows, trace, back_trace, pre)


def _row_cosines(y: np.ndarray, other: np.ndarray, with_grad: bool = True):
    """Per-row cosine and (optionally) its gradient with respect to y."""
    ny = np.linalg.norm(y, axis=1)
    no = np.linalg.norm(other, axis=1)
    if np.any(ny == 0.0) or np.any(no == 0.0):
        raise ValueError("cosine of a zero-norm vector is undefined")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        cos = np.einsum("bd,bd->b", y, other) / (ny * no)
        dcos = None
        if with_grad:
            dcos = other / (ny * no)[:, None] - (cos / ny**2)[:, None] * y
    if not np.all(np.isfinite(cos)):
        # checked here because a nan would slip through the rank hinge as 0
        raise NonFiniteLossError("non-finite cosine in loss")
    return cos, dcos


def _row_losses(
    y: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None,
    margin: float,
    with_grad: bool = True,
):
    """Per-row loss of (N, D) outputs and (optionally) its gradient rows."""
    cos_c, dcos_c = _row_cosines(y, targets, with_grad)
    dy = None
    if loss_kind is LossKind.COSINE:
        per_row = 1.0 - cos_c
        if with_grad:
            dy = -dcos_c
    else:
        if negatives is None:
            raise ValueError("rank loss needs negative targets")
        cos_r, dcos_r = _row_cosines(y, negatives, with_grad)
        gap = margin - cos_c + cos_r
        active = gap > 0.0  # subgradient 0 at the kink
        per_row = np.where(active, gap, 0.0)
        if with_grad:
            dy = np.where(active[:, None], dcos_r - dcos_c, 0.0)
    return per_row, dy


def _loss_and_dy(
    y: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None,
    margin: float,
    with_grad: bool = True,
):
    per_row, dy = _row_losses(y, targets, loss_kind, negatives, margin, with_grad)
    loss = float(per_row.mean())
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"non-finite batch loss: {loss!r}")
    return loss, (dy / y.shape[0] if with_grad else None)


def batch_loss(
    model: DefinitionModel,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None = None,
    margin: float = MARGIN,
) -> float:
    """Mean loss over the batch (forward only).

    Runs the trace-free inference path; a unit test pins it to the exact
    outputs of the backward pass's forward.
    """
    y = model.encode_ids(np.asarray(token_ids), np.asarray(lengths))
    loss, _ = _loss_and_dy(y, targets, LossKind(loss_kind), negatives, margin, with_grad=False)
    return loss


def _lstm_backward(
    params: LSTMParams, x_seq: np.ndarray, trace, dh_inject: np.ndarray
) -> tuple[np.ndarray, LSTMParams]:
    """Backpropagation through time for one direction.

    ``dh_inject[:, t]`` is the loss gradient arriving directly at h_t (from
    state selection or averaging); returns gradients for the inputs and for
    every gate parameter.
    """
    batch, length, _ = x_seq.shape
    grads = LSTMParams.zeros(params.embed_dim, params.hidden)
    dx = np.zeros_like(x_seq)
    dh_next = np.zeros((batch, params.hidden))
    dc_next = np.zeros((batch, params.hidden))
    for t in reversed(range(length)):
        i, f, o, g = trace.i[:, t], trace.f[:, t], trace.o[:, t], trace.g[:, t]
        c, c_prev, h_prev = trace.c[:, t], trace.c_prev[:, t], trace.h_prev[:, t]
        tanh_c = np.tanh(c)

        dh = dh_inject[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz_o = dh * tanh_c * o * (1.0 - o)
        dz_i = dc * g * i * (1.0 - i)
        dz_g = dc * i * (1.0 - g**2)
        dz_f = dc * c_prev * f * (1.0 - f)
        dc_next = dc * f

        x_t = x_seq[:, t]
        grads.w_i += x_t.T @ dz_i
        grads.w_f += x_t.T @ dz_f
        grads.w_o += x_t.T @ dz_o
        grads.w_g += x_t.T @ dz_g
        grads.u_i += h_prev.T @ dz_i
        grads.u_f += h_prev.T @ dz_f
        grads.u_o += h_prev.T @ dz_o
        grads.u_g += h_prev.T @ dz_g
        grads.b_i += dz_i.sum(axis=0)
        grads.b_f += dz_f.sum(axis=0)
        grads.b_o += dz_o.sum(axis=0)
        grads.b_g += dz_g.sum(axis=0)

        dx[:, t] = (
            dz_i @ params.w_i.T + dz_f @ params.w_f.T + dz_o @ params.w_o.T + dz_g @ params.w_g.T
        )
        dh_next = (
            dz_i @ params.u_i.T + dz_f @ params.u_f.T + dz_o @ params.u_o.T + dz_g @ params.u_g.T
        )
    return dx, grads


def _embedding_gradient(
    token_ids: np.ndarray, dx: np.ndarray, shape: tuple[int, ...], pad_id: int
) -> RowGradient:
    """Sum the input gradients ``dx`` per token row, PAD pinned to zero.

    Only the batch's own rows are accumulated, each in position order as a
    scatter into a dense zero table would add them, so the sums are bitwise
    equal to that scatter.
    """
    rows, position_row = np.unique(token_ids.ravel(), return_inverse=True)
    values = np.zeros((rows.size, dx.shape[-1]))
    np.add.at(values, position_row, dx.reshape(-1, dx.shape[-1]))
    values[rows == pad_id] = 0.0
    return RowGradient(rows=rows, values=values, shape=shape)


def backward(
    model: DefinitionModel,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None = None,
    margin: float = MARGIN,
) -> tuple[float, GradientSet]:
    """Mean batch loss and its exact gradient for every trainable parameter.

    Pad positions receive no gradient injection, so they contribute zero;
    the PAD embedding row is pinned to zero gradient explicitly as well.
    """
    token_ids = np.asarray(token_ids)
    lengths = np.asarray(lengths)
    y, (x_seq, x_rev, mask, rows, trace, back_trace, pre) = _forward(model, token_ids, lengths)
    loss, dy = _loss_and_dy(y, targets, LossKind(loss_kind), negatives, margin)
    if not (trace.finite and (back_trace is None or back_trace.finite)):
        # a finite loss can still come from inf pre-activations saturating the gates
        raise NonFiniteLossError("non-finite LSTM pre-activation")

    # projection: y = tanh(pre @ W + b)
    dp = dy * (1.0 - y**2)
    d_proj_w = pre.T @ dp
    d_proj_b = dp.sum(axis=0)
    d_pre = dp @ model.projection.weight.T

    hidden = model.lstm.hidden
    batch, length = token_ids.shape
    dh_inject = np.zeros((batch, length, hidden))
    if model.mode is EncoderMode.FINAL:
        dh_inject[rows, lengths - 1] = d_pre
    elif model.mode is EncoderMode.AVERAGE:
        dh_inject[:] = (d_pre / lengths[:, None])[:, None, :] * mask[:, :, None]
    else:
        dh_inject[rows, lengths - 1] = d_pre[:, :hidden]

    dx, lstm_grads = _lstm_backward(model.lstm, x_seq, trace, dh_inject)

    back_grads = None
    if model.mode is EncoderMode.BIDIRECTIONAL:
        dh_back = np.zeros((batch, length, hidden))
        dh_back[rows, lengths - 1] = d_pre[:, hidden:]
        dx_rev, back_grads = _lstm_backward(model.lstm_back, x_rev, back_trace, dh_back)
        dx += reverse_within_lengths(dx_rev, lengths)

    return loss, GradientSet(
        embedding_rows=_embedding_gradient(
            token_ids, dx, model.embeddings.matrix.shape, model.embeddings.pad_id
        ),
        lstm=lstm_grads,
        lstm_back=back_grads,
        proj_weight=d_proj_w,
        proj_bias=d_proj_b,
    )


# float64 elements one stacked pass of finite_diff_check may hold per array
REPLICA_ELEMENTS = 1 << 21


def _replica_lstm_states(params: dict[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """run_lstm_states over (R, B, L, E) inputs with (R, ...) gate arrays.

    Every array carries a leading replica axis of size R or 1; size-1 axes
    broadcast, so a direction whose inputs and gates are shared runs once.
    """
    w, u, b = (
        np.concatenate(
            np.broadcast_arrays(*(params[f"{prefix}.{kind}_{gate}"] for gate in "ifog")), axis=-1
        )
        for kind in "wub"
    )
    hidden = u.shape[1]
    x_proj = x @ w[:, None]
    h = np.zeros(x_proj.shape[:2] + (hidden,))
    c = np.zeros_like(h)
    states = []
    for t in range(x.shape[2]):
        pre = x_proj[:, :, t] + h @ u + b[:, None]
        gates = sigmoid(pre[..., : 3 * hidden])
        i = gates[..., :hidden]
        f = gates[..., hidden : 2 * hidden]
        o = gates[..., 2 * hidden :]
        g = np.tanh(pre[..., 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h)
    return np.stack(states, axis=2)


def _replica_losses(
    model: DefinitionModel,
    name: str,
    entries: np.ndarray,
    deltas: np.ndarray,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None = None,
    margin: float = MARGIN,
) -> np.ndarray:
    """batch_loss of R model replicas, scored in one stacked forward pass.

    Replica r is the model with flat entry ``entries[r]`` of parameter
    ``name`` moved by ``deltas[r]``; only that array is copied R times, the
    others are shared views, and the model itself is never written to.
    """
    params = {key: value[None] for key, value in model.param_dict().items()}
    stacked = np.repeat(params[name], len(entries), axis=0)
    stacked.reshape(len(entries), -1)[np.arange(len(entries)), entries] = (
        params[name].reshape(-1)[entries] + deltas
    )
    params[name] = stacked

    if np.any(lengths < 1):
        raise ValueError("cannot encode an all-pad sequence")
    rows = np.arange(token_ids.shape[0])
    last = lengths - 1
    x = params["emb"][:, token_ids]
    states = _replica_lstm_states(params, "fwd", x)
    if model.mode is EncoderMode.FINAL:
        pre = states[:, rows, last]
    elif model.mode is EncoderMode.AVERAGE:
        mask = _mask_from_lengths(token_ids, lengths)
        pre = (states * mask[:, :, None]).sum(axis=2) / lengths[:, None]
    else:
        steps = np.arange(token_ids.shape[1])
        reverse = np.where(steps < lengths[:, None], last[:, None] - steps, steps)
        back = _replica_lstm_states(params, "bwd", x[:, rows[:, None], reverse])
        pre = np.concatenate(
            np.broadcast_arrays(states[:, rows, last], back[:, rows, last]), axis=-1
        )
    y = np.tanh(pre @ params["proj.w"] + params["proj.b"][:, None])

    def tiled(other):
        return None if other is None else np.broadcast_to(other, y.shape).reshape(-1, y.shape[-1])

    per_row, _ = _row_losses(
        y.reshape(-1, y.shape[-1]), tiled(targets), loss_kind, tiled(negatives), margin,
        with_grad=False,
    )
    losses = per_row.reshape(y.shape[:2]).mean(axis=1)
    bad = losses[~np.isfinite(losses)]
    if bad.size:
        raise NonFiniteLossError(f"non-finite batch loss: {float(bad[0])!r}")
    return losses


def finite_diff_check(
    model: DefinitionModel,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None = None,
    eps: float = 1e-4,
) -> float:
    """Max relative error between backward() and central differences.

    Every entry of every parameter array gets (loss(+eps) - loss(-eps)) /
    2 eps; relative error per entry is |fd - grad| / max(|fd|, |grad|, 1e-8).
    The perturbed models are scored as stacked replicas, as many per pass
    as fit in REPLICA_ELEMENTS; the model is left bitwise unchanged.
    """
    token_ids = np.asarray(token_ids)
    lengths = np.asarray(lengths)
    loss_kind = LossKind(loss_kind)
    _, grads = backward(model, token_ids, lengths, targets, loss_kind, negatives)
    grad_dict = grads.as_dict()
    # what one replica holds besides its copy of the array and the fused
    # gate matrix it lands in: per direction, the embedded inputs, the gate
    # pre-activations and the states
    directions = 1 if model.lstm_back is None else 2
    activations = directions * token_ids.size * (model.lstm.embed_dim + 5 * model.lstm.hidden)

    worst = 0.0
    for name, param in model.param_dict().items():
        flat_grad = grad_dict[name].reshape(-1)
        chunk = max(1, REPLICA_ELEMENTS // (2 * (5 * param.size + activations)))
        for start in range(0, param.size, chunk):
            entries = np.arange(start, min(start + chunk, param.size))
            losses = _replica_losses(
                model, name, np.repeat(entries, 2), np.tile([eps, -eps], entries.size),
                token_ids, lengths, targets, loss_kind, negatives,
            )
            fd = (losses[0::2] - losses[1::2]) / (2.0 * eps)
            grad = flat_grad[entries]
            err = np.abs(fd - grad) / np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-8)
            worst = max(worst, float(err.max()))
    return worst
