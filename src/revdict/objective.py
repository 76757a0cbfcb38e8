"""Training objectives and exact gradients for the definition model.

Two losses over the projected gloss vector y and the pretrained target v_c:

* cosine: 1 - cos(y, v_c)
* rank:   max(0, m - cos(y, v_c) + cos(y, v_r)) with a random confounder
          v_r and the constant margin m = MARGIN; zero exactly when y is at
          least m closer (in cosine) to the target than to the confounder.

``backward`` runs backpropagation through the projection, the encoder mode,
and time, by hand, over the outputs of ``encoder.forward`` (the same
forward ``encode_ids`` and so ``batch_loss`` run), and returns the
gradients under the model's ``param_dict`` names; ``finite_diff_check`` is
the central-difference harness that keeps it honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoder import DefinitionModel, LSTMParams, forward, named_params, read_out_adjoint, reverse_steps
# bound under this name because the benchmark's tracer (perfbench/tracing.SITES) wraps it
# here; every forward in this module passes it in, so the training recurrence is timed apart
from .encoder import run_lstm_states as run_lstm
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


class GradientSet(dict):
    """Each parameter's gradient under its ``param_dict`` name; ``emb``'s is a RowGradient of its touched rows."""

    def as_dict(self) -> dict[str, np.ndarray]:
        """Dense gradients by parameter name, shaped like the parameters."""
        return {**self, "emb": self["emb"].dense()}


def _row_cosines(y: np.ndarray, other: np.ndarray):
    """Cosine of each row of (..., B, D) ``y`` with its row of ``other``, and its gradient in y."""
    ny = np.linalg.norm(y, axis=-1)
    no = np.linalg.norm(other, axis=-1)
    if np.any(ny == 0.0) or np.any(no == 0.0):
        raise ValueError("cosine of a zero-norm vector is undefined")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        cos = np.einsum("...d,...d->...", y, other) / (ny * no)
        dcos = other / (ny * no)[..., None] - (cos / ny**2)[..., None] * y
    if not np.all(np.isfinite(cos)):
        # checked here because a nan would slip through the rank hinge as 0
        raise NonFiniteLossError("non-finite cosine in loss")
    return cos, dcos


def _loss_and_dy(
    y: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None,
):
    """Mean loss over the B rows of (..., B, D) outputs, and its gradient in y; finite, as every cosine is."""
    cos_c, dcos_c = _row_cosines(y, targets)
    if loss_kind is LossKind.COSINE:
        per_row = 1.0 - cos_c
        dy = -dcos_c
    else:
        if negatives is None:
            raise ValueError("rank loss needs negative targets")
        cos_r, dcos_r = _row_cosines(y, negatives)
        gap = MARGIN - cos_c + cos_r
        active = gap > 0.0  # subgradient 0 at the kink
        per_row = np.where(active, gap, 0.0)
        dy = np.where(active[..., None], dcos_r - dcos_c, 0.0)
    return per_row.mean(axis=-1), dy / y.shape[-2]


def batch_loss(
    model: DefinitionModel,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    loss_kind: LossKind,
    negatives: np.ndarray | None = None,
) -> float:
    """Mean loss over the batch (forward only).

    Runs ``encode_ids``, the forward without a trace; a unit test pins it
    to the exact outputs of the backward pass's recorded forward.
    """
    y = model.encode_ids(np.asarray(token_ids), np.asarray(lengths))
    loss, _ = _loss_and_dy(y, targets, LossKind(loss_kind), negatives)
    return float(loss)


def _lstm_backward(
    params: LSTMParams, x: np.ndarray, trace, dh_inject: np.ndarray
) -> tuple[np.ndarray, LSTMParams]:
    """Backpropagation through time for one direction.

    ``dh_inject[:, t]`` is the loss gradient arriving directly at h_t (from
    state selection or averaging); returns gradients for the inputs and for
    the gate parameters.  The time loop carries only the gradient dZ_t
    (B, 4H) of the gate pre-activations, the cell-state gradient and
    dZ_t @ u.T; the weight, bias and input gradients are then each one GEMM
    or one sum over all B*L positions (Appleyard et al. 2016, section 3).
    """
    batch, length, embed = x.shape
    hidden = params.hidden
    i, f, o, g = np.split(trace.gates, 4, axis=-1)
    tanh_c = np.tanh(trace.c)
    c_prev = np.zeros_like(trace.c)
    c_prev[:, 1:] = trace.c[:, :-1]
    # per gate block, the factor its pre-activation gradient takes from dc
    # (i, f, g) or from dh (o); and the factor dc takes from dh
    coef = np.concatenate(
        (g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g**2)), axis=-1
    ).reshape(batch, length, 4, hidden)
    dc_from_dh = o * (1.0 - tanh_c**2)
    dz = np.empty((batch, length, 4, hidden))
    dh_next = np.zeros((batch, hidden))
    dc = np.zeros((batch, hidden))
    for t in reversed(range(length)):
        dh = dh_inject[:, t] + dh_next
        dc = dc + dh * dc_from_dh[:, t]
        np.multiply(coef[:, t], dc[:, None, :], out=dz[:, t])
        np.multiply(coef[:, t, 2], dh, out=dz[:, t, 2])
        dh_next = dz[:, t].reshape(batch, 4 * hidden) @ params.u.T
        dc = dc * f[:, t]
    dz_flat = dz.reshape(batch * length, 4 * hidden)
    grads = LSTMParams(
        w=x.reshape(-1, embed).T @ dz_flat,
        u=trace.h[:, :-1].reshape(-1, hidden).T @ dz[:, 1:].reshape(-1, 4 * hidden),
        b=dz_flat.sum(axis=0),
    )
    return (dz_flat @ params.w.T).reshape(x.shape), grads


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
) -> tuple[float, GradientSet]:
    """Mean batch loss and its exact gradient for every trainable parameter.

    Pad positions receive no gradient injection, so they contribute zero;
    the PAD embedding row is pinned to zero gradient explicitly as well.
    """
    token_ids = np.asarray(token_ids)
    lengths = np.asarray(lengths)
    y, (pre, inputs, traces) = forward(model, token_ids, lengths, run_lstm, record=True)
    loss, dy = _loss_and_dy(y, targets, LossKind(loss_kind), negatives)

    # projection: y = tanh(pre @ W + b)
    dp = dy * (1.0 - y**2)
    d_proj_w = pre.T @ dp
    d_proj_b = dp.sum(axis=0)
    d_pre = dp @ model.projection.weight.T

    dh_injects = read_out_adjoint(model.mode, lengths, token_ids.shape[1], d_pre)
    dxs, lstm_grads = zip(*map(_lstm_backward, model.lstms, inputs, traces, dh_injects))
    dx = dxs[0] if len(dxs) == 1 else dxs[0] + reverse_steps(dxs[1], lengths)
    d_emb = _embedding_gradient(token_ids, dx, model.embeddings.matrix.shape, model.embeddings.pad_id)
    return float(loss), GradientSet(named_params(d_emb, lstm_grads, d_proj_w, d_proj_b))


# float64 elements one stacked pass of finite_diff_check may hold per array
REPLICA_ELEMENTS = 1 << 21


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
) -> np.ndarray:
    """batch_loss of R model replicas, scored in one stacked forward pass.

    Replica r is the model with flat entry ``entries[r]`` of parameter
    ``name`` moved by ``deltas[r]``.  Every array gains a leading replica
    axis: that one is copied R times, the others are shared size-1 views
    that broadcast, and the model itself is never written to.
    """
    params = {key: value[None] for key, value in model.param_dict().items()}
    stacked = np.repeat(params[name], len(entries), axis=0)
    stacked.reshape(len(entries), -1)[np.arange(len(entries)), entries] = (
        params[name].reshape(-1)[entries] + deltas
    )
    params[name] = stacked
    replicas = DefinitionModel.from_params(model.mode, model.embeddings.pad_id, params)
    y, _ = forward(replicas, token_ids, lengths, run_lstm)
    losses, _ = _loss_and_dy(y, targets, loss_kind, negatives)
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
    # what one replica holds besides its copy of the array: per direction,
    # the embedded inputs, the gate pre-activations and the states
    lstm = model.lstms[0]
    activations = len(model.lstms) * token_ids.size * (lstm.embed_dim + 5 * lstm.hidden)

    worst = 0.0
    for name, param in model.param_dict().items():
        flat_grad = grad_dict[name].reshape(-1)
        chunk = max(1, REPLICA_ELEMENTS // (2 * (param.size + activations)))
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
