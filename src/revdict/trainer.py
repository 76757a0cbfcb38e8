"""Training loop: Adam over bucketed minibatches, best-dev checkpointing.

Every epoch reshuffles the buckets with an epoch-varied seed, draws fresh
negatives for the rank loss, applies Adam updates batch by batch, then
measures median rank on the dev set.  The checkpoint kept is the earliest
epoch with the lowest dev median rank, which guards against overtraining.

Checkpoints are zip archives with zeroed timestamps so that identical runs
produce bitwise-identical files.  They store the pretrained table in its
word-length row order, and loading refuses a table in any other order
rather than copy it to sort it.
"""

from __future__ import annotations

import copy
import io
import json
import os
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .corpus import DefinitionPair, EncodedPair, MINIBATCH_SIZE, bucket_and_batch
from .embeddings import PretrainedTable, length_order
from .encoder import DefinitionModel, EncoderMode, LSTMParams
from .errors import ConfigError, DataError, NonFiniteLossError
from .evaluator import median_rank, rank_of_correct, score_batches
from .objective import LossKind, RowGradient, backward, sample_negative
from .tokenizer import MergeTable, WordVocab, encode_gloss

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# float64 elements per slice of the Adam kernel, so that one slice of the
# parameter, its gradient and moments and the scratch rows stay in cache
# (of 2^11..2^17, 2^15 was fastest on a 17,852 x 500 table on a 4 MB-L2 x86)
ADAM_BLOCK = 1 << 15

CHECKPOINT_FORMAT = "revdict-checkpoint"
CHECKPOINT_VERSION = 3

# config-file keys that name input files rather than hyperparameters
CONFIG_PATH_KEYS = ("train", "dev", "embeddings", "merges", "crosswords")


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    optimizer: str = "adam"
    epochs: int = 10
    minibatch: int = 16
    bucket: int = 4096
    seed: int = 42
    loss_kind: str = "cosine"
    encoder_mode: str = "final"
    segmentation: str = "word"
    dataset: str = "definitions"
    embed_dim: int = 500
    hidden_size: int = 512

    def validate(self) -> "TrainConfig":
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if self.optimizer != "adam":
            raise ConfigError(f"unsupported optimizer {self.optimizer!r}")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if not 1 <= self.minibatch <= MINIBATCH_SIZE:
            raise ConfigError(f"minibatch must be in [1, {MINIBATCH_SIZE}]")
        if self.bucket < 1 or self.bucket % self.minibatch != 0:
            raise ConfigError("minibatch must divide bucket")
        if self.embed_dim < 1 or self.hidden_size < 1:
            raise ConfigError("embed_dim and hidden_size must be positive")
        try:
            LossKind(self.loss_kind)
            EncoderMode(self.encoder_mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.segmentation not in ("word", "bpe"):
            raise ConfigError(f"segmentation must be word or bpe, got {self.segmentation!r}")
        if self.dataset not in ("definitions", "full"):
            raise ConfigError(f"dataset must be definitions or full, got {self.dataset!r}")
        return self

    def override(self, **updates) -> "TrainConfig":
        """Copy with non-None updates applied (CLI flags beat config file)."""
        live = {k: v for k, v in updates.items() if v is not None}
        return replace(self, **live)


def read_config(path: str | Path) -> tuple[TrainConfig, dict[str, str]]:
    """Parse a ``key = value`` config file.

    Returns the validated TrainConfig plus any input-file paths (keys in
    CONFIG_PATH_KEYS).  Unknown keys are an error.
    """
    field_types = {f.name: f.type for f in fields(TrainConfig)}
    values: dict = {}
    paths: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            if key in CONFIG_PATH_KEYS:
                paths[key] = value
            elif key in field_types:
                kind = field_types[key]
                try:
                    if kind == "int" or kind is int:
                        values[key] = int(value)
                    elif kind == "float" or kind is float:
                        values[key] = float(value)
                    else:
                        values[key] = value
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
            else:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
    return TrainConfig(**values).validate(), paths


@dataclass
class AdamState:
    """Per-parameter moment accumulators and the shared timestep."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowGradient],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam step, updating ``params`` in place.

    Every entry takes the step, also where its gradient is zero.  The rule
    runs over ADAM_BLOCK-element slices of each flattened parameter, in
    scratch rows of one block, so no parameter-sized temporary is made.  A
    RowGradient's rows are written into a zeroed gradient block as the walk
    reaches them and cleared after, so no dense gradient exists either.
    Per element it is exactly ``m = b1 m + (1-b1) g; v = b2 v + ((1-b2) g) g;
    p -= (lr (m/bias1)) / (sqrt(v/bias2) + eps)``, operation for operation.
    """
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    step, denom, zero_grad = np.zeros((3, ADAM_BLOCK))
    for name, param in params.items():
        p, m, v = (_flat_view(a) for a in (param, state.m[name], state.v[name]))
        grad = grads[name]
        sparse = isinstance(grad, RowGradient)
        if sparse:
            width = p.size // grad.shape[0]
            at = (grad.rows[:, None] * width + np.arange(width)).ravel()  # ascending
            values = grad.values.reshape(-1)
        else:
            g = grad.reshape(-1)
        for start in range(0, p.size, ADAM_BLOCK):
            stop = min(start + ADAM_BLOCK, p.size)
            size = stop - start
            pb, mb, vb = p[start:stop], m[start:stop], v[start:stop]
            if sparse:
                lo, hi = np.searchsorted(at, (start, stop))
                gb = zero_grad[:size]
                gb[at[lo:hi] - start] = values[lo:hi]
            else:
                gb = g[start:stop]
            sb, db = step[:size], denom[:size]
            mb *= BETA1
            np.multiply(gb, 1.0 - BETA1, out=sb)
            mb += sb
            vb *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=sb)
            sb *= gb
            vb += sb
            np.divide(mb, bias1, out=sb)
            sb *= lr
            np.divide(vb, bias2, out=db)
            np.sqrt(db, out=db)
            db += EPSILON
            sb /= db
            pb -= sb
            if sparse:
                gb[at[lo:hi] - start] = 0.0


def _flat_view(array: np.ndarray) -> np.ndarray:
    if not array.flags.c_contiguous:
        raise ValueError("adam_update needs C-contiguous parameters and moments")
    return array.reshape(-1)


@dataclass
class Checkpoint:
    """Everything needed to evaluate or query: parameters plus data tables.

    Adam's moments are not kept, so training cannot resume from one.
    """

    model: DefinitionModel
    config: TrainConfig
    vocab: WordVocab
    merges: MergeTable | None
    pretrained: PretrainedTable
    epoch: int
    dev_median_rank: float


def encode_pairs(
    pairs: list[DefinitionPair],
    vocab: WordVocab,
    pretrained: PretrainedTable,
    merges: MergeTable | None = None,
    segmentation: str = "word",
) -> list[EncodedPair]:
    """Vocabulary-encode glosses and map heads to pretrained rows."""
    encoded = []
    for pair in pairs:
        row = pretrained.word_to_row.get(pair.head)
        if row is None:
            raise DataError(f"head {pair.head!r} has no pretrained vector")
        ids = encode_gloss(pair.gloss, vocab, merges, segmentation)
        encoded.append(EncodedPair(head_id=row, gloss_ids=tuple(ids)))
    return encoded


def _dev_median(model: DefinitionModel, dev: list[EncodedPair], pretrained: PretrainedTable) -> float:
    ranks = [0] * len(dev)
    for k, scores in score_batches(model, pretrained, [pair.gloss_ids for pair in dev]):
        ranks[k] = rank_of_correct(scores, pretrained, pretrained.words[dev[k].head_id]).rank
    return median_rank(ranks)


def train(
    config: TrainConfig,
    train_pairs: list[DefinitionPair],
    dev_pairs: list[DefinitionPair],
    pretrained: PretrainedTable,
    vocab: WordVocab,
    merges: MergeTable | None = None,
) -> tuple[Checkpoint, list[float]]:
    """Optimize a fresh model; returns the best-dev checkpoint and the curve.

    The curve holds one dev median rank per completed epoch.  Ties in dev
    median keep the earlier epoch.  With epochs=0 the initialized model is
    returned, its dev median measured once, and the curve is empty.
    """
    config.validate()
    if not train_pairs:
        raise DataError("training set is empty")
    if not dev_pairs:
        raise DataError("dev set is empty")
    if config.segmentation == "bpe" and merges is None:
        raise ConfigError("segmentation=bpe needs a merge table")

    encoded_train = encode_pairs(train_pairs, vocab, pretrained, merges, config.segmentation)
    encoded_dev = encode_pairs(dev_pairs, vocab, pretrained, merges, config.segmentation)

    model = DefinitionModel.create(
        vocab_size=len(vocab),
        pad_id=vocab.pad_id,
        mode=config.encoder_mode,
        embed_dim=config.embed_dim,
        hidden=config.hidden_size,
        output_dim=pretrained.dimension,
        seed=config.seed,
    )
    params = model.param_dict()
    adam = AdamState.for_params(params)
    loss_kind = LossKind(config.loss_kind)

    def snapshot(epoch: int, dev_median: float) -> Checkpoint:
        return Checkpoint(
            model=copy.deepcopy(model),
            config=config,
            vocab=vocab,
            merges=merges,
            pretrained=pretrained,
            epoch=epoch,
            dev_median_rank=dev_median,
        )

    if config.epochs == 0:
        return snapshot(0, _dev_median(model, encoded_dev, pretrained)), []

    best: Checkpoint | None = None
    curve: list[float] = []
    for epoch in range(1, config.epochs + 1):
        batches = bucket_and_batch(
            encoded_train,
            pad_id=vocab.pad_id,
            bucket_size=config.bucket,
            minibatch=config.minibatch,
            shuffle_seed=config.seed + epoch,
        )
        neg_rng = np.random.default_rng([config.seed, epoch, 1])
        for index, batch in enumerate(batches):
            targets = pretrained.matrix[batch.head_ids]
            negatives = None
            if loss_kind is LossKind.RANK:
                neg_rows = [
                    sample_negative(len(pretrained), int(h), neg_rng) for h in batch.head_ids
                ]
                negatives = pretrained.matrix[neg_rows]
            try:
                _, grads = backward(
                    model, batch.token_ids, batch.lengths, targets, loss_kind, negatives
                )
            except NonFiniteLossError as exc:
                raise NonFiniteLossError(f"epoch {epoch} batch {index}: {exc}") from exc
            adam_update(params, grads.as_dict(sparse=True), adam, config.learning_rate)
        dev_median = _dev_median(model, encoded_dev, pretrained)
        curve.append(dev_median)
        if best is None or dev_median < best.dev_median_rank:
            best = snapshot(epoch, dev_median)
    return best, curve


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write a checkpoint archive whose bytes depend only on its contents.

    The archive is written to a temporary file beside ``path`` and renamed
    over it, so a failed write leaves any previous file at ``path`` whole.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "dev_median_rank": ckpt.dev_median_rank,
        "mode": ckpt.model.mode.value,
        "pad_id": ckpt.model.embeddings.pad_id,
        "vocab": ckpt.vocab.id_to_token,
        "vocab_cap": ckpt.vocab.cap,
        "unk_id": ckpt.vocab.unk_id,
        "merges": [list(m) for m in ckpt.merges.merges] if ckpt.merges else None,
        "pretrained_words": ckpt.pretrained.words,
    }
    arrays = {f"param/{k}": v for k, v in ckpt.model.param_dict().items()}
    arrays["pretrained"] = ckpt.pretrained.matrix
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with zipfile.ZipFile(partial, "w", compression=zipfile.ZIP_STORED) as zf:
            members = [("meta.json", json.dumps(meta, sort_keys=True).encode("utf-8"))]
            members += [(f"{name}.npy", _npy_bytes(arr)) for name, arr in sorted(arrays.items())]
            for name, data in members:
                # fixed timestamp: identical runs must yield identical bytes
                info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_STORED
                info.external_attr = 0o644 << 16
                zf.writestr(info, data)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# meta.json keys that save_checkpoint writes
META_KEYS = (
    "format", "version", "config", "epoch", "dev_median_rank", "mode", "pad_id",
    "vocab", "vocab_cap", "unk_id", "merges", "pretrained_words",
)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint archive; a malformed or foreign one is a DataError.

    A parameter holding an inf or nan is a NonFiniteLossError.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("meta.json"))
            if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
                raise DataError("not a checkpoint archive")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(
                    f"checkpoint version {meta.get('version')!r} is not {CHECKPOINT_VERSION}"
                )
            missing = [key for key in META_KEYS if key not in meta]
            if missing:
                raise DataError(f"checkpoint meta has no {missing[0]!r}")
            arrays = {}
            for name in zf.namelist():
                if name.endswith(".npy"):
                    arrays[name[: -len(".npy")]] = np.load(
                        io.BytesIO(zf.read(name)), allow_pickle=False
                    )
        return _checkpoint_from(meta, arrays)
    except (DataError, NonFiniteLossError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (zipfile.BadZipFile, KeyError, TypeError, ValueError, OSError) as exc:
        raise DataError(f"{path}: unreadable checkpoint ({exc})") from exc


def _checkpoint_from(meta: dict, arrays: dict[str, np.ndarray]) -> Checkpoint:
    """Build a Checkpoint from its meta and arrays, checking every array's shape and that the parameters are finite."""
    config = TrainConfig(**meta["config"]).validate()
    mode = EncoderMode(meta["mode"])
    vocab_size = len(meta["vocab"])
    pad_id, unk_id = int(meta["pad_id"]), int(meta["unk_id"])
    if not (0 <= pad_id < vocab_size and 0 <= unk_id < vocab_size):
        raise DataError(f"pad/unk ids {pad_id}/{unk_id} outside the {vocab_size}-token vocabulary")
    if "pretrained" not in arrays or arrays["pretrained"].ndim != 2:
        raise DataError("checkpoint has no 2-D array 'pretrained'")
    if length_order(meta["pretrained_words"]) is not None:  # from_arrays would copy the table to sort it
        raise DataError("array 'pretrained' rows are not in word-length order")
    out_dim = arrays["pretrained"].shape[1]
    prefixes = ("fwd", "bwd") if mode is EncoderMode.BIDIRECTIONAL else ("fwd",)
    embed, hidden = config.embed_dim, config.hidden_size
    gate_shapes = {"w": (embed, 4 * hidden), "u": (hidden, 4 * hidden), "b": (4 * hidden,)}
    expected = {"pretrained": (len(meta["pretrained_words"]), out_dim), "param/emb": (vocab_size, embed)}
    for prefix in prefixes:
        for name in LSTMParams.FIELDS:
            expected[f"param/{prefix}.{name}"] = gate_shapes[name]
    expected["param/proj.w"] = (len(prefixes) * hidden, out_dim)
    expected["param/proj.b"] = (out_dim,)
    for name, shape in expected.items():
        if name not in arrays:
            raise DataError(f"checkpoint has no array {name!r}")
        found = arrays[name]
        if found.shape != shape or found.dtype != np.float64:
            raise DataError(f"array {name!r} is {found.dtype} {found.shape}, expected float64 {shape}")
        # tanh would hide an inf parameter and answer from the saturated output
        if name.startswith("param/") and not np.isfinite(found).all():
            raise NonFiniteLossError(f"array {name!r} has a non-finite entry")

    params = {k[len("param/") :]: v for k, v in arrays.items() if k.startswith("param/")}
    model = DefinitionModel.from_params(mode, pad_id, params)
    id_to_token = list(meta["vocab"])
    vocab = WordVocab(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        unk_id=unk_id,
        pad_id=pad_id,
        cap=int(meta["vocab_cap"]),
    )
    merges = None
    if meta["merges"] is not None:
        merges = MergeTable(merges=[tuple(m) for m in meta["merges"]])
    pretrained = PretrainedTable.from_arrays(meta["pretrained_words"], arrays["pretrained"])
    return Checkpoint(
        model=model,
        config=config,
        vocab=vocab,
        merges=merges,
        pretrained=pretrained,
        epoch=int(meta["epoch"]),
        dev_median_rank=float(meta["dev_median_rank"]),
    )
