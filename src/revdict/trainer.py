"""Training loop: Adam over bucketed minibatches, best-dev checkpointing.

Every epoch reshuffles the buckets with an epoch-varied seed, draws fresh
negatives for the rank loss, applies Adam updates batch by batch, then
measures median rank on the dev set.  The checkpoint kept is the earliest
epoch with the lowest dev median rank, which guards against overtraining.

A checkpoint is one flat file: an 8-byte magic, the header's length (8
bytes) and CRC-32 (4 bytes), the UTF-8 JSON header (the meta plus each
array's shape and CRC-32), then each array's float64 bytes in C order, back
to back in sorted name order; every number is little-endian.  Identical
runs give bitwise-identical files.  Saving streams each array with no copy;
loading checks every size against the file's before it allocates, reads
each model array once straight into place, checks every CRC-32 and refuses
a header key or array that the layout does not name.  The pretrained table
stays in the file: loading maps it read-only and streams it once through a
block buffer, checking its CRC-32 and building its norms and float32 screen
as it goes, so only the screen is resident and ranking reads the float64
rows of the few candidates it rescores.  The table is stored in
word-length row order, and loading refuses a table in any other order
rather than copy it to sort it.  The meta repeats no fact that its config
or vocabulary fixes, and a save runs the load's checks first, so it writes
nothing a load refuses.
"""

from __future__ import annotations

import copy
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .corpus import BUCKET_SIZE, DefinitionPair, EncodedPair, MINIBATCH_SIZE, bucket_and_batch
from .embeddings import LEARNED_DIM, NORM_BLOCK_ROWS, PretrainedTable
from .encoder import HIDDEN_SIZE, DefinitionModel, EncoderMode, param_shapes
from .errors import ConfigError, DataError, NonFiniteLossError, decoding
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

CHECKPOINT_MAGIC = b"REVDICT\x00"
CHECKPOINT_FORMAT = "revdict-checkpoint"
CHECKPOINT_VERSION = 5

# config-file keys that name input files rather than hyperparameters
CONFIG_PATH_KEYS = ("train", "dev", "embeddings", "merges", "crosswords")
# the values each field's annotation admits (the annotations are strings: postponed evaluation)
FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    optimizer: str = "adam"
    epochs: int = 10
    minibatch: int = MINIBATCH_SIZE
    bucket: int = BUCKET_SIZE
    seed: int = 42
    loss_kind: str = "cosine"
    encoder_mode: str = "final"
    segmentation: str = "word"
    dataset: str = "definitions"
    embed_dim: int = LEARNED_DIM
    hidden_size: int = HIDDEN_SIZE

    def validate(self) -> "TrainConfig":
        for f in fields(self):  # a JSON header or a caller can pass any type; a bool is no int
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if self.optimizer != "adam":
            raise ConfigError(f"unsupported optimizer {self.optimizer!r}")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
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
    with open(path, encoding="utf-8") as handle, decoding(path, ConfigError):
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
                # the field types are the annotations' strings (postponed evaluation)
                convert = {"int": int, "float": float}.get(field_types[key], str)
                try:
                    values[key] = convert(value)
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
    for k, vector, scores in score_batches(model, pretrained, [pair.gloss_ids for pair in dev]):
        ranks[k] = rank_of_correct(vector, scores, pretrained, pretrained.words[dev[k].head_id]).rank
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
    loss_kind = LossKind(config.loss_kind)
    if loss_kind is LossKind.RANK and len(pretrained) < 2:
        raise DataError(f"rank loss needs at least two pretrained vectors to draw negatives, got {len(pretrained)}")

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
            adam_update(params, grads, adam, config.learning_rate)
        dev_median = _dev_median(model, encoded_dev, pretrained)
        curve.append(dev_median)
        if best is None or dev_median < best.dev_median_rank:
            best = snapshot(epoch, dev_median)
    return best, curve


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write a checkpoint file whose bytes depend only on its contents.

    Each array is streamed from its own buffer, so no copy of the table is
    made.  The file is written to a temporary file beside ``path`` and
    renamed over it, so a failed write leaves any previous file at ``path``
    whole.  The load's checks run first on the meta and arrays to be written,
    so what a load would refuse is refused here with the same error and
    nothing is written; so is a model whose mode or PAD id disagrees with the
    config or the vocabulary, which a load derives them from (a ValueError).
    """
    model, mode = ckpt.model, ckpt.config.encoder_mode
    if model.mode.value != mode:
        raise ValueError(f"model mode {model.mode.value!r} is not the config's encoder_mode {mode!r}")
    if model.embeddings.pad_id != ckpt.vocab.pad_id:
        raise ValueError(f"model pad id {model.embeddings.pad_id} is not the vocabulary's {ckpt.vocab.pad_id}")
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "dev_median_rank": ckpt.dev_median_rank,
        "vocab": ckpt.vocab.id_to_token,
        "merges": [list(m) for m in ckpt.merges.merges] if ckpt.merges is not None else None,
        "pretrained_words": ckpt.pretrained.words,
    }
    arrays = {f"param/{k}": v for k, v in model.param_dict().items()}
    arrays["pretrained"] = ckpt.pretrained.matrix
    _checkpoint_from(meta, arrays)
    # a C-ordered little-endian float64 array is its own buffer; only another layout is copied
    data = {name: np.ascontiguousarray(array, "<f8").reshape(-1).view(np.uint8) for name, array in arrays.items()}
    meta["arrays"] = {name: {"shape": list(arrays[name].shape), "crc32": zlib.crc32(data[name])} for name in data}
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little"))
            handle.write(zlib.crc32(header).to_bytes(4, "little") + header)
            for name in sorted(data):
                handle.write(data[name])
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# meta keys that save_checkpoint writes into the header beside "arrays"
META_KEYS = (
    "format", "version", "config", "epoch", "dev_median_rank", "vocab", "merges", "pretrained_words",
)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file; a malformed or foreign one is a DataError.

    The file must be exactly as long as its header says, which is checked
    before any array is allocated.  Each model array is then read once,
    straight into the array it ends up in, and its CRC-32 is checked.  The
    pretrained table's matrix is a read-only ``np.memmap`` of the file, and
    the table's constructor takes its rows from one streamed pass that ends
    with the CRC-32 check.  A parameter holding an inf or nan is a
    NonFiniteLossError.
    """
    try:
        with open(path, "rb") as handle:
            if handle.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                raise DataError("not a revdict checkpoint")
            header_size, header_crc = (int.from_bytes(handle.read(n), "little") for n in (8, 4))
            header_end = len(CHECKPOINT_MAGIC) + 12 + header_size
            file_size = os.fstat(handle.fileno()).st_size
            if header_end > file_size:
                raise DataError("checkpoint header runs past the end of the file")
            meta = handle.read(header_size)  # rebound to the parsed header, so the bytes are freed before the arrays
            if zlib.crc32(meta) != header_crc:
                raise DataError("checkpoint header fails its CRC-32 check")
            meta = json.loads(meta.decode("utf-8"))
            if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
                raise DataError("not a revdict checkpoint")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(
                    f"checkpoint version {meta.get('version')!r} is not {CHECKPOINT_VERSION}"
                )
            missing = [key for key in (*META_KEYS, "arrays") if key not in meta]
            if missing:
                raise DataError(f"checkpoint meta has no {missing[0]!r}")
            unknown = sorted(set(meta) - {*META_KEYS, "arrays"})
            if unknown:
                raise DataError(f"checkpoint meta has an unknown key {unknown[0]!r}")
            if not isinstance(meta["arrays"], dict):
                raise DataError("checkpoint meta 'arrays' is not an object")
            layout, end = [], header_end
            for name, entry in sorted(meta["arrays"].items()):
                shape = entry.get("shape") if isinstance(entry, dict) else None
                if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
                    raise DataError(f"array {name!r} has no shape of nonnegative integers in the header")
                layout.append((name, tuple(shape), entry.get("crc32"), end))
                end += math.prod(shape) * 8
                if end > file_size:
                    raise DataError(f"array {name!r} runs past the end of the file")
            if end != file_size:
                raise DataError(f"checkpoint is {file_size} bytes, but its header describes {end}")
            arrays, table_rows = {}, None
            for name, shape, crc, offset in layout:
                if name == "pretrained":
                    arrays[name] = np.memmap(handle, "<f8", "r", offset=offset, shape=shape)
                    table_rows = _stream_rows(handle, offset, shape, crc)
                    continue
                handle.seek(offset)
                array = np.empty(shape, "<f8")
                data = array.reshape(-1).view(np.uint8)
                if handle.readinto(data) != data.size:
                    raise DataError(f"array {name!r} runs past the end of the file")
                if zlib.crc32(data) != crc:
                    raise DataError(f"array {name!r} fails its CRC-32 check")
                arrays[name] = array
            return _checkpoint_from(meta, arrays, table_rows)
    except (DataError, NonFiniteLossError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OSError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise DataError(f"{path}: unreadable checkpoint ({exc})") from exc


def _stream_rows(handle: BinaryIO, offset: int, shape: tuple[int, ...], crc) -> Iterator[np.ndarray]:
    """The rows of the (n, D) array at ``offset`` in ``handle``, read through one block buffer.

    Each block is overwritten by the next, so it is used before the next is
    asked for.  The array's CRC-32 is checked after its last row.
    """
    rows, dim = shape
    buffer = np.empty((min(rows, NORM_BLOCK_ROWS), dim), "<f8")
    handle.seek(offset)
    running = 0
    for lo in range(0, rows, NORM_BLOCK_ROWS):
        block = buffer[: min(NORM_BLOCK_ROWS, rows - lo)]
        data = block.reshape(-1).view(np.uint8)
        if handle.readinto(data) != data.size:
            raise DataError("array 'pretrained' runs past the end of the file")
        running = zlib.crc32(data, running)
        yield block
    if running != crc:
        raise DataError("array 'pretrained' fails its CRC-32 check")


def _checkpoint_from(
    meta: dict, arrays: dict[str, np.ndarray], table_rows: Iterator[np.ndarray] | None = None
) -> Checkpoint:
    """Build a Checkpoint from its meta and arrays, checking every array's shape and that the parameters are finite.

    ``table_rows``, when given, yields the rows of ``arrays["pretrained"]``
    for the table's constructor (``PretrainedTable``'s ``blocks``).
    """
    config = TrainConfig(**meta["config"]).validate()
    mode = EncoderMode(config.encoder_mode)
    for key in ("vocab", "pretrained_words"):  # no input matches a token or word that is not a string
        if not isinstance(meta[key], list) or not all(isinstance(item, str) for item in meta[key]):
            raise DataError(f"checkpoint {key!r} is not a list of strings")
    vocab = WordVocab(meta["vocab"])
    if "pretrained" not in arrays or arrays["pretrained"].ndim != 2:
        raise DataError("checkpoint has no 2-D array 'pretrained'")
    out_dim = arrays["pretrained"].shape[1]
    shapes = param_shapes(mode, len(vocab), config.embed_dim, config.hidden_size, out_dim)
    expected = {"pretrained": (len(meta["pretrained_words"]), out_dim)}
    expected.update({f"param/{name}": shape for name, shape in shapes.items()})
    for name, shape in expected.items():
        if name not in arrays:
            raise DataError(f"checkpoint has no array {name!r}")
        found = arrays[name]
        if found.shape != shape or found.dtype != np.float64:
            raise DataError(f"array {name!r} is {found.dtype} {found.shape}, expected float64 {shape}")
        # tanh would hide an inf parameter and answer from the saturated output; min and
        # max carry any nan and any inf is one of them, so no array-sized temporary is made
        if name.startswith("param/") and not np.isfinite([found.min(initial=0.0), found.max(initial=0.0)]).all():
            raise NonFiniteLossError(f"array {name!r} has a non-finite entry")
    unlisted = sorted(set(arrays) - set(expected))
    if unlisted:
        raise DataError(f"checkpoint has an array {unlisted[0]!r} that its layout does not list")
    try:  # a table out of word-length order is refused, not copied to sort it
        pretrained = PretrainedTable(list(meta["pretrained_words"]), arrays["pretrained"], table_rows)
    except DataError:  # the streamed rows' own check
        raise
    except ValueError as exc:
        raise DataError(f"array 'pretrained': {exc}") from exc

    model = DefinitionModel.from_params(mode, vocab.pad_id, {name: arrays[f"param/{name}"] for name in shapes})
    merges = None
    if meta["merges"] is not None:
        for pair in meta["merges"]:  # the rule MergeTable.load applies to a merge file's lines
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(part, str) for part in pair)):
                raise DataError(f"checkpoint merge {pair!r} is not a pair of strings")
        merges = MergeTable(merges=[tuple(m) for m in meta["merges"]])
    if config.segmentation == "bpe" and merges is None:
        raise DataError("checkpoint segmentation is bpe but it has no merge table")
    epoch, dev_median = meta["epoch"], meta["dev_median_rank"]  # a JSON bool is no number, and json reads Infinity
    if type(epoch) is not int or epoch < 0:
        raise DataError(f"checkpoint epoch {epoch!r} is not a nonnegative integer")
    if type(dev_median) not in (int, float) or not math.isfinite(dev_median):
        raise DataError(f"checkpoint dev_median_rank {dev_median!r} is not a finite number")
    return Checkpoint(
        model=model,
        config=config,
        vocab=vocab,
        merges=merges,
        pretrained=pretrained,
        epoch=epoch,
        dev_median_rank=float(dev_median),
    )
