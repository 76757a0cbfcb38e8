"""Training loop: Adam over bucketed minibatches, best-dev checkpointing.

Every epoch reshuffles the buckets with an epoch-varied seed, draws fresh
negatives for the rank loss, applies Adam updates batch by batch, then
measures median rank on the dev set.  The checkpoint kept is the earliest
epoch with the lowest dev median rank, which guards against overtraining.

A checkpoint is one flat file: an 8-byte magic, the header's length (8
bytes) and CRC-32 (4 bytes), the UTF-8 JSON header (the meta plus each
array's shape and CRC-32), then each array's float64 bytes in C order, back
to back in sorted name order; every number is little-endian.  Identical
runs give bitwise-identical files.  Saving streams each array with no copy,
and copies an array still in a loaded checkpoint's file in one pass of its
block reader (``FileMatrix.blocks``), which checks it against the CRC-32 the
load kept; loading checks every size against the file's before it
allocates, reads each small model array once straight into place, checks
every CRC-32 and refuses a header key or array that the layout does not
name.  The two large arrays stay in the file: loading keeps the pretrained
table and the learned gloss embedding as ``FileMatrix`` descriptors, maps
nothing, and streams each once through its block reader.  The table's pass
builds its norms and float32 screen; the embedding's checks that it is
finite and takes each row's fingerprint.  So only the screen, the
fingerprints and the LSTM and projection arrays are resident: ranking reads
the float64 rows of the few candidates it rescores, and encoding the rows of
the gloss's tokens, each by position.  The table is stored in word-length
row order, and loading refuses a table in any other order rather than copy
it to sort it.  The meta repeats no fact that its config or vocabulary
fixes, and a save runs the load's checks first, on the table it already
holds, so it writes nothing a load refuses.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import zlib
from bisect import bisect
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import closing, contextmanager
from contextvars import copy_context
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .corpus import BUCKET_SIZE, DefinitionPair, EncodedPair, MINIBATCH_SIZE, bucket_and_batch
from .embeddings import LEARNED_DIM, FileMatrix, LearnedTable, PretrainedTable, row_fingerprints
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

# the arrays a load leaves in the file and reads by position: the table and the gloss embedding
FILE_BACKED = ("pretrained", "param/emb")

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
        # np.zeros takes zeroed pages from the allocator, where zeros_like writes every byte
        return cls(
            m={k: np.zeros(p.shape) for k, p in params.items()},
            v={k: np.zeros(p.shape) for k, p in params.items()},
        )


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowGradient],
    state: AdamState,
    lr: float,
    worker: Executor | None = None,
    ahead: np.ndarray | None = None,
) -> tuple[np.ndarray, Future] | None:
    """One bias-corrected Adam step, updating ``params`` in place.

    Per element it is exactly ``m = b1 m + (1-b1) g; v = b2 v + ((1-b2) g) g;
    p -= (lr (m/bias1)) / (sqrt(v/bias2) + eps)``, operation for operation,
    for every entry, in one-block scratch rows over ADAM_BLOCK-element slices
    of each flattened parameter.  Only a RowGradient's rows take the gradient
    terms; the others' ``m = b1 m; v = b2 v`` is the same, since adding +0
    changes no value but -0.0, and ``b1 m`` (m starts at +0, and 0.9 times a
    nonzero never rounds to 0) and ``b2 v`` are never -0.0.

    With a one-thread ``worker``, the slices are cut into two runs of about
    equal size, the first stepped by the worker and the second by the
    caller; no slice is cut, so an array under ADAM_BLOCK elements goes whole
    to one thread.  ``ahead``, the ascending ``emb`` rows the next batch reads
    (it needs a ``worker`` and a RowGradient for ``emb``), defers the table:
    those rows are stepped from a copy of their entries, in the two runs,
    and the call returns their new parameter rows with the future of the
    worker's pass over the whole table, which it starts after its run.  That
    pass steps every row in place, the ahead rows too, to the same bits as
    the copy, so the next batch can read the copy while it runs.  Each
    element takes the same operations in every case, so the bits never
    depend on how the step was split.
    """
    if ahead is not None and worker is None:
        raise ValueError("adam_update defers the table only to a worker")
    state.t += 1
    step = partial(_step_slices, lr=lr, bias1=1.0 - BETA1**state.t, bias2=1.0 - BETA2**state.t)
    slices = [
        s for name in params if ahead is None or name != "emb"
        for s in _slices(params[name], state.m[name], state.v[name], grads[name])
    ]
    if ahead is not None:
        rows, values = grads["emb"].rows, grads["emb"].values
        inside = np.isin(rows, ahead, assume_unique=True)
        copies = [a[ahead] for a in (params["emb"], state.m["emb"], state.v["emb"])]
        near = RowGradient(rows=np.searchsorted(ahead, rows[inside]), values=values[inside], shape=copies[0].shape)
        slices.extend(_slices(*copies, near))
    if worker is None:
        step(slices)
        return None
    sizes = list(accumulate(s[0].size for s in slices))
    # the worker runs in a copy of the caller's context, so numpy's error state (np.errstate) is the caller's
    cut = bisect(sizes, sizes[-1] / 2) if sizes and _worth_a_hand_off(sizes[-1]) else 0
    share = worker.submit(copy_context().run, step, slices[:cut]) if cut else None
    if ahead is not None:
        table = (params["emb"], state.m["emb"], state.v["emb"], grads["emb"])
        rest = worker.submit(copy_context().run, step, _slices(*table))
    step(slices[cut:])
    if share is not None:
        share.result()
    return (copies[0], rest) if ahead is not None else None


def _slices(param: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray | RowGradient) -> Iterator[tuple]:
    """Views of one parameter's ADAM_BLOCK-element slices: parameter, moments, gradient entries and where they go."""
    if not all(a.flags.c_contiguous for a in (param, m, v)):
        raise ValueError("adam_update needs C-contiguous parameters and moments")
    p, m, v = (a.reshape(-1) for a in (param, m, v))
    if isinstance(grad, RowGradient):
        width = math.prod(grad.shape[1:])
        at = (grad.rows[:, None] * width + np.arange(width)).ravel()  # ascending, no repeats
        values = grad.values.reshape(-1)
    else:
        at, values = None, grad.reshape(-1)
    for start in range(0, p.size, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, p.size)
        if at is None:
            gb, touched = values[start:stop], slice(None)  # numpy skips the write-back of mb[:] += gm
        else:
            lo, hi = np.searchsorted(at, (start, stop))
            gb, touched = values[lo:hi], at[lo:hi] - start
        yield p[start:stop], m[start:stop], v[start:stop], gb, touched


def _step_slices(slices, lr: float, bias1: float, bias2: float) -> None:
    """Adam's per-element step on each ``_slices`` slice, in place, through this call's own one-block scratch rows."""
    step, denom = np.empty((2, ADAM_BLOCK))
    for pb, mb, vb, gb, touched in slices:
        gm, gv = step[: gb.size], denom[: gb.size]
        mb *= BETA1
        vb *= BETA2
        np.multiply(gb, 1.0 - BETA1, out=gm)
        np.multiply(gb, 1.0 - BETA2, out=gv)
        gv *= gb
        mb[touched] += gm
        vb[touched] += gv
        sb, db = step[: pb.size], denom[: pb.size]
        np.divide(mb, bias1, out=sb)
        sb *= lr
        np.divide(vb, bias2, out=db)
        np.sqrt(db, out=db)
        db += EPSILON
        sb /= db
        pb -= sb


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

    Training holds the parameters and Adam's two moments, plus one copy of
    the parameters, overwritten by each later best, once an epoch before the
    last is the best so far; a best last epoch returns the live model.

    Where numpy's bundled OpenBLAS lets its thread count be set, training
    runs at one BLAS thread, and the caller's count is put back on return.
    Each step then leaves the table of a gloss embedding of more than one
    Adam block to a worker thread, which steps it while the next batch's
    forward and backward run; that batch reads its own rows, stepped ahead
    (``adam_update``).  An epoch's last step is whole, so the dev pass and
    the kept copy see every row stepped.  The bits equal a serial run at
    one BLAS thread, whatever the caller's count.  Elsewhere each step is
    whole and serial, at the caller's count.
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

    best_epoch, best_params = 0, None
    curve: list[float] = []
    with _adam_worker() as worker:
        defer = worker is not None and _worth_a_hand_off(params["emb"].size)
        for epoch in range(1, config.epochs + 1):
            batches = bucket_and_batch(
                encoded_train,
                pad_id=vocab.pad_id,
                bucket_size=config.bucket,
                minibatch=config.minibatch,
                shuffle_seed=config.seed + epoch,
            )
            neg_rng = np.random.default_rng([config.seed, epoch, 1])
            # with the table deferred, each batch but an epoch's first runs on ``local``, whose table
            # is the ``rows`` it reads, stepped ahead while the worker steps the whole table
            local, rows, table_pass = model, None, None
            for index, batch in enumerate(batches):
                targets = pretrained.gather(batch.head_ids)
                negatives = None
                if loss_kind is LossKind.RANK:
                    neg_rows = [
                        sample_negative(len(pretrained), int(h), neg_rng) for h in batch.head_ids
                    ]
                    negatives = pretrained.gather(np.array(neg_rows))
                token_ids = batch.token_ids if rows is None else np.searchsorted(rows, batch.token_ids)
                try:
                    _, grads = backward(local, token_ids, batch.lengths, targets, loss_kind, negatives)
                except NonFiniteLossError as exc:
                    raise NonFiniteLossError(f"epoch {epoch} batch {index}: {exc}") from exc
                if rows is not None:
                    table_pass.result()
                    emb = grads["emb"]
                    grads["emb"] = RowGradient(rows=rows[emb.rows], values=emb.values, shape=params["emb"].shape)
                if not defer or index + 1 == len(batches):
                    adam_update(params, grads, adam, config.learning_rate, worker)
                    local, rows = model, None
                else:
                    rows = np.union1d(batches[index + 1].token_ids, vocab.pad_id)
                    ahead, table_pass = adam_update(params, grads, adam, config.learning_rate, worker, rows)
                    local = replace(model, embeddings=LearnedTable(ahead, int(np.searchsorted(rows, vocab.pad_id))))
            curve.append(_dev_median(model, encoded_dev, pretrained))
            if epoch == 1 or curve[-1] < curve[best_epoch - 1]:
                best_epoch = epoch
                if epoch < config.epochs:  # later epochs move the live model: keep this one's parameters
                    best_params = best_params or {name: np.empty_like(p) for name, p in params.items()}
                    for name, p in params.items():
                        np.copyto(best_params[name], p)
        if best_epoch < config.epochs:
            model = DefinitionModel.from_params(model.mode, vocab.pad_id, best_params)
        dev_median = curve[best_epoch - 1] if curve else _dev_median(model, encoded_dev, pretrained)
    return Checkpoint(
        model=model,
        config=config,
        vocab=vocab,
        merges=merges,
        pretrained=pretrained,
        epoch=best_epoch,
        dev_median_rank=dev_median,
    ), curve


def blas_threads(table_entries: int) -> tuple[int, int, bool] | None:
    """What ``train`` does with BLAS threads and Adam for a gloss table of ``table_entries`` entries.

    The caller's BLAS thread count, the count ``train`` runs at, and whether
    Adam's table pass overlaps the next batch; None where ``train`` cannot
    set the count, and steps serially.
    """
    controls = _openblas_threads()
    return None if controls is None else (controls[0](), 1, _worth_a_hand_off(table_entries))


def _worth_a_hand_off(entries: int) -> bool:
    """Whether stepping ``entries`` entries is worth a hand-off to the worker, which costs about one block's step."""
    return entries > ADAM_BLOCK


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS bundled in numpy's wheel, or None where there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _adam_worker() -> Iterator[Executor | None]:
    """A one-thread executor for Adam, with BLAS at one thread, for the length of ``train``.

    At one BLAS thread the second core is free for Adam's table pass, and
    the training bits no longer depend on the caller's thread count, which
    is restored on the way out.  Where the OpenBLAS controls are not found
    it yields None, and ``train`` steps serially at the caller's count:
    overlap at two BLAS threads was slower than no overlap.  Leaving waits
    for the worker, so no step outlives ``train``, even when it raises.
    """
    controls = _openblas_threads()
    if controls is None:
        yield None
        return
    get, put = controls
    caller = get()
    put(1)
    try:
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="revdict-adam") as worker:
            yield worker
    finally:
        put(caller)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write a checkpoint file whose bytes depend only on its contents.

    Each array is streamed from its own buffer, so no copy of the table is
    made.  An array still in a loaded checkpoint's file is copied from it in
    one pass of ``FileMatrix.blocks``, under the CRC-32 its load checked, so
    a source file cut short or changed since the load is a DataError naming
    it.  No ``FileMatrix`` is read whole.  The file is written to a
    temporary file beside ``path`` and renamed over it, so a failed write
    leaves any previous file at ``path`` whole.  The load's checks run first
    on the meta and arrays to be written, so what a load would refuse is
    refused here with the same error and nothing is written; so is a model
    whose mode or PAD id disagrees with the config or the vocabulary, which a
    load derives them from (a ValueError).  The table was checked when it was
    built and a loaded array when it was loaded, so both are used as they are.
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
    _checkpoint_from(meta, arrays, pretrained=ckpt.pretrained, model=model)
    meta["arrays"] = {}
    for name, array in arrays.items():  # a loaded array's CRC-32 is the one its load checked
        crc = array.crc32 if isinstance(array, FileMatrix) else zlib.crc32(_stored_bytes(array))
        meta["arrays"][name] = {"shape": list(array.shape), "crc32": crc}
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little"))
            handle.write(zlib.crc32(header).to_bytes(4, "little") + header)
            for name, array in sorted(arrays.items()):
                if not isinstance(array, FileMatrix):
                    handle.write(_stored_bytes(array))
                    continue
                with closing(array.blocks()) as blocks:  # stops the reader, also when a write fails
                    try:
                        for block in blocks:
                            handle.write(_stored_bytes(block))
                    except DataError as exc:
                        raise DataError(f"{array.filename}: {exc}") from exc
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _stored_bytes(array: np.ndarray) -> np.ndarray:
    """The bytes a checkpoint stores for ``array``, C-ordered little-endian float64; only another layout is copied."""
    return np.ascontiguousarray(array, "<f8").reshape(-1).view(np.uint8)


# meta keys that save_checkpoint writes into the header beside "arrays"
META_KEYS = (
    "format", "version", "config", "epoch", "dev_median_rank", "vocab", "merges", "pretrained_words",
)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file; a malformed or foreign one is a DataError.

    The file must be exactly as long as its header says, which is checked
    before any array is allocated.  Each small model array is then read
    once, straight into the array it ends up in, and its CRC-32 is checked.
    The pretrained table's matrix and the gloss embedding stay in the file
    as ``FileMatrix`` descriptors, each checked by one pass of its
    ``blocks`` that ends with its CRC-32 check: the table's constructor
    takes the table's rows, and ``_checkpoint_from`` checks that the
    embedding's rows are finite and takes their fingerprints.  Each CRC-32
    in the header must be a JSON integer in [0, 2^32).  A parameter holding
    an inf or nan is a NonFiniteLossError.
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
                crc = entry.get("crc32")  # a JSON float or bool may equal the bytes' CRC-32, but no save writes one
                if type(crc) is not int or not 0 <= crc < 2**32:
                    raise DataError(f"array {name!r} has no CRC-32 as an unsigned 32-bit integer in the header")
                layout.append((name, tuple(shape), crc, end))
                end += math.prod(shape) * 8
                if end > file_size:
                    raise DataError(f"array {name!r} runs past the end of the file")
            if end != file_size:
                raise DataError(f"checkpoint is {file_size} bytes, but its header describes {end}")
            arrays = {}
            for name, shape, crc, offset in layout:
                if name in FILE_BACKED:
                    arrays[name] = FileMatrix(handle, offset, shape, crc, name)
                    continue
                handle.seek(offset)
                array = np.empty(shape, "<f8")
                data = array.reshape(-1).view(np.uint8)
                if handle.readinto(data) != data.size:
                    raise DataError(f"array {name!r} runs past the end of the file")
                if zlib.crc32(data) != crc:
                    raise DataError(f"array {name!r} fails its CRC-32 check")
                arrays[name] = array
            return _checkpoint_from(meta, arrays)
    except (DataError, NonFiniteLossError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OSError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise DataError(f"{path}: unreadable checkpoint ({exc})") from exc


def _checkpoint_from(
    meta: dict,
    arrays: dict[str, np.ndarray | FileMatrix],
    pretrained: PretrainedTable | None = None,
    model: DefinitionModel | None = None,
) -> Checkpoint:
    """Build a Checkpoint from its meta and arrays, checking every array's shape and that the parameters are finite.

    On a load, each ``FileMatrix`` in ``arrays`` is read once, a block at a
    time (``FileMatrix.blocks``): the table's rows by its constructor, and
    the embedding's here, where they are checked and fingerprinted.  On a
    save (``model`` given) no ``FileMatrix`` is read: the load that made it
    checked it, and the save's copy checks its CRC-32.
    ``pretrained`` and ``model``, when given, are the table and model that
    the meta's words and the arrays came from, used as they are.
    """
    config = TrainConfig(**meta["config"]).validate()
    mode = EncoderMode(config.encoder_mode)
    for key in ("vocab", "pretrained_words"):  # no input matches a token or word that is not a string
        if not isinstance(meta[key], list) or not all(isinstance(item, str) for item in meta[key]):
            raise DataError(f"checkpoint {key!r} is not a list of strings")
    vocab = WordVocab(meta["vocab"])
    if "pretrained" not in arrays or len(arrays["pretrained"].shape) != 2:
        raise DataError("checkpoint has no 2-D array 'pretrained'")
    out_dim = arrays["pretrained"].shape[1]
    shapes = param_shapes(mode, len(vocab), config.embed_dim, config.hidden_size, out_dim)
    expected = {"pretrained": (len(meta["pretrained_words"]), out_dim)}
    expected.update({f"param/{name}": shape for name, shape in shapes.items()})
    fingerprints = []
    for name, shape in expected.items():
        if name not in arrays:
            raise DataError(f"checkpoint has no array {name!r}")
        found = arrays[name]
        if found.shape != shape or found.dtype != np.float64:
            raise DataError(f"array {name!r} is {found.dtype} {found.shape}, expected float64 {shape}")
        in_file = isinstance(found, FileMatrix)
        if not name.startswith("param/") or (in_file and model is not None):
            continue
        for block in found.blocks() if in_file else (found,):
            # tanh would hide an inf parameter and answer from the saturated output; min and
            # max carry any nan and any inf is one of them, so no array-sized temporary is made
            if not np.isfinite([block.min(initial=0.0), block.max(initial=0.0)]).all():
                raise NonFiniteLossError(f"array {name!r} has a non-finite entry")
            if in_file:
                fingerprints.append(row_fingerprints(block))
    unlisted = sorted(set(arrays) - set(expected))
    if unlisted:
        raise DataError(f"checkpoint has an array {unlisted[0]!r} that its layout does not list")
    if pretrained is None:
        try:  # a table out of word-length order is refused, not copied to sort it
            pretrained = PretrainedTable(list(meta["pretrained_words"]), arrays["pretrained"])
        except DataError:  # the streamed rows' own check
            raise
        except ValueError as exc:
            raise DataError(f"array 'pretrained': {exc}") from exc

    if model is None:
        model = DefinitionModel.from_params(mode, vocab.pad_id, {name: arrays[f"param/{name}"] for name in shapes})
        if isinstance(model.embeddings.matrix, FileMatrix):
            model.embeddings.fingerprints = np.concatenate(fingerprints)
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
