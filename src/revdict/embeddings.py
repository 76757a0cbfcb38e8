"""Pretrained head-word embeddings, the learned gloss table, and cosine ranking.

The pretrained file format is one word per line followed by its vector:
``word f1 f2 ... fD``, whitespace separated.  Rows with the wrong number of
fields, unparseable floats, a non-finite norm (an ``inf``/``nan`` entry) or
zero norm are dropped (counted, not fatal);
duplicate words keep their first occurrence.

Every table keeps its rows in ascending word length, in file order within a
length, so the candidates of one answer length are a contiguous span of
rows: a ``--length`` query scores only that span.

Ranking has two stages.  Every table keeps a resident float32 screen: each
row divided by its float64 norm, rounded to float32.  Stage 1,
``cosine_to_all``, scores a query against a span of the screen in one
float32 product.  Stage 2, ``rescore``, computes the float64 cosine of only
the rows whose screen score lies close enough to the answer to matter;
``band_width`` bounds the screen's error, so the ranking is exactly the one
that rescoring every candidate would give.  The float64 rows are read only
for that band, so a checkpoint's table can stay in its file, with only the
screen in memory (``trainer.load_checkpoint``).

A checkpoint's two large arrays, the pretrained table and the learned gloss
embedding, stay in its file as ``FileMatrix`` descriptors, never mapped, and
only this module reads them: a row at a time (``FileMatrix.read``), a block
at a time (``FileMatrix.blocks``) or whole, as a CRC-checked copy
(``np.asarray``).  Each row read alone is checked against what the load
computed from it: a table row against its screen row, an embedding row
against its fingerprint (``row_fingerprints``).
"""

from __future__ import annotations

import math
import os
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import DataError, NonFiniteLossError, decoding

LEARNED_DIM = 500
INIT_SCALE = 0.05
# rows per block of the constructor's norm and screen pass (and of ``FileMatrix.blocks``'s two
# read buffers), so its temporaries are a block, not the table; each row's norm is its own
# sum, so the bits are the whole-table call's.  256 rows of 500 are 1 MB, within one core's
# 2 MB L2; with the load's reader thread, 128 to 1024 rows loaded a 50k x 500 table alike
NORM_BLOCK_ROWS = 256
# unit roundoffs of float32 and float64
U32 = 2.0**-24
U64 = 2.0**-53


class FileMatrix:
    """An (n, D) float64 array left in an open file: its own descriptor on that file, not a mapping.

    Every read is an ``os.preadv`` at ``offset``, so rows read do not pile up
    in the process, and a file cut short while loaded is a DataError, not a
    SIGBUS.  The descriptor stays on the file that was opened, even if
    another is renamed over its path, and is closed when the matrix is
    collected.  ``crc32`` and ``name`` are the array's CRC-32 and name in the
    file's header.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, handle: BinaryIO, offset: int, shape: tuple[int, ...], crc32: int, name: str) -> None:
        self.descriptor, self.offset, self.shape = os.dup(handle.fileno()), offset, shape
        self.filename, self.crc32, self.name = os.path.abspath(handle.name), crc32, name
        weakref.finalize(self, os.close, self.descriptor)

    def read(self, index: np.ndarray) -> np.ndarray:
        """Copies of the rows at ``index``: one ``os.preadv`` into each output row, at ``offset + i·D·8``."""
        rows = np.empty((len(index), self.shape[1]))
        for row, i in zip(rows, np.asarray(index).tolist()):
            if os.preadv(self.descriptor, [row], self.offset + i * row.nbytes) != row.nbytes:
                raise DataError(f"{self.filename}: row {i} runs past the end of the file")
        return rows

    def blocks(self) -> Iterator[np.ndarray]:
        """Every row, read from the file a block at a time.

        While the caller works on one block, a reader thread reads the next
        into the other of two buffers and folds it into the running CRC-32,
        both without the GIL.  A buffer is refilled only once the block after
        the one it holds is asked for.  The CRC-32 covers exactly the bytes
        handed out and is checked after the last row.  Closing the generator
        waits for its reader, so no read outlives it.
        """
        (rows, dim), descriptor, offset, name = self.shape, self.descriptor, self.offset, self.name
        starts = range(0, rows, NORM_BLOCK_ROWS)
        buffers = np.empty((2, min(rows, NORM_BLOCK_ROWS), dim), "<f8")
        running = 0

        def read(k: int) -> np.ndarray:
            nonlocal running
            block = buffers[k % 2][: min(NORM_BLOCK_ROWS, rows - starts[k])]
            data = block.reshape(-1).view(np.uint8)
            if os.preadv(descriptor, [data], offset + starts[k] * dim * 8) != data.size:
                raise DataError(f"array {name!r} runs past the end of the file")
            running = zlib.crc32(data, running)
            return block

        with ThreadPoolExecutor(max_workers=1) as reader:
            pending = reader.submit(read, 0) if starts else None
            for k in range(len(starts)):
                try:
                    block = pending.result()
                finally:  # a failed read's future holds its error, whose traceback would hold this frame
                    pending = None
                if k + 1 < len(starts):
                    pending = reader.submit(read, k + 1)
                yield block
        if running != self.crc32:
            raise DataError(f"array {name!r} fails its CRC-32 check")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """A copy of the whole array, read through ``blocks``; there is no view of it to give (``copy=False``)."""
        if copy is False:
            raise ValueError(f"{self.filename}: array {self.name!r} is in its file, so it can only be copied")
        array = np.empty(self.shape, dtype)
        try:  # blocks first, so that zip takes the step after its last block, which checks the CRC-32
            for block, lo in zip(self.blocks(), range(0, self.shape[0], NORM_BLOCK_ROWS)):
                array[lo : lo + len(block)] = block
        except DataError as exc:
            raise DataError(f"{self.filename}: {exc}") from exc
        return array


@dataclass
class PretrainedTable:
    """Immutable word -> D-vector table with cached row norms and a float32 screen.

    Rows ascend by word length, in file order within a length, so the words
    of one length are one contiguous span of rows.  The constructor derives
    ``word_to_row``, the norms, the screen and the spans, and raises
    ValueError unless the matrix is (len(words), D), the words are unique and
    in that order, and every row has a finite nonzero norm.

    ``matrix`` is an array in memory or a ``FileMatrix`` of a checkpoint
    file.  The constructor makes one pass over its rows, a block at a time:
    slices of an array, or a ``FileMatrix``'s ``blocks``, so a checkpoint
    load streams them from the file while it checks their CRC-32.
    """

    words: list[str]
    matrix: np.ndarray | FileMatrix  # (n, D) float64
    word_to_row: dict[str, int] = field(init=False, repr=False)
    norms: np.ndarray = field(init=False)  # (n,) float64, all finite and > 0
    screen: np.ndarray = field(init=False, repr=False)  # (n, D) float32: each row over its norm
    spans: dict[int, slice] = field(init=False)  # each word length present -> its rows, ascending

    def __post_init__(self) -> None:
        if isinstance(self.matrix, FileMatrix):
            blocks = self.matrix.blocks()  # a generator: nothing is read before the loop below
        else:
            self.matrix = np.asarray(self.matrix, dtype=np.float64)
            blocks = (self.matrix[lo : lo + NORM_BLOCK_ROWS] for lo in range(0, len(self.words), NORM_BLOCK_ROWS))
        if len(self.matrix.shape) != 2 or self.matrix.shape[0] != len(self.words):
            raise ValueError("matrix must be (len(words), D)")
        self.word_to_row = {w: i for i, w in enumerate(self.words)}
        if len(self.word_to_row) != len(self.words):
            raise ValueError("duplicate words in table")
        lengths = _lengths(self.words)
        if np.any(lengths[1:] < lengths[:-1]):
            raise ValueError("table rows are not in word-length order")
        self.norms = np.empty(len(self.words))
        self.screen = np.empty(self.matrix.shape, np.float32)
        lo = 0
        # an overflowing norm reads inf and a zero one divides 0/0; both are refused below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for block in blocks:
                hi = lo + len(block)
                self.norms[lo:hi] = np.linalg.norm(block, axis=1)
                np.divide(block, self.norms[lo:hi, None], out=self.screen[lo:hi], casting="unsafe")
                lo = hi
        if not np.all(np.isfinite(self.norms)):
            raise ValueError("non-finite vector in table")
        if np.any(self.norms == 0.0):
            raise ValueError("zero-norm vector in table")
        lengths, starts, counts = np.unique(lengths, return_index=True, return_counts=True)
        self.spans = {int(n): slice(int(lo), int(lo + c)) for n, lo, c in zip(lengths, starts, counts)}

    @classmethod
    def from_arrays(cls, words: Sequence[str], matrix: np.ndarray) -> "PretrainedTable":
        """Table of ``words`` and their ``matrix`` rows, stably reordered by word length.

        A matrix whose words are already in that order is used as it is, not copied.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        order = length_order(words)
        if order is not None and matrix.shape[:1] == (len(words),):  # the constructor refuses other shapes
            words, matrix = [words[i] for i in order], matrix[order]
        return cls(list(words), matrix)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_row

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[1])

    def candidate_rows(self, answer_length: int | None) -> slice:
        """The span of rows whose words have ``answer_length`` characters (empty if none); all rows for None."""
        if answer_length is None:
            return slice(0, len(self.words))
        return self.spans.get(answer_length, slice(0, 0))

    def gather(self, index: np.ndarray) -> np.ndarray:
        """Copies of the float64 rows at ``index``, checked against their screen rows.

        A file-backed table reads them by position (``FileMatrix.read``).  A
        row whose float32 unit vector is no longer its screen row has changed
        since the table was built, as when a loaded checkpoint is rewritten in
        place: a DataError naming the file.
        """
        in_file = isinstance(self.matrix, FileMatrix)
        rows = self.matrix.read(index) if in_file else self.matrix[index]
        with np.errstate(over="ignore", invalid="ignore"):  # a changed row may hold anything
            unchanged = np.array_equal((rows / self.norms[index, None]).astype(np.float32), self.screen[index])
        if not unchanged:
            source = self.matrix.filename if in_file else "pretrained table"
            raise DataError(f"{source}: pretrained rows changed after the table was loaded")
        return rows


def _lengths(words: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, words), dtype=np.int64, count=len(words))


def length_order(words: Sequence[str]) -> np.ndarray | None:
    """The stable permutation that sorts ``words`` by length, or None if they are in that order."""
    lengths = _lengths(words)
    if not np.any(lengths[1:] < lengths[:-1]):
        return None
    return np.argsort(lengths, kind="stable")


@dataclass
class PretrainedLoadStats:
    kept: int = 0
    dim_mismatch: int = 0
    non_finite: int = 0
    zero_norm: int = 0
    duplicates: int = 0


def load_pretrained(
    path: str | Path, expected_dim: int | None = None
) -> tuple[PretrainedTable, PretrainedLoadStats]:
    """Load a pretrained vector file, skipping malformed rows.

    Returns the table, its rows stacked in word-length order, and counts of
    what was dropped.  Raises DataError if no usable row remains.  With
    expected_dim=None the first parseable row fixes the width and later rows
    must agree with it.
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    stats = PretrainedLoadStats()
    with open(path, encoding="utf-8") as handle, decoding(path), np.errstate(over="ignore"):
        for line in handle:
            fields = line.split()
            if not fields:
                continue
            word = fields[0]
            try:
                vector = np.array([float(f) for f in fields[1:]], dtype=np.float64)
            except ValueError:
                stats.dim_mismatch += 1
                continue
            if vector.shape[0] == 0:
                stats.dim_mismatch += 1
                continue
            if expected_dim is None:
                expected_dim = int(vector.shape[0])
            if vector.shape[0] != expected_dim:
                stats.dim_mismatch += 1
                continue
            norm = np.linalg.norm(vector)
            if not np.isfinite(norm):
                stats.non_finite += 1
                continue
            if not norm > 0.0:
                stats.zero_norm += 1
                continue
            if word in seen:
                stats.duplicates += 1
                continue
            seen.add(word)
            words.append(word)
            rows.append(vector)
    if not rows:
        raise DataError(
            f"{path}: no usable embedding rows ({stats.dim_mismatch} malformed, "
            f"{stats.non_finite} non-finite, {stats.zero_norm} zero-norm)"
        )
    stats.kept = len(rows)
    order = length_order(words)
    if order is not None:
        words, rows = [words[i] for i in order], [rows[i] for i in order]
    return PretrainedTable(words, np.stack(rows)), stats


def row_fingerprints(rows: np.ndarray) -> np.ndarray:
    """One float64 per (n, D) row: the row-wise sum of the row times fixed weights 1 + j/D.

    Each row is summed on its own, so a row gets the same bits in a block of
    any number of rows.  The weights differ from entry to entry and are all
    positive, so negating a row, swapping two of its unequal entries or
    moving one entry changes its fingerprint (bar a rounding coincidence),
    and any inf or nan entry makes it inf or nan.  An entry overflowing the
    sum makes it inf too, so fingerprints are compared by their bits.
    """
    weights = 1.0 + np.arange(rows.shape[-1]) / rows.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return (rows * weights).sum(axis=-1)


@dataclass
class LearnedTable:
    """Trainable gloss-token embedding matrix; the PAD row stays all-zero.

    ``matrix`` is an array in memory, or a ``FileMatrix`` of a checkpoint
    file together with ``fingerprints``, each row's ``row_fingerprints`` as
    the load read it.
    """

    matrix: np.ndarray | FileMatrix  # (vocab, E) float64
    pad_id: int
    fingerprints: np.ndarray | None = None  # (vocab,) float64, for a file-backed matrix

    def lookup(self, token_ids: np.ndarray) -> np.ndarray:
        """The (..., B, L, E) embedding rows of (B, L) ``token_ids``.

        An in-memory matrix is one ``np.take``, which also carries the leading
        replica axes of ``objective._replica_losses``.  A file-backed one reads
        each distinct id's row once by position and checks it against its
        fingerprint: a row that no longer matches, as when a loaded checkpoint
        is rewritten in place, is a DataError naming the file.
        """
        if not isinstance(self.matrix, FileMatrix):
            return np.take(self.matrix, token_ids, axis=-2)
        unique, inverse = np.unique(token_ids, return_inverse=True)
        rows = self.matrix.read(unique)
        if row_fingerprints(rows).tobytes() != self.fingerprints[unique].tobytes():
            raise DataError(f"{self.matrix.filename}: embedding rows changed after the model was loaded")
        return rows[inverse.reshape(np.shape(token_ids))]


def _query_norms(query: np.ndarray) -> np.ndarray:
    """Each (..., D) query row's norm, one row-wise sum each, so a row gets the same bits alone or in a batch."""
    with np.errstate(over="ignore"):  # an overflowing norm reads inf, which is refused below
        qnorm = np.sqrt((query * query).sum(axis=-1))
    if not np.all(np.isfinite(qnorm)):
        raise NonFiniteLossError("non-finite query vector")
    if not np.all(qnorm > 0.0):  # every cosine of a zero vector is 0/0
        raise NonFiniteLossError("zero-norm query vector")
    return qnorm


def cosine_to_all(query: np.ndarray, table: PretrainedTable, rows: slice = slice(None)) -> np.ndarray:
    """Screen cosines of each (..., D) ``query`` row against the table's ``rows`` (all by default): (..., n).

    Each query row is divided by its norm and rounded to float32, as the
    screen's rows were, and scored in one float32 product.  Every score is
    within half of ``band_width(query, table)`` of the row's ``rescore``
    cosine.  The float32 values come back as float64, so that bounds can be
    compared with them in float64.
    """
    query = np.asarray(query, dtype=np.float64)
    unit = (query / _query_norms(query)[..., None]).astype(np.float32)
    return (unit @ table.screen[rows].T).astype(np.float64)


def rescore(query: np.ndarray, table: PretrainedTable, index: np.ndarray) -> np.ndarray:
    """Float64 cosines of one (D,) ``query`` with the table rows ``index``.

    ``(rows * query).sum(axis=1) / (qnorm * norms)`` runs no BLAS call and
    sums each row on its own, so a row gets the same bits at any BLAS thread
    count, in any span and beside any other rows.
    """
    query = np.asarray(query, dtype=np.float64)
    return (table.gather(index) * query).sum(axis=1) / (_query_norms(query) * table.norms[index])


def _gamma(n: int, u: float) -> float:
    """The bound γ_n = nu / (1 - nu) on the relative error of n roundings of unit roundoff u."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def band_width(query: np.ndarray, table: PretrainedTable) -> float:
    """2(δ + ε): twice the most a screen score can differ from the same row's ``rescore`` cosine.

    Let r be a row and q the query, n̂ and q̂ their norms as computed (the
    table's norms, and ``_query_norms``, which both stages share), and
    C = r·q / (n̂q̂) exactly.  A computed norm understates the true one only
    where squares underflow: ‖r‖/n̂ ≤ ρ(n̂) = (1 + γ_{D+2}(u64))·√(1 + D·2^-1074/n̂²),
    so the vectors x = r/n̂ and y = q/q̂ have Σ|x_i y_i| ≤ ρ(n̂)ρ(q̂).  Here n̂ is
    the table's smallest norm, the largest ρ over its rows; ρ is 1 + 1e-13
    at D = 500 unless a norm is below about 1e-150.

    δ, the screen's error: each screen entry is fl32(fl64(r_i/n̂)) =
    x_i(1 + θ_i) + μ_i with |θ_i| ≤ v = u32 + u64 + u32·u64 (two roundings)
    and |μ_i| ≤ 2^-149 (float32 underflow), and the query's entries alike.  A
    float32 dot product of D terms, in any order and with or without FMA,
    errs by at most γ_D(u32)·Σ|s_i t_i|, plus D·2^-150 where products
    underflow.  So, with γ = γ_D(u32),
    δ = (γ + 2v + v²)(1 + γ)·ρ(n̂)ρ(q̂) + (1 + γ)·2^-149·(√D·(ρ(n̂) + ρ(q̂))(1 + v) + D),
    about 2.99e-5 at D = 500.

    ε, the rescoring error: the row-wise sum of D float64 products errs by at
    most γ_D(u64)·n̂q̂·ρ(n̂)ρ(q̂) plus D·2^-1075 of products that underflow, and
    the product of the norms and the division round twice more, unless n̂q̂
    is below 2^-1022, where the product may itself be subnormal (then ε and
    the width are infinite).  So
    ε = γ_{D+2}(u64)·ρ(n̂)ρ(q̂) + D·2^-1074/(n̂q̂) + 2^-50,
    about 5.7e-14 at D = 500; the 2^-50 also covers the rounding of the
    float64 thresholds a caller compares screen scores with (no score
    exceeds about 1 in magnitude).

    So |S - R| ≤ δ + ε for each row's screen score S and rescored cosine R.
    For the top k: at least k rows have S ≥ t, the k-th best screen score,
    so R ≥ t - (δ + ε); a row with S < t - 2(δ + ε) has R < t - (δ + ε) and
    cannot reach the top k, whatever the tie-break.  For the rank of a row
    with screen score S_c: a row with S > S_c + 2(δ + ε) has the higher R, a
    row with S < S_c - 2(δ + ε) the lower, and only the rows between need R.
    An infinite width rescores every row, which is still exact.
    """
    dim = table.dimension
    qnorm, min_norm = float(_query_norms(np.asarray(query, dtype=np.float64))), float(table.norms.min())

    def rho(norm: float) -> float:
        tiny = math.sqrt(dim) * 2.0**-537 / norm  # √(D·2^-1074) / norm, squared below
        return (1.0 + _gamma(dim + 2, U64)) * math.sqrt(1.0 + tiny * tiny)

    if min_norm * qnorm < 2.0**-1022:
        return math.inf
    g32, v = _gamma(dim, U32), U32 + U64 + U32 * U64
    rho_r, rho_q = rho(min_norm), rho(qnorm)
    delta = (g32 + 2 * v + v * v) * (1 + g32) * rho_r * rho_q
    delta += (1 + g32) * 2.0**-149 * (math.sqrt(dim) * (rho_r + rho_q) * (1 + v) + dim)
    eps = _gamma(dim + 2, U64) * rho_r * rho_q + dim * 2.0**-1074 / (min_norm * qnorm) + 2.0**-50
    return 2 * (delta + eps)


def rank_by_cosine(
    query: np.ndarray,
    table: PretrainedTable,
    topk: int,
    answer_length: int | None = None,
) -> list[tuple[str, float]]:
    """The ``topk`` best candidates by cosine, best first, exact ties by word.

    ``answer_length`` keeps only words with that many characters, and only
    their span of rows is screened (None: every row).  Only the band of rows
    whose screen score is at least the k-th best minus ``band_width`` can
    reach the top k; they alone are rescored and sorted, so the result is
    what rescoring and sorting every candidate gives, ties across the cut
    included.
    """
    if topk < 1:
        raise ValueError("topk must be at least 1")
    rows = table.candidate_rows(answer_length)
    scores = cosine_to_all(query, table, rows)
    band = np.arange(scores.size)
    if topk < scores.size:
        kth = -np.partition(-scores, topk - 1)[topk - 1]
        band = np.flatnonzero(scores >= kth - band_width(query, table))
    exact = rescore(query, table, rows.start + band)
    scored = zip((table.words[rows.start + i] for i in band), exact.tolist())
    ranked = sorted(scored, key=lambda ws: (-ws[1], ws[0]))
    return ranked[:topk]
