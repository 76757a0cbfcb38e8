"""Pretrained head-word embeddings, the learned gloss table, and cosine ranking.

The pretrained file format is one word per line followed by its vector:
``word f1 f2 ... fD``, whitespace separated.  Rows with the wrong number of
fields, unparseable floats, a non-finite norm (an ``inf``/``nan`` entry) or
zero norm are dropped (counted, not fatal);
duplicate words keep their first occurrence.

Every table keeps its rows in ascending word length, in file order within a
length, so the candidates of one answer length are a contiguous span of
rows: a ``--length`` query scores only that span, a view of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, NonFiniteLossError, decoding

LEARNED_DIM = 500
INIT_SCALE = 0.05
# rows per np.linalg.norm call, so its squared-entries temporary is a block, not the table
# (each row's sum is its own, so the bits are the whole-table call's)
NORM_BLOCK_ROWS = 1024


@dataclass
class PretrainedTable:
    """Immutable word -> D-vector table with cached row norms.

    Rows ascend by word length, in file order within a length, so the words
    of one length are one contiguous span of rows.  The constructor derives
    ``word_to_row``, the norms and the spans, and raises ValueError unless
    the matrix is (len(words), D), the words are unique and in that order,
    and every row has a finite nonzero norm.
    """

    words: list[str]
    matrix: np.ndarray  # (n, D) float64
    word_to_row: dict[str, int] = field(init=False, repr=False)
    norms: np.ndarray = field(init=False)  # (n,) float64, all finite and > 0
    spans: dict[int, slice] = field(init=False)  # each word length present -> its rows, ascending

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.words):
            raise ValueError("matrix must be (len(words), D)")
        self.word_to_row = {w: i for i, w in enumerate(self.words)}
        if len(self.word_to_row) != len(self.words):
            raise ValueError("duplicate words in table")
        lengths = _lengths(self.words)
        if np.any(lengths[1:] < lengths[:-1]):
            raise ValueError("table rows are not in word-length order")
        self.norms = np.empty(len(self.matrix))
        with np.errstate(over="ignore"):  # an overflowing norm reads inf, which is refused below
            for lo in range(0, len(self.matrix), NORM_BLOCK_ROWS):
                block = slice(lo, lo + NORM_BLOCK_ROWS)
                self.norms[block] = np.linalg.norm(self.matrix[block], axis=1)
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


@dataclass
class LearnedTable:
    """Trainable gloss-token embedding matrix; the PAD row stays all-zero."""

    matrix: np.ndarray  # (vocab, E) float64
    pad_id: int


def cosine_to_all(query: np.ndarray, table: PretrainedTable, rows: slice = slice(None)) -> np.ndarray:
    """Cosine similarity of each (..., D) ``query`` row against the table's ``rows`` (all by default): (..., n)."""
    query = np.asarray(query, dtype=np.float64)
    qnorm = np.sqrt(query[..., None, :] @ query[..., :, None])[..., 0, 0]  # row by row, np.linalg.norm's bits
    if not np.all(np.isfinite(qnorm)):
        raise NonFiniteLossError("non-finite query vector")
    if not np.all(qnorm > 0.0):  # every cosine of a zero vector is 0/0
        raise NonFiniteLossError("zero-norm query vector")
    return (query @ table.matrix[rows].T) / (qnorm[..., None] * table.norms[rows])


def rank_by_cosine(
    query: np.ndarray,
    table: PretrainedTable,
    topk: int,
    answer_length: int | None = None,
) -> list[tuple[str, float]]:
    """The ``topk`` best candidates by cosine, best first, exact ties by word.

    ``answer_length`` keeps only words with that many characters, and only
    their span of rows is scored (None: every row).  Only rows scoring at
    least the k-th best are sorted, so a tie across the cut is still broken
    by word.
    """
    if topk < 1:
        raise ValueError("topk must be at least 1")
    rows = table.candidate_rows(answer_length)
    scores = cosine_to_all(query, table, rows)
    pool = range(scores.size)
    if topk < scores.size:
        kth = -np.partition(-scores, topk - 1)[topk - 1]  # a NaN score sorts last here, out of the top k
        pool = np.flatnonzero(scores >= kth)
    scored = ((table.words[rows.start + i], float(scores[i])) for i in pool)
    ranked = sorted(scored, key=lambda ws: (-ws[1], ws[0]))
    return ranked[:topk]
