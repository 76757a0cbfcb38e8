"""Fixtures and oracles shared by the ranking tests, and the checkpoint file layout the checkpoint tests read and write."""

import json
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from revdict.embeddings import FileMatrix, PretrainedTable

LETTERS = np.array(list("abcdefghij"))
# A rescored cosine may differ from the float64 GEMV's in the last bits: scores must agree
# within SCORE_TOL, and two words whose GEMV scores are within NEAR_TIE may rank either way.
SCORE_TOL = 1e-14
NEAR_TIE = 1e-12
CHECKPOINT_MAGIC = b"REVDICT\x00"
PREFIX_SIZE = 20  # the magic, then the header's length (8 bytes) and CRC-32 (4 bytes)


def read_checkpoint_file(path):
    """A checkpoint file's JSON header and each array's bytes by name, cut where the header's shapes say."""
    data = Path(path).read_bytes()
    end = PREFIX_SIZE + int.from_bytes(data[8:16], "little")
    header = json.loads(data[PREFIX_SIZE:end])
    arrays = {}
    for name, entry in sorted(header["arrays"].items()):
        size = 8 * math.prod(entry["shape"])
        arrays[name], end = data[end : end + size], end + size
    return header, arrays


def framed_header(blob):
    """The magic, the length and CRC-32 of header bytes ``blob``, then ``blob``: a checkpoint file up to its arrays."""
    return CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + zlib.crc32(blob).to_bytes(4, "little") + blob


def write_checkpoint_file(path, header, arrays):
    """Write ``header`` and the ``arrays`` bytes, in name order, as a checkpoint file."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(framed_header(blob) + b"".join(arrays[name] for name in sorted(arrays)))


def refuse_whole_reads(monkeypatch):
    """Make numpy's whole read of a loaded array (``np.asarray`` of a ``FileMatrix``) fail, so a test shows that no
    path takes it: the rows of such an array are read only by position (``FileMatrix.read``) or block (``blocks``)."""

    def read_whole(self, dtype=None, copy=None):
        raise AssertionError(f"{self.filename}: array {self.name!r} read whole")

    monkeypatch.setattr(FileMatrix, "__array__", read_whole)


def nbytes(array):
    """The bytes of float64 ``array``, in memory or still in its file (a ``FileMatrix`` has no ``nbytes``)."""
    return 8 * math.prod(array.shape)


def tied_arrays(seed: int, base_rows: int = 40, copies: int = 24, dim: int = 5) -> tuple[list[str], np.ndarray]:
    """Random words of 1-6 letters in no length order; some rows are 1x, 2x or 4x copies of earlier rows.

    A power-of-two multiple of a row has exactly the same cosine to any query,
    so the copies force exact ties, broken by word, between different words
    and across different word lengths.
    """
    rng = np.random.default_rng(seed)
    words: list[str] = []
    while len(words) < base_rows + copies:
        word = "".join(rng.choice(LETTERS, size=int(rng.integers(1, 7))))
        if word not in words:
            words.append(word)
    matrix = rng.normal(size=(base_rows + copies, dim))
    sources = rng.integers(0, base_rows, size=copies)
    matrix[base_rows:] = matrix[sources] * rng.choice([1.0, 2.0, 4.0], size=copies)[:, None]
    order = rng.permutation(len(words))  # scatter the copies among the originals
    return [words[i] for i in order], matrix[order]


@pytest.fixture
def tied_sources():
    """The words and rows of the three tied tables, in the shuffled order ``from_arrays`` is given them."""
    return [tied_arrays(seed) for seed in (0, 1, 2)]


@pytest.fixture
def tied_tables(tied_sources):
    """Three seeded tables with forced ties, each with queries that hit them.

    The queries are one random direction and two table rows that have copies,
    so the best scores are themselves tied.
    """
    cases = []
    for seed, (words, matrix) in enumerate(tied_sources):
        table = PretrainedTable.from_arrays(words, matrix)
        rng = np.random.default_rng(100 + seed)
        directions = table.matrix / table.norms[:, None]
        _, first, counts = np.unique(directions, axis=0, return_index=True, return_counts=True)
        queries = [rng.normal(size=table.dimension)] + [table.matrix[row] for row in first[counts > 1][:2]]
        cases.append((table, queries))
    return cases


def rescored_cosines(query, table):
    """Every row's cosine by the formula ``embeddings.rescore`` applies to the band: the ranking with no screen."""
    query = np.asarray(query, dtype=np.float64)
    return (table.matrix * query).sum(axis=1) / (np.sqrt((query * query).sum()) * table.norms)


def gemv_cosines(query, matrix):
    """The float64 GEMV over the whole matrix that the screen and band replaced: the slow path, kept as the oracle."""
    qnorm = np.sqrt(query[None, :] @ query[:, None])[0, 0]
    return (query @ matrix.T) / (qnorm * np.linalg.norm(matrix, axis=1))


def candidates(words, answer_length):
    """Indices of ``words`` with ``answer_length`` characters, or of every word for None."""
    lengths = np.array([len(w) for w in words])
    return np.arange(len(words)) if answer_length is None else np.flatnonzero(lengths == answer_length)


def assert_topk_near_oracle(got, words, scores, pool, topk):
    """``rank_by_cosine``'s ``got`` against the oracle ``scores`` of ``words`` over the ``pool`` indices.

    Every score agrees within SCORE_TOL, and each position holds the oracle's
    word there unless the two words' oracle scores are within NEAR_TIE.
    """
    expected = sorted((-float(scores[i]), words[i]) for i in pool)[:topk]
    assert len(got) == len(expected)
    assert got == sorted(got, key=lambda ws: (-ws[1], ws[0]))
    row_of = {words[i]: i for i in pool}
    assert len({word for word, _ in got}) == len(got)
    for (word, score), (neg_best, best_word) in zip(got, expected):
        oracle = float(scores[row_of[word]])
        assert abs(score - oracle) <= SCORE_TOL, (word, score, oracle)
        assert word == best_word or abs(oracle + neg_best) <= NEAR_TIE, (word, best_word)


def oracle_rank_bounds(words, scores, pool, correct):
    """Lowest and highest 1-based rank of ``correct`` among the ``pool`` indices that oracle ``scores`` allow."""
    at = words.index(correct)
    others = np.array([i for i in pool if i != at], dtype=np.int64)
    gaps = scores[others] - scores[at] if others.size else np.zeros(0)
    return 1 + int(np.count_nonzero(gaps > NEAR_TIE)), 1 + int(np.count_nonzero(gaps >= -NEAR_TIE))
