"""Fixtures shared by the ranking tests, and the checkpoint file layout the checkpoint tests read and write."""

import json
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from revdict.embeddings import PretrainedTable

LETTERS = np.array(list("abcdefghij"))
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
