"""Dataset loading, cleaning, bucketing and padding.

Definition data lives in a TSV (``head<TAB>space-separated gloss``),
crossword data in a CSV with a ``clue,answer`` header.  Both are normalized
to lowercase alphanumeric text before tokenization.  Training batches are
built by shuffling pairs, cutting them into large buckets, sorting each
bucket by gloss length and padding per minibatch, which keeps the padding
waste per batch small.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, decoding

BUCKET_SIZE = 4096
MINIBATCH_SIZE = 16
MAX_GLOSS_LEN = 150

LONG_CLUE_MIN_TOKENS = 5  # clues of > 4 tokens count as "long"

_KEEP = re.compile(r"[^a-z0-9 ]+")


def normalize_text(text: str) -> str:
    """Lowercase, turn tabs into spaces and drop every character outside [a-z0-9 ]."""
    text = _KEEP.sub("", text.lower().replace("\t", " "))
    return text.strip()


def tokenize(text: str) -> list[str]:
    return normalize_text(text).split()


@dataclass(frozen=True)
class DefinitionPair:
    """A head word together with the tokenized gloss that defines it."""

    head: str
    gloss: tuple[str, ...]


@dataclass(frozen=True)
class CrosswordClue:
    clue: tuple[str, ...]
    answer: str
    answer_length: int
    category: str  # "long" (> 4 clue tokens) or "short"


@dataclass(frozen=True)
class EncodedPair:
    """A training example after vocabulary encoding.

    ``head_id`` indexes the pretrained embedding table; ``gloss_ids`` index
    the learned gloss-token table.
    """

    head_id: int
    gloss_ids: tuple[int, ...]


@dataclass
class PaddedBatch:
    """A rectangular minibatch of encoded glosses.

    ``token_ids`` is B x L with the pad id in every position at or beyond the
    row's true length; ``lengths`` holds the true (post-truncation) lengths.
    """

    token_ids: np.ndarray
    lengths: np.ndarray
    head_ids: np.ndarray


@dataclass
class CleanStats:
    """Counts of inputs dropped while cleaning crossword data."""

    duplicates: int = 0
    multiword_answers: int = 0
    empty: int = 0

    @property
    def dropped(self) -> int:
        return self.duplicates + self.multiword_answers + self.empty


def load_definitions(path: str | Path) -> tuple[list[DefinitionPair], int]:
    """Read a definitions TSV; returns (pairs, number of rejected lines).

    A line is rejected when it has no TAB, when the head is not a single
    token after normalization, or when the gloss has no tokens left.
    """
    pairs: list[DefinitionPair] = []
    rejected = 0
    with open(path, encoding="utf-8") as handle, decoding(path):
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            head_raw, sep, gloss_raw = line.partition("\t")
            if not sep:
                rejected += 1
                continue
            head_tokens = tokenize(head_raw)
            gloss = tokenize(gloss_raw)
            if len(head_tokens) != 1 or not gloss:
                rejected += 1
                continue
            pairs.append(DefinitionPair(head=head_tokens[0], gloss=tuple(gloss)))
    return pairs, rejected


def save_definitions(path: str | Path, pairs: list[DefinitionPair]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for pair in pairs:
            handle.write(f"{pair.head}\t{' '.join(pair.gloss)}\n")


def load_crossword_csv(path: str | Path) -> list[tuple[str, str]]:
    """Read raw (clue, answer) rows from a CSV with a ``clue,answer`` header."""
    with open(path, encoding="utf-8", newline="") as handle, decoding(path):
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["clue", "answer"]:
            raise DataError(f"{path}: expected a 'clue,answer' header row")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise DataError(f"{path}: row with fewer than 2 columns: {row!r}")
            rows.append((row[0], row[1]))
    return rows


def clean_crosswords(raw: list[tuple[str, str]]) -> tuple[list[CrosswordClue], CleanStats]:
    """Normalize, deduplicate and categorize raw (clue, answer) pairs.

    Answers that span multiple words are dropped, as are pairs that are
    empty after normalization.  Duplicates are detected on the normalized
    (clue, answer) pair so that cleaning is idempotent.
    """
    stats = CleanStats()
    seen: set[tuple[str, str]] = set()
    clues: list[CrosswordClue] = []
    for clue_raw, answer_raw in raw:
        clue_tokens = tokenize(clue_raw)
        answer = normalize_text(answer_raw)
        if not clue_tokens or not answer:
            stats.empty += 1
            continue
        if " " in answer:
            stats.multiword_answers += 1
            continue
        key = (" ".join(clue_tokens), answer)
        if key in seen:
            stats.duplicates += 1
            continue
        seen.add(key)
        category = "long" if len(clue_tokens) >= LONG_CLUE_MIN_TOKENS else "short"
        clues.append(
            CrosswordClue(
                clue=tuple(clue_tokens),
                answer=answer,
                answer_length=len(answer),
                category=category,
            )
        )
    return clues, stats


def split_long_short(clues: list[CrosswordClue]) -> tuple[list[CrosswordClue], list[CrosswordClue]]:
    """Partition clues into (long, short) question lists by category."""
    long_clues = [c for c in clues if c.category == "long"]
    short_clues = [c for c in clues if c.category == "short"]
    return long_clues, short_clues


def clues_to_pairs(clues: list[CrosswordClue]) -> list[DefinitionPair]:
    """View crossword clues as head/gloss training pairs."""
    return [DefinitionPair(head=c.answer, gloss=c.clue) for c in clues]


def pad_minibatch(
    seqs: list[list[int]],
    pad_id: int,
    head_ids: list[int] | None = None,
) -> PaddedBatch:
    """Pad (or truncate to MAX_GLOSS_LEN) token-id sequences into one rectangle."""
    if not 1 <= len(seqs) <= MINIBATCH_SIZE:
        raise ValueError(f"minibatch must have 1..{MINIBATCH_SIZE} rows, got {len(seqs)}")
    if any(len(s) == 0 for s in seqs):
        raise ValueError("cannot pad an empty sequence")
    truncated = [list(s[:MAX_GLOSS_LEN]) for s in seqs]
    lengths = np.array([len(s) for s in truncated], dtype=np.int64)
    width = int(lengths.max())
    token_ids = np.full((len(truncated), width), pad_id, dtype=np.int64)
    for row, seq in enumerate(truncated):
        token_ids[row, : len(seq)] = seq
    if head_ids is None:
        head_ids = [-1] * len(truncated)
    return PaddedBatch(
        token_ids=token_ids,
        lengths=lengths,
        head_ids=np.asarray(head_ids, dtype=np.int64),
    )


def make_buckets(
    pairs: list[EncodedPair], bucket_size: int, shuffle_seed: int
) -> list[list[EncodedPair]]:
    """Shuffle pairs, cut into consecutive buckets, sort each by gloss length."""
    rng = np.random.default_rng(shuffle_seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    buckets = []
    for start in range(0, len(shuffled), bucket_size):
        bucket = shuffled[start : start + bucket_size]
        bucket.sort(key=lambda p: len(p.gloss_ids))  # stable, so seed fixes order
        buckets.append(bucket)
    return buckets


def bucket_and_batch(
    pairs: list[EncodedPair],
    pad_id: int,
    bucket_size: int = BUCKET_SIZE,
    minibatch: int = MINIBATCH_SIZE,
    shuffle_seed: int = 0,
) -> list[PaddedBatch]:
    """Turn encoded pairs into padded minibatches of at most ``minibatch`` rows."""
    if minibatch < 1 or minibatch > bucket_size or bucket_size % minibatch != 0:
        raise ConfigError(
            f"minibatch size {minibatch} must divide bucket size {bucket_size}"
        )
    batches = []
    for bucket in make_buckets(pairs, bucket_size, shuffle_seed):
        for start in range(0, len(bucket), minibatch):
            chunk = bucket[start : start + minibatch]
            batches.append(
                pad_minibatch(
                    [list(p.gloss_ids) for p in chunk],
                    pad_id=pad_id,
                    head_ids=[p.head_id for p in chunk],
                )
            )
    return batches


def length_histogram(items, unit: str = "tokens") -> dict[int, int]:
    """Histogram of token counts ("tokens") or character counts ("characters")."""
    if unit not in ("tokens", "characters"):
        raise ValueError(f"unknown unit {unit!r}")
    counts = Counter(len(item) for item in items)
    return dict(counts)


def save_histogram(path: str | Path, histogram: dict[int, int]) -> None:
    """Write a histogram as ``length<TAB>count`` lines, ascending by length."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for length in sorted(histogram):
            handle.write(f"{length}\t{histogram[length]}\n")
