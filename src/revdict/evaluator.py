"""Ranking evaluation: median rank, accuracy@k, rank variance, length filter.

Test glosses are encoded in length-sorted, padded batches of at most
MINIBATCH_SIZE rows, capped at MAX_GLOSS_LEN tokens as in training.  The
correct head is ranked among the candidates by cosine; exact cosine ties
are broken lexicographically so ranks are deterministic.  In definitions
mode every table row is a candidate and each batch is scored in one GEMM.
Crossword mode keeps only words with the answer's character count, a
contiguous span of the length-ordered table, so each batch's rows are
grouped by answer length and each group is scored against its span alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import MINIBATCH_SIZE, CrosswordClue, DefinitionPair, pad_minibatch
from .embeddings import PretrainedTable, cosine_to_all
from .errors import DataError
from .tokenizer import encode_gloss


@dataclass
class RankRecord:
    """Outcome of ranking one test item."""

    item_id: str
    rank: int
    candidate_count: int
    excluded: bool = False  # correct word did not survive the filter


@dataclass
class MetricsReport:
    median_rank: float
    acc_at_10: float
    acc_at_100: float
    rank_variance: float


def length_filter(table: PretrainedTable, answer_length: int) -> list[str]:
    """Exactly the table words with ``answer_length`` characters."""
    if answer_length < 1:
        raise ValueError("answer length must be at least 1")
    return table.words[table.candidate_rows(answer_length)]


def rank_of_correct(
    scores: np.ndarray,
    table: PretrainedTable,
    correct: str,
    answer_length: int | None = None,
    item_id: str = "",
) -> RankRecord:
    """1-based rank of ``correct`` among the candidates, given their cosine ``scores``.

    The candidates are the rows ``table.candidate_rows(answer_length)``:
    every row for None, else the words of that many characters, and
    ``scores`` holds one cosine per candidate.  A correct word that the
    length rules out is scored one past the worst candidate and flagged,
    keeping set-level metrics defined.
    """
    if correct not in table:
        raise DataError(f"correct word {correct!r} not in the candidate table")
    rows = table.candidate_rows(answer_length)
    count = rows.stop - rows.start
    if scores.shape != (count,):
        raise ValueError(f"{scores.shape} scores for {count} candidates")
    if answer_length is not None and len(correct) != answer_length:
        return RankRecord(item_id, rank=count + 1, candidate_count=count, excluded=True)
    correct_score = scores[table.word_to_row[correct] - rows.start]
    greater = int(np.count_nonzero(scores > correct_score))
    tied = rows.start + np.flatnonzero(scores == correct_score)
    tied_before = sum(1 for i in tied if table.words[i] < correct)
    return RankRecord(item_id, rank=1 + greater + tied_before, candidate_count=count)


def score_batches(
    model,
    table: PretrainedTable,
    id_lists: Sequence[Sequence[int]],
    answer_lengths: Sequence[int | None] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """(k, cosines of gloss ``id_lists[k]``'s encoding to its candidate rows), shortest gloss first.

    Gloss k's candidates are ``table.candidate_rows(answer_lengths[k])``,
    every row when ``answer_lengths`` is None.  Glosses are ordered by
    length (ties by index) and cut into batches of at most MINIBATCH_SIZE
    rows that ``pad_minibatch`` pads and cuts as training does; each batch
    is one ``encode_ids`` call and one score GEMM per answer length in it.
    """
    wanted = [None] * len(id_lists) if answer_lengths is None else answer_lengths
    order = sorted(range(len(id_lists)), key=lambda k: len(id_lists[k]))
    for start in range(0, len(order), MINIBATCH_SIZE):
        chunk = order[start : start + MINIBATCH_SIZE]
        batch = pad_minibatch([id_lists[k] for k in chunk], model.embeddings.pad_id)
        vectors = model.encode_ids(batch.token_ids, batch.lengths)
        groups: dict[int | None, list[int]] = {}
        for j, k in enumerate(chunk):
            groups.setdefault(wanted[k], []).append(j)
        for length, members in groups.items():
            scores = cosine_to_all(vectors[members], table, table.candidate_rows(length))
            yield from zip((chunk[j] for j in members), scores)


def median_rank(ranks: Sequence[float]) -> float:
    """Middle rank; for even counts, the mean of the two middle ranks."""
    if len(ranks) == 0:
        raise ValueError("median of an empty rank list")
    return float(np.median(np.asarray(ranks, dtype=np.float64)))


def accuracy_at_k(ranks: Sequence[float], k: int) -> float:
    if len(ranks) == 0:
        raise ValueError("accuracy of an empty rank list")
    ranks = np.asarray(ranks, dtype=np.float64)
    return float((ranks <= k).mean())


def rank_variance(ranks: Sequence[float]) -> float:
    """Population variance (divide by n) of the rank distribution."""
    if len(ranks) == 0:
        raise ValueError("variance of an empty rank list")
    return float(np.var(np.asarray(ranks, dtype=np.float64)))


def summarize(records: Sequence[RankRecord]) -> MetricsReport:
    ranks = [r.rank for r in records]
    return MetricsReport(
        median_rank=median_rank(ranks),
        acc_at_10=accuracy_at_k(ranks, 10),
        acc_at_100=accuracy_at_k(ranks, 100),
        rank_variance=rank_variance(ranks),
    )


def format_summary(report: MetricsReport) -> str:
    return (
        f"median_rank={report.median_rank!r} "
        f"acc@10={report.acc_at_10!r} "
        f"acc@100={report.acc_at_100!r} "
        f"rank_variance={report.rank_variance!r}"
    )


def write_rank_records(path: str | Path, records: Sequence[RankRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for rec in records:
            handle.write(f"{rec.item_id}\t{rec.rank}\t{rec.candidate_count}\n")


def evaluate(
    checkpoint,
    items: Sequence[DefinitionPair | CrosswordClue],
    mode: str = "definitions",
) -> tuple[MetricsReport, list[RankRecord]]:
    """Rank every test item under a trained checkpoint.

    ``checkpoint`` provides model, vocab, pretrained table, merge table and
    config (trainer module).  ``mode`` is "definitions" (DefinitionPair items)
    or "crossword" (CrosswordClue items, length-filtered); other items are a DataError.
    """
    if mode not in ("definitions", "crossword"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if len(items) == 0:
        raise DataError("empty test set")
    table: PretrainedTable = checkpoint.pretrained
    fields = []
    kind = CrosswordClue if mode == "crossword" else DefinitionPair
    for item in items:
        if not isinstance(item, kind):
            raise DataError(f"{mode} mode needs {kind.__name__} items")
        if mode == "crossword":
            tokens, correct, wanted = item.clue, item.answer, item.answer_length
        else:
            tokens, correct, wanted = item.gloss, item.head, None
        if correct not in table:
            raise DataError(f"test head {correct!r} missing from the pretrained table")
        fields.append((tokens, correct, wanted))
    vocab, merges, segmentation = checkpoint.vocab, checkpoint.merges, checkpoint.config.segmentation
    id_lists = [encode_gloss(tokens, vocab, merges, segmentation) for tokens, _, _ in fields]
    records: list[RankRecord] = [None] * len(fields)
    for k, scores in score_batches(checkpoint.model, table, id_lists, [wanted for _, _, wanted in fields]):
        _, correct, wanted = fields[k]
        records[k] = rank_of_correct(scores, table, correct, wanted, item_id=f"{k}:{correct}")
    return summarize(records), records
