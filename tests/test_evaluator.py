"""Ranking and metric tests, with stdlib statistics as the metric oracle."""

import statistics
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from revdict.corpus import CrosswordClue, DefinitionPair, clues_to_pairs, length_histogram
from revdict.embeddings import PretrainedTable, cosine_to_all
from revdict.encoder import DefinitionModel
from revdict.errors import DataError
from revdict.evaluator import (
    MetricsReport,
    RankRecord,
    accuracy_at_k,
    evaluate,
    format_summary,
    length_filter,
    median_rank,
    rank_of_correct,
    rank_variance,
    summarize,
    write_rank_records,
)
from revdict.tokenizer import build_word_vocab


def angled_table(words, cosines_with_x_axis):
    """Unit vectors at chosen cosines to the query direction (1, 0)."""
    rows = [[c, float(np.sqrt(1.0 - c * c))] for c in cosines_with_x_axis]
    return PretrainedTable.from_arrays(words, np.array(rows))


class TestRankOfCorrect:
    def test_self_vector_ranks_first(self):
        table = angled_table(["a", "b", "c"], [0.9, 0.5, 0.1])
        rec = rank_of_correct(table.lookup("b").copy(), table, "b")
        assert rec.rank == 1
        assert rec.candidate_count == 3
        assert not rec.filtered and not rec.excluded

    def test_middle_cosine_ranks_second(self):
        table = angled_table(["a", "b", "c"], [0.9, 0.5, 0.1])
        rec = rank_of_correct(np.array([1.0, 0.0]), table, "b")
        assert rec.rank == 2

    def test_exact_tie_breaks_lexicographically(self):
        # same direction, different magnitude: cosines tie exactly
        table = PretrainedTable.from_arrays(
            ["cat", "abe", "zoo"], np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, 0.0]])
        )
        rec = rank_of_correct(np.array([1.0, 0.5]), table, "cat")
        assert rec.rank == 2  # "abe" wins the tie
        rec = rank_of_correct(np.array([1.0, 0.5]), table, "abe")
        assert rec.rank == 1

    def test_filter_excluding_correct_scores_worst_plus_one(self):
        table = angled_table(["cat", "mouse", "horse"], [0.9, 0.5, 0.1])
        rec = rank_of_correct(np.array([1.0, 0.0]), table, "cat", answer_length=5)
        assert rec.excluded
        assert rec.candidate_count == 2
        assert rec.rank == 3
        assert rec.filtered

    def test_unknown_correct_word_rejected(self):
        table = angled_table(["a", "b"], [0.9, 0.1])
        with pytest.raises(DataError):
            rank_of_correct(np.array([1.0, 0.0]), table, "nope")


def loop_rank_of_correct(y, table, correct, candidate_filter=None, item_id=""):
    """The rank count ``rank_of_correct`` replaced: a filter loop and a zip over the pool."""
    scores = cosine_to_all(y, table)
    if candidate_filter is None:
        pool = np.arange(len(table.words))
    else:
        pool = np.array([i for i, w in enumerate(table.words) if candidate_filter(w)], dtype=np.int64)
    correct_row = table.word_to_row[correct]
    filtered = candidate_filter is not None
    if correct_row not in pool:
        return RankRecord(item_id, len(pool) + 1, len(pool), filtered=filtered, excluded=True)
    pool_scores = scores[pool]
    correct_score = scores[correct_row]
    greater = int((pool_scores > correct_score).sum())
    tied = [int(i) for i, s in zip(pool, pool_scores) if s == correct_score and i != correct_row]
    tied_before = sum(1 for i in tied if table.words[i] < correct)
    return RankRecord(item_id, 1 + greater + tied_before, len(pool), filtered=filtered)


def test_rank_count_matches_the_loop(tied_tables):
    excluded = tied = 0
    for table, queries in tied_tables:
        present = sorted(set(table.word_lengths.tolist()))
        for y in queries:
            scores = cosine_to_all(y, table)
            for length in [None, *present, max(present) + 1]:
                keep = None if length is None else (lambda w, n=length: len(w) == n)
                for word in table.words:
                    expected = loop_rank_of_correct(y, table, word, keep, item_id=word)
                    got = rank_of_correct(y, table, word, answer_length=length, item_id=word)
                    assert got == expected, (word, length)
                    excluded += got.excluded
                    tied += np.count_nonzero(scores == scores[table.word_to_row[word]]) > 1
    assert excluded > 0 and tied > 0


class TestLengthFilter:
    def test_exact_character_count(self):
        table = angled_table(["cat", "dog", "mouse"], [0.9, 0.5, 0.1])
        assert length_filter(table, 3) == ["cat", "dog"]
        assert length_filter(table, 9) == []
        with pytest.raises(ValueError):
            length_filter(table, 0)

    def test_sizes_match_character_histogram(self):
        words = ["cat", "dog", "mouse", "horse", "bee", "ox"]
        table = angled_table(words, [0.9, 0.7, 0.5, 0.3, 0.1, 0.0])
        hist = length_histogram(words, unit="characters")
        for length, count in hist.items():
            assert len(length_filter(table, length)) == count


class TestMetrics:
    def test_median_examples(self):
        assert median_rank([1, 5, 100]) == 5.0
        assert median_rank([4, 5, 100, 200]) == 52.5
        assert median_rank([7]) == 7.0

    def test_accuracy_and_variance_examples(self):
        assert accuracy_at_k([1, 11], 10) == 0.5
        assert rank_variance([3, 3, 3]) == 0.0
        assert rank_variance([1, 3]) == 1.0

    def test_empty_inputs_rejected(self):
        for fn in (median_rank, lambda r: accuracy_at_k(r, 10), rank_variance):
            with pytest.raises(ValueError):
                fn([])

    def test_matches_stdlib_oracle_on_random_lists(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            ranks = [int(r) for r in rng.integers(1, 500, size=n)]
            assert median_rank(ranks) == statistics.median(ranks)
            assert accuracy_at_k(ranks, 10) == sum(r <= 10 for r in ranks) / n
            mean = sum(ranks) / n
            assert rank_variance(ranks) == pytest.approx(
                sum((r - mean) ** 2 for r in ranks) / n, rel=1e-12
            )

    def test_summary_order_invariant_and_consistent(self):
        records = [RankRecord(item_id=str(i), rank=r, candidate_count=50) for i, r in enumerate([9, 1, 40, 2])]
        a = summarize(records)
        b = summarize(list(reversed(records)))
        assert (a.median_rank, a.acc_at_10, a.acc_at_100, a.rank_variance) == (
            b.median_rank, b.acc_at_10, b.acc_at_100, b.rank_variance
        )
        assert a.acc_at_10 <= a.acc_at_100

    def test_format_summary_exact(self):
        report = MetricsReport(
            median_rank=52.5, acc_at_10=0.5, acc_at_100=0.75, rank_variance=2.25, n_items=4
        )
        assert (
            format_summary(report)
            == "median_rank=52.5 acc@10=0.5 acc@100=0.75 rank_variance=2.25"
        )


def stub_checkpoint(words, out_dim=6, seed=0, gloss_tokens=("small", "feline", "animal", "big")):
    rng = np.random.default_rng(seed)
    table = PretrainedTable.from_arrays(words, rng.normal(size=(len(words), out_dim)))
    vocab = build_word_vocab(Counter(gloss_tokens), cap=50)
    model = DefinitionModel.create(
        len(vocab), vocab.pad_id, "average", embed_dim=5, hidden=4, output_dim=out_dim, seed=seed
    )
    config = SimpleNamespace(segmentation="word")
    return SimpleNamespace(
        model=model, vocab=vocab, merges=None, pretrained=table, config=config
    )


class TestEvaluate:
    def test_definitions_mode_records_and_report(self):
        ckpt = stub_checkpoint(["cat", "dog", "mouse"])
        items = [
            DefinitionPair(head="cat", gloss=("small", "feline")),
            DefinitionPair(head="mouse", gloss=("small", "animal")),
        ]
        report, records = evaluate(ckpt, items, mode="definitions")
        assert report.n_items == 2
        assert [r.item_id for r in records] == ["0:cat", "1:mouse"]
        assert all(r.candidate_count == 3 for r in records)
        assert all(1 <= r.rank <= 3 for r in records)
        assert report.median_rank == median_rank([r.rank for r in records])

    def test_crossword_filter_never_hurts(self):
        words = ["cat", "dog", "bee", "mouse", "horse", "liner"]
        ckpt = stub_checkpoint(words)
        clues = [
            CrosswordClue(clue=("small", "feline"), answer="cat", answer_length=3, category="short"),
            CrosswordClue(clue=("big", "animal"), answer="horse", answer_length=5, category="short"),
            CrosswordClue(clue=("small", "animal", "big"), answer="bee", answer_length=3, category="short"),
        ]
        filtered_report, filtered_records = evaluate(ckpt, clues, mode="crossword")
        plain_report, plain_records = evaluate(
            ckpt, clues_to_pairs(clues, source="test"), mode="definitions"
        )
        for filt, plain in zip(filtered_records, plain_records):
            assert not filt.excluded
            assert filt.rank <= plain.rank
        assert filtered_report.median_rank <= plain_report.median_rank
        hist = length_histogram(words, unit="characters")
        for rec, clue in zip(filtered_records, clues):
            assert rec.candidate_count == hist[clue.answer_length]

    def test_single_item_median_and_variance(self):
        ckpt = stub_checkpoint(["cat", "dog"])
        report, _ = evaluate(ckpt, [DefinitionPair(head="dog", gloss=("animal",))])
        assert report.rank_variance == 0.0
        assert report.median_rank in (1.0, 2.0)

    def test_bad_inputs_rejected(self):
        ckpt = stub_checkpoint(["cat", "dog"])
        with pytest.raises(DataError):
            evaluate(ckpt, [], mode="definitions")
        with pytest.raises(ValueError):
            evaluate(ckpt, [DefinitionPair(head="cat", gloss=("small",))], mode="ranked")
        with pytest.raises(DataError):
            evaluate(ckpt, [DefinitionPair(head="emu", gloss=("small",))])
        with pytest.raises(DataError):
            evaluate(ckpt, [DefinitionPair(head="cat", gloss=("small",))], mode="crossword")

    def test_write_rank_records(self, tmp_path):
        path = tmp_path / "ranks.tsv"
        write_rank_records(
            path,
            [
                RankRecord(item_id="0:cat", rank=2, candidate_count=10),
                RankRecord(item_id="1:dog", rank=1, candidate_count=10),
            ],
        )
        assert path.read_text() == "0:cat\t2\t10\n1:dog\t1\t10\n"
