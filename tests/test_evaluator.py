"""Ranking and metric tests, with stdlib statistics as the metric oracle."""

import statistics
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from revdict.corpus import CrosswordClue, DefinitionPair, clues_to_pairs, length_histogram
from revdict.embeddings import PretrainedTable, cosine_to_all
from revdict.encoder import DefinitionModel, EncoderMode
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
from revdict.tokenizer import build_word_vocab, encode_gloss


def angled_table(words, cosines_with_x_axis):
    """Unit vectors at chosen cosines to the query direction (1, 0)."""
    rows = [[c, float(np.sqrt(1.0 - c * c))] for c in cosines_with_x_axis]
    return PretrainedTable.from_arrays(words, np.array(rows))


class TestRankOfCorrect:
    def test_self_vector_ranks_first(self):
        table = angled_table(["a", "b", "c"], [0.9, 0.5, 0.1])
        rec = rank_of_correct(cosine_to_all(table.matrix[table.word_to_row["b"]].copy(), table), table, "b")
        assert rec.rank == 1
        assert rec.candidate_count == 3
        assert not rec.excluded

    def test_middle_cosine_ranks_second(self):
        table = angled_table(["a", "b", "c"], [0.9, 0.5, 0.1])
        rec = rank_of_correct(cosine_to_all(np.array([1.0, 0.0]), table), table, "b")
        assert rec.rank == 2

    def test_exact_tie_breaks_lexicographically(self):
        # same direction, different magnitude: cosines tie exactly
        table = PretrainedTable.from_arrays(
            ["cat", "abe", "zoo"], np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, 0.0]])
        )
        rec = rank_of_correct(cosine_to_all(np.array([1.0, 0.5]), table), table, "cat")
        assert rec.rank == 2  # "abe" wins the tie
        rec = rank_of_correct(cosine_to_all(np.array([1.0, 0.5]), table), table, "abe")
        assert rec.rank == 1

    def test_filter_excluding_correct_scores_worst_plus_one(self):
        table = angled_table(["cat", "mouse", "horse"], [0.9, 0.5, 0.1])
        scores = cosine_to_all(np.array([1.0, 0.0]), table, table.candidate_rows(5))
        rec = rank_of_correct(scores, table, "cat", answer_length=5)
        assert rec.excluded
        assert rec.candidate_count == 2
        assert rec.rank == 3

    def test_unknown_correct_word_rejected(self):
        table = angled_table(["a", "b"], [0.9, 0.1])
        with pytest.raises(DataError):
            rank_of_correct(cosine_to_all(np.array([1.0, 0.0]), table), table, "nope")

    def test_scores_must_cover_the_candidates(self):
        # with a length, the scores are those of its span, not of every row
        table = angled_table(["cat", "mouse", "horse"], [0.9, 0.5, 0.1])
        with pytest.raises(ValueError, match=r"\(3,\) scores for 2 candidates"):
            rank_of_correct(cosine_to_all(np.array([1.0, 0.0]), table), table, "mouse", answer_length=5)


def loop_rank_of_correct(y, table, correct, candidate_filter=None, item_id=""):
    """The rank count ``rank_of_correct`` replaced: a filter loop and a zip over the pool."""
    scores = cosine_to_all(y, table)
    if candidate_filter is None:
        pool = np.arange(len(table.words))
    else:
        pool = np.array([i for i, w in enumerate(table.words) if candidate_filter(w)], dtype=np.int64)
    correct_row = table.word_to_row[correct]
    if correct_row not in pool:
        return RankRecord(item_id, len(pool) + 1, len(pool), excluded=True)
    pool_scores = scores[pool]
    correct_score = scores[correct_row]
    greater = int((pool_scores > correct_score).sum())
    tied = [int(i) for i, s in zip(pool, pool_scores) if s == correct_score and i != correct_row]
    tied_before = sum(1 for i in tied if table.words[i] < correct)
    return RankRecord(item_id, 1 + greater + tied_before, len(pool))


def test_rank_count_matches_the_loop(tied_tables):
    excluded = tied = 0
    for table, queries in tied_tables:
        present = list(table.spans)
        for y in queries:
            scores = cosine_to_all(y, table)
            for length in [None, *present, max(present) + 1]:
                keep = None if length is None else (lambda w, n=length: len(w) == n)
                span_scores = cosine_to_all(y, table, table.candidate_rows(length))
                for word in table.words:
                    expected = loop_rank_of_correct(y, table, word, keep, item_id=word)
                    got = rank_of_correct(span_scores, table, word, answer_length=length, item_id=word)
                    assert got == expected, (word, length)
                    excluded += got.excluded
                    tied += np.count_nonzero(scores == scores[table.word_to_row[word]]) > 1
    assert excluded > 0 and tied > 0


def full_table_rank_of_correct(y, words, matrix, correct, answer_length=None):
    """``rank_of_correct`` before rows were kept in length order: the cosines of every row of
    ``matrix``, in any order, and a ``flatnonzero`` over the word lengths for the candidates."""
    qnorm = np.sqrt(y[..., None, :] @ y[..., :, None])[..., 0, 0]
    scores = (y @ matrix.T) / (qnorm[..., None] * np.linalg.norm(matrix, axis=1))
    rows = np.arange(len(words))
    if answer_length is not None:
        rows = np.flatnonzero(np.array([len(w) for w in words]) == answer_length)
    if answer_length is not None and len(correct) != answer_length:
        return RankRecord(correct, rows.size + 1, rows.size, excluded=True)
    pool_scores = scores[rows]
    correct_score = scores[words.index(correct)]
    greater = int(np.count_nonzero(pool_scores > correct_score))
    tied_before = sum(1 for i in rows[pool_scores == correct_score] if words[i] < correct)
    return RankRecord(correct, 1 + greater + tied_before, rows.size)


def test_span_rank_matches_the_full_table_oracle(tied_sources, tied_tables):
    # the shuffled input sorted by from_arrays and scored one span at a time ranks
    # every word as the whole unsorted input scored at once did; each table is also
    # tried without its 3-letter words, so a length is missing between two others
    tied = 0
    for (words, matrix), (_, queries) in zip(tied_sources, tied_tables):
        no_threes = [i for i, w in enumerate(words) if len(w) != 3]
        for words, matrix in ((words, matrix), ([words[i] for i in no_threes], matrix[no_threes])):
            table = PretrainedTable.from_arrays(words, matrix)
            for y in queries:
                for length in [None, *range(max(map(len, words)) + 2)]:
                    rows = table.candidate_rows(length)
                    scores = cosine_to_all(y, table, rows)
                    for word in words:
                        expected = full_table_rank_of_correct(y, words, matrix, word, length)
                        assert rank_of_correct(scores, table, word, length, item_id=word) == expected, (word, length)
                        if not expected.excluded:
                            tied += np.count_nonzero(scores == scores[table.word_to_row[word] - rows.start]) > 1
    assert tied > 0


# scores this close to the correct one may order differently in a batch row
# than in a solo encode, which rounds differently in the last bits
NEAR_TIE = 1e-12


def item_fields(item, mode):
    if mode == "crossword":
        return item.clue, item.answer, item.answer_length
    return item.gloss, item.head, None


def solo_vectors(checkpoint, items, mode):
    """Each item's gloss encoded on its own, with no padding."""
    vectors = []
    for item in items:
        tokens, _, _ = item_fields(item, mode)
        ids = encode_gloss(tokens, checkpoint.vocab, checkpoint.merges, checkpoint.config.segmentation)
        vectors.append(checkpoint.model.encode_ids(np.asarray(ids, dtype=np.int64), np.array([len(ids)])))
    return vectors


def oracle_evaluate(checkpoint, items, mode="definitions"):
    """The evaluate loop the batched scorer replaced: one solo encode and one table GEMV per item."""
    records = []
    for index, (item, y) in enumerate(zip(items, solo_vectors(checkpoint, items, mode))):
        _, correct, wanted = item_fields(item, mode)
        keep = None if wanted is None else (lambda w, n=wanted: len(w) == n)
        records.append(loop_rank_of_correct(y, checkpoint.pretrained, correct, keep, item_id=f"{index}:{correct}"))
    return records


def near_tie_items(checkpoint, items, mode):
    """Indices of items whose correct score is within NEAR_TIE of, but not equal to, a competitor's."""
    near = []
    for index, (item, y) in enumerate(zip(items, solo_vectors(checkpoint, items, mode))):
        _, correct, wanted = item_fields(item, mode)
        table = checkpoint.pretrained
        scores = cosine_to_all(y, table)
        gaps = np.abs(scores[table.candidate_rows(wanted)] - scores[table.word_to_row[correct]])
        if np.any((gaps > 0.0) & (gaps <= NEAR_TIE)):
            near.append(index)
    return near



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
        report = MetricsReport(median_rank=52.5, acc_at_10=0.5, acc_at_100=0.75, rank_variance=2.25)
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


def ranking_world(table, mode, eval_mode, seed, n_items=40, max_len=12):
    """A checkpoint of encoder ``mode`` over ``table`` and n_items seeded test items.

    Glosses have 1 to ``max_len`` tokens, the first one token; half the heads
    are rows with an exact copy in the table, so their scores tie; in
    crossword mode every seventh clue states a wrong answer length.
    """
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(20)]
    vocab = build_word_vocab(Counter(tokens), cap=50)
    model = DefinitionModel.create(
        len(vocab), vocab.pad_id, mode, embed_dim=6, hidden=5, output_dim=table.dimension, seed=seed
    )
    model.lstms[0].b[:] = rng.uniform(-0.5, 0.5, size=model.lstms[0].b.shape)
    ckpt = SimpleNamespace(
        model=model, vocab=vocab, merges=None, pretrained=table, config=SimpleNamespace(segmentation="word")
    )
    directions = table.matrix / table.norms[:, None]
    _, inverse, counts = np.unique(directions, axis=0, return_inverse=True, return_counts=True)
    copied = [word for word, k in zip(table.words, inverse.ravel()) if counts[k] > 1]
    lengths = rng.integers(1, max_len + 1, size=n_items)
    lengths[0] = 1
    items = []
    for k, n in enumerate(lengths):
        head = str(rng.choice(copied if k % 2 else table.words))
        gloss = tuple(str(t) for t in rng.choice(tokens, size=n))
        if eval_mode == "crossword":
            items.append(CrosswordClue(gloss, head, len(head) + (k % 7 == 3), "short"))
        else:
            items.append(DefinitionPair(head=head, gloss=gloss))
    return ckpt, items


@pytest.mark.parametrize("eval_mode", ["definitions", "crossword"])
@pytest.mark.parametrize("mode", list(EncoderMode))
def test_batched_scorer_matches_the_per_item_oracle(tied_tables, mode, eval_mode):
    # 40 items make three length-sorted batches; the records come back in
    # input order and equal the per-item loop's, exact ties included
    near = tied = excluded = 0
    for seed, (table, _) in enumerate(tied_tables):
        ckpt, items = ranking_world(table, mode, eval_mode, seed)
        report, records = evaluate(ckpt, items, mode=eval_mode)
        expected = oracle_evaluate(ckpt, items, eval_mode)
        skip = set(near_tie_items(ckpt, items, eval_mode))
        assert [r for k, r in enumerate(records) if k not in skip] == [
            r for k, r in enumerate(expected) if k not in skip
        ]
        assert report == summarize(expected) or skip
        near += len(skip)
        excluded += sum(r.excluded for r in records)
        for item, y in zip(items, solo_vectors(ckpt, items, eval_mode)):
            scores = cosine_to_all(y, table)
            correct = scores[table.word_to_row[item_fields(item, eval_mode)[1]]]
            tied += np.count_nonzero(scores == correct) > 1
    assert near == 0, f"{near} items within {NEAR_TIE} of a competitor"
    assert tied > 0
    assert excluded > 0 or eval_mode == "definitions"


def test_glosses_are_cut_at_the_training_length(tied_tables):
    # eval ranks a 151-token gloss exactly as its first MAX_GLOSS_LEN = 150
    # tokens, the cut training applies; uncut, the last token moves ranks
    ckpt, items = ranking_world(tied_tables[0][0], "final", "definitions", seed=5, n_items=20, max_len=1)
    ckpt.model.embeddings.matrix *= 40.0  # so each token moves the final state
    rng = np.random.default_rng(6)
    tokens = [f"t{i}" for i in range(20)]
    long_items = [DefinitionPair(head=item.head, gloss=tuple(rng.choice(tokens, size=151).tolist())) for item in items]
    cut_items = [DefinitionPair(head=item.head, gloss=item.gloss[:150]) for item in long_items]
    assert evaluate(ckpt, long_items) == evaluate(ckpt, cut_items)
    assert oracle_evaluate(ckpt, long_items) != oracle_evaluate(ckpt, cut_items)


class TestEvaluate:
    def test_definitions_mode_records_and_report(self):
        ckpt = stub_checkpoint(["cat", "dog", "mouse"])
        items = [
            DefinitionPair(head="cat", gloss=("small", "feline")),
            DefinitionPair(head="mouse", gloss=("small", "animal")),
        ]
        report, records = evaluate(ckpt, items, mode="definitions")
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
            ckpt, clues_to_pairs(clues), mode="definitions"
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
        with pytest.raises(DataError, match="crossword mode needs CrosswordClue items"):
            evaluate(ckpt, [DefinitionPair(head="cat", gloss=("small",))], mode="crossword")
        clue = CrosswordClue(clue=("small",), answer="cat", answer_length=3, category="short")
        with pytest.raises(DataError, match="definitions mode needs DefinitionPair items"):
            evaluate(ckpt, [clue], mode="definitions")

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
