"""Data loading, cleaning, and batching tests."""

import numpy as np
import pytest

from revdict.corpus import (
    CrosswordClue,
    DefinitionPair,
    EncodedPair,
    MAX_GLOSS_LEN,
    bucket_and_batch,
    clean_crosswords,
    clues_to_pairs,
    length_histogram,
    load_crossword_csv,
    load_definitions,
    make_buckets,
    normalize_text,
    pad_minibatch,
    save_definitions,
    save_histogram,
    split_long_short,
    tokenize,
)
from revdict.errors import ConfigError, DataError


class TestNormalize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("The Cat's  paw!") == ["the", "cats", "paw"]

    def test_keeps_digits(self):
        assert normalize_text("Route 66, remembered") == "route 66 remembered"

    def test_collapses_whitespace_and_tabs(self):
        assert normalize_text("  a\tb c ") == "a b c"
        assert tokenize("  a\tb   c ") == ["a", "b", "c"]

    def test_tokenize(self):
        assert tokenize("Give way; yield!") == ["give", "way", "yield"]
        assert tokenize("???") == []


class TestDefinitionsIO:
    def test_load_parses_and_rejects(self, tmp_path):
        path = tmp_path / "defs.tsv"
        path.write_text(
            "valve\tdevice that controls the flow of a fluid\n"
            "\n"
            "no tab line\n"
            "two words\ta gloss\n"
            "blank\t...\n"
            "Dog!\tA domestic animal.\n"
        )
        pairs, rejected = load_definitions(path)
        assert rejected == 3
        assert pairs[0] == DefinitionPair(
            head="valve", gloss=("device", "that", "controls", "the", "flow", "of", "a", "fluid")
        )
        assert pairs[1].head == "dog"
        assert pairs[1].gloss == ("a", "domestic", "animal")

    def test_round_trip(self, tmp_path):
        pairs = [DefinitionPair(head="cat", gloss=("small", "feline"))]
        path = tmp_path / "defs.tsv"
        save_definitions(path, pairs)
        assert path.read_text() == "cat\tsmall feline\n"
        loaded, rejected = load_definitions(path)
        assert loaded == pairs and rejected == 0


class TestCrosswordIO:
    def test_load_requires_header(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text("hint,word\nx,y\n")
        with pytest.raises(DataError):
            load_crossword_csv(path)

    def test_load_handles_quoted_commas(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text('clue,answer\n"Lincoln, for one",president\n\nsmall feline,cat\n')
        rows = load_crossword_csv(path)  # the blank line is skipped
        assert rows == [("Lincoln, for one", "president"), ("small feline", "cat")]

    def test_load_rejects_short_rows(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text("clue,answer\nonlyclue\n")
        with pytest.raises(DataError):
            load_crossword_csv(path)


class TestCleanCrosswords:
    def test_drops_duplicates_multiword_and_empty(self):
        raw = [
            ("Feline pet", "cat"),
            ("feline PET!", "Cat"),  # duplicate after normalization
            ("Two word answer", "new york"),
            ("???", "dog"),
            ("Clue with empty answer", "!!"),
        ]
        clues, stats = clean_crosswords(raw)
        assert [c.answer for c in clues] == ["cat"]
        assert stats.duplicates == 1
        assert stats.multiword_answers == 1
        assert stats.empty == 2
        assert stats.dropped == 4

    def test_idempotent(self):
        raw = [("Feline pet", "cat"), ("feline pet", "cat"), ("Canine", "dog")]
        clues, _ = clean_crosswords(raw)
        again, stats = clean_crosswords([(" ".join(c.clue), c.answer) for c in clues])
        assert again == clues
        assert stats.dropped == 0

    def test_category_boundary(self):
        clues, _ = clean_crosswords(
            [("one two three four", "short4"), ("one two three four five", "long5")]
        )
        by_answer = {c.answer: c for c in clues}
        assert by_answer["short4"].category == "short"
        assert by_answer["long5"].category == "long"

    def test_answer_length_counts_characters(self):
        clues, _ = clean_crosswords([("Capital of France", "Paris")])
        assert clues[0].answer_length == 5

    def test_split_and_pairs(self):
        clues, _ = clean_crosswords(
            [("one two three four five", "a"), ("tiny clue", "b")]
        )
        long_clues, short_clues = split_long_short(clues)
        assert [c.answer for c in long_clues] == ["a"]
        assert [c.answer for c in short_clues] == ["b"]
        pairs = clues_to_pairs(short_clues)
        assert pairs == [DefinitionPair(head="b", gloss=("tiny", "clue"))]


class TestPadMinibatch:
    def test_pads_to_longest(self):
        batch = pad_minibatch([[1, 2, 3], [4]], pad_id=9)
        assert batch.token_ids.tolist() == [[1, 2, 3], [4, 9, 9]]
        assert batch.lengths.tolist() == [3, 1]
        assert batch.head_ids.tolist() == [-1, -1]

    def test_truncates_to_first_cap_tokens(self):
        batch = pad_minibatch([list(range(MAX_GLOSS_LEN + 5))], pad_id=-2)
        assert batch.token_ids.tolist() == [list(range(MAX_GLOSS_LEN))]
        assert batch.lengths.tolist() == [MAX_GLOSS_LEN]

    def test_row_count_limits(self):
        with pytest.raises(ValueError):
            pad_minibatch([], pad_id=0)
        with pytest.raises(ValueError):
            pad_minibatch([[1]] * 17, pad_id=0)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            pad_minibatch([[1], []], pad_id=0)


def toy_pairs(n, rng):
    return [
        EncodedPair(head_id=i, gloss_ids=tuple(int(x) for x in rng.integers(0, 50, size=int(rng.integers(1, 12)))))
        for i in range(n)
    ]


class TestBucketing:
    def test_buckets_sorted_by_length_and_deterministic(self):
        rng = np.random.default_rng(7)
        pairs = toy_pairs(100, rng)
        buckets = make_buckets(pairs, bucket_size=32, shuffle_seed=3)
        assert [len(b) for b in buckets] == [32, 32, 32, 4]
        for bucket in buckets:
            lens = [len(p.gloss_ids) for p in bucket]
            assert lens == sorted(lens)
        again = make_buckets(pairs, bucket_size=32, shuffle_seed=3)
        assert again == buckets
        assert make_buckets(pairs, bucket_size=32, shuffle_seed=4) != buckets

    def test_batches_cover_all_pairs_once(self):
        rng = np.random.default_rng(11)
        pairs = toy_pairs(70, rng)
        batches = bucket_and_batch(pairs, pad_id=99, bucket_size=32, minibatch=8, shuffle_seed=0)
        assert all(b.lengths.size <= 8 for b in batches)
        seen = sorted(h for b in batches for h in b.head_ids.tolist())
        assert seen == list(range(70))

    def test_minibatch_must_divide_bucket(self):
        with pytest.raises(ConfigError):
            bucket_and_batch([], pad_id=0, bucket_size=10, minibatch=3)
        with pytest.raises(ConfigError):
            bucket_and_batch([], pad_id=0, bucket_size=4, minibatch=8)
        with pytest.raises(ConfigError):
            bucket_and_batch([], pad_id=0, bucket_size=4, minibatch=0)


class TestHistogram:
    def test_token_and_character_units(self):
        glosses = [("a", "b"), ("c",)]
        assert length_histogram(glosses, unit="tokens") == {2: 1, 1: 1}
        words = ["cat", "mouse", "dog"]
        assert length_histogram(words, unit="characters") == {3: 2, 5: 1}

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            length_histogram([], unit="bytes")

    def test_save_ascending(self, tmp_path):
        path = tmp_path / "hist.tsv"
        save_histogram(path, {5: 1, 3: 2})
        assert path.read_text() == "3\t2\n5\t1\n"
