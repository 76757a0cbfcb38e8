"""Tokenizer tests: vocab construction and BPE against brute-force and replay oracles."""

import heapq
import itertools
from collections import Counter

import numpy as np
import pytest

from revdict import tokenizer
from revdict.errors import DataError
from revdict.tokenizer import (
    END_MARKER,
    MergeTable,
    WordVocab,
    _initial_symbols,
    _merge_symbols,
    apply_bpe,
    build_word_vocab,
    encode_gloss,
    learn_bpe,
    render_subwords,
    segment_tokens,
    segment_word,
    unsegment_text,
)


def oracle_learn_bpe(word_freqs, num_merges):
    """Reference BPE learner: recounts every pair from scratch each round.

    Kept deliberately naive and structurally different from the library
    implementation (no incremental bookkeeping, list surgery instead of a
    rebuild pass) so the two can disagree if either is wrong.
    """
    corpus = []
    for word, freq in word_freqs.items():
        pieces = list(word)
        pieces[-1] = pieces[-1] + "#"
        corpus.append((pieces, freq))

    merges = []
    while len(merges) < num_merges:
        counts = {}
        for pieces, freq in corpus:
            for i in range(len(pieces) - 1):
                key = (pieces[i], pieces[i + 1])
                counts[key] = counts.get(key, 0) + freq
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        pick = sorted(k for k, v in counts.items() if v == top)[0]
        merges.append(pick)
        for pieces, _ in corpus:
            i = 0
            while i < len(pieces) - 1:
                if pieces[i] == pick[0] and pieces[i + 1] == pick[1]:
                    pieces[i : i + 2] = [pieces[i] + pieces[i + 1]]
                i += 1
    return merges, corpus


def scan_learn_bpe(word_frequencies, num_merges):
    """Reference learner: the library's incremental pair counts, but each merge
    picked by a scan over every pair count (highest count, then smallest pair)."""
    words = [_initial_symbols(w) for w in word_frequencies]
    freqs = [int(word_frequencies[w]) for w in word_frequencies]

    pair_counts = Counter()
    where = {}
    for idx, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freqs[idx]
            where.setdefault(pair, set()).add(idx)

    merges = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(best)

        for idx in sorted(where.get(best, ())):
            old = words[idx]
            new = _merge_symbols(old, best)
            if new == old:
                continue
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= freqs[idx]
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                occupants = where.get(pair)
                if occupants is not None:
                    occupants.discard(idx)
                    if not occupants:
                        del where[pair]
            for pair in zip(new, new[1:]):
                pair_counts[pair] += freqs[idx]
                where.setdefault(pair, set()).add(idx)
            words[idx] = new
    return merges


def replay_apply_bpe(word, table):
    """Segment by replaying every merge of the table in order."""
    symbols = _initial_symbols(word)
    for pair in table.merges:
        if len(symbols) == 1:
            break
        symbols = _merge_symbols(symbols, pair)
    return list(symbols)


def criterion_corpus(rng):
    """Drawn like acceptance criterion 2: 2-5 letters, 1-100 words of 1-8 letters."""
    alphabet = list("abcde"[: int(rng.integers(2, 6))])
    freqs = {}
    for _ in range(int(rng.integers(1, 101))):
        word = "".join(rng.choice(alphabet, size=int(rng.integers(1, 9))))
        freqs[word] = freqs.get(word, 0) + int(rng.integers(1, 21))
    return freqs


def tie_corpus(rng):
    """Two letters and frequencies 1-2, so most pair counts tie with another."""
    freqs = {}
    for _ in range(int(rng.integers(5, 61))):
        word = "".join(rng.choice(["a", "b"], size=int(rng.integers(1, 11))))
        freqs[word] = int(rng.integers(1, 3))
    return freqs


ORACLE_CORPORA = [("criterion", seed, criterion_corpus) for seed in range(25)] + [
    ("ties", seed, tie_corpus) for seed in range(25)
]


def strings_over(letters, max_len):
    for length in range(1, max_len + 1):
        for chars in itertools.product(letters, repeat=length):
            yield "".join(chars)


def random_corpus(rng, max_words=40, max_letters=5, max_len=7):
    letters = "abcde"[:max_letters]
    n_words = int(rng.integers(1, max_words + 1))
    freqs = {}
    for _ in range(n_words):
        length = int(rng.integers(1, max_len + 1))
        word = "".join(letters[int(rng.integers(len(letters)))] for _ in range(length))
        freqs[word] = int(rng.integers(1, 20))
    return freqs


class TestWordVocab:
    def test_build_orders_by_frequency_then_token(self):
        vocab = build_word_vocab({"b": 3, "a": 3, "c": 5}, cap=10)
        assert vocab.id_to_token == ["c", "a", "b", "<unk>", "<pad>"]
        assert vocab.unk_id == 3 and vocab.pad_id == 4

    def test_cap_keeps_lexicographically_first_on_ties(self):
        vocab = build_word_vocab({"x": 2, "y": 2}, cap=1)
        assert vocab.id_to_token == ["x", "<unk>", "<pad>"]

    def test_encode_maps_unknown_to_unk(self):
        vocab = build_word_vocab({"cat": 4, "dog": 2}, cap=10)
        assert vocab.encode(["dog", "emu", "cat"]) == [1, vocab.unk_id, 0]

    def test_save_writes_one_token_and_id_per_line(self, tmp_path):
        vocab = build_word_vocab({"cat": 4, "dog": 2, "emu": 1}, cap=2)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert rows == [[token, str(i)] for i, token in enumerate(vocab.id_to_token)]
        assert rows[0] == ["cat", "0"]

    def test_ids_are_derived_from_the_token_list(self):
        vocab = WordVocab(["<pad>", "cat", "<unk>"])
        assert vocab.token_to_id == {"<pad>": 0, "cat": 1, "<unk>": 2}
        assert (vocab.pad_id, vocab.unk_id) == (0, 2)

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (["cat", "<unk>"], "vocabulary has no <pad>"),
            (["cat", "<pad>"], "vocabulary has no <unk>"),
            (["cat", "<unk>", "cat", "<pad>"], "vocabulary lists a token twice"),
        ],
        ids=["no-pad", "no-unk", "repeat"],
    )
    def test_constructor_refuses_a_broken_token_list(self, tokens, message):
        with pytest.raises(DataError) as built:
            WordVocab(tokens)
        assert str(built.value) == message


class TestLearnBpe:
    def test_worked_example(self):
        # abc x3, abd x2: (a,b)=5 wins, then (ab,c#)=3, then (ab,d#)=2
        table = learn_bpe({"abc": 3, "abd": 2}, num_merges=10)
        assert table.merges == [("a", "b"), ("ab", "c#"), ("ab", "d#")]

    def test_tie_breaks_toward_earliest_pair(self):
        table = learn_bpe({"ab": 2, "xy": 2}, num_merges=1)
        assert table.merges == [("a", "b#")]

    def test_stops_below_count_two(self):
        table = learn_bpe({"ab": 1, "cd": 1}, num_merges=10)
        assert table.merges == []

    def test_num_merges_limits_table(self):
        table = learn_bpe({"abc": 3, "abd": 2}, num_merges=1)
        assert table.merges == [("a", "b")]

    def test_single_character_words(self):
        table = learn_bpe({"a": 5}, num_merges=10)
        assert table.merges == []
        assert apply_bpe("a", table) == ["a#"]

    def test_repeated_letters_count_every_position(self):
        # "aaaa" = (a, a, a, a#) has two (a,a) positions, so a single
        # occurrence already reaches count 2; per-word counting would not
        table = learn_bpe({"aaaa": 1}, num_merges=1)
        assert table.merges == [("a", "a")]

    def test_word_with_marker_rejected(self):
        with pytest.raises(ValueError):
            learn_bpe({"a#b": 1}, num_merges=1)

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            freqs = random_corpus(rng)
            n_merges = int(rng.integers(0, 30))
            expect, state = oracle_learn_bpe(freqs, n_merges)
            table = learn_bpe(freqs, num_merges=n_merges)
            assert table.merges == expect
            # replaying the table reproduces the oracle's final word states
            for (pieces, _), word in zip(state, freqs):
                assert apply_bpe(word, table) == pieces

    def test_subword_inventory_bound(self):
        rng = np.random.default_rng(99)
        freqs = random_corpus(rng, max_words=40)
        table = learn_bpe(freqs, num_merges=25)
        initial = set()
        for word in freqs:
            initial.update(word[:-1])
            initial.add(word[-1] + "#")
        seen = set()
        for word in freqs:
            seen.update(apply_bpe(word, table))
        assert len(seen) <= len(initial) + len(table)


class TestIndexedLearner:
    @pytest.mark.parametrize("kind,seed,draw", ORACLE_CORPORA, ids=[f"{k}-{s}" for k, s, _ in ORACLE_CORPORA])
    def test_equals_scan_learner_and_replay(self, kind, seed, draw):
        freqs = draw(np.random.default_rng([seed, 0 if kind == "criterion" else 1]))
        table = learn_bpe(freqs, num_merges=10_000)
        assert table.merges == scan_learn_bpe(freqs, 10_000)
        for word in freqs:
            assert apply_bpe(word, table) == replay_apply_bpe(word, table)

    def test_merge_cap_cuts_the_same_prefix(self):
        freqs = tie_corpus(np.random.default_rng(3))
        full = scan_learn_bpe(freqs, 10_000)
        assert len(full) > 5
        for n in (0, 1, 2, len(full) // 2, len(full)):
            assert learn_bpe(freqs, num_merges=n).merges == full[:n]

    def test_heap_is_rebuilt_and_still_exact(self, monkeypatch):
        # the tie corpora leave many stale entries, so the heap outgrows twice
        # the live pairs and is rebuilt from the counts
        calls = []
        heapify = heapq.heapify
        monkeypatch.setattr(tokenizer.heapq, "heapify", lambda h: calls.append(len(h)) or heapify(h))
        freqs = tie_corpus(np.random.default_rng(7))
        assert learn_bpe(freqs, num_merges=10_000).merges == scan_learn_bpe(freqs, 10_000)
        assert len(calls) > 1


HAND_TABLE = MergeTable(
    merges=[("b", "c"), ("a", "b"), ("ab", "c"), ("a", "bc"), ("a", "b"), ("abc", "c#")]
)


class TestSkipReplay:
    def test_ranks_index_every_occurrence(self):
        assert HAND_TABLE.ranks[("a", "b")] == [1, 4]
        assert HAND_TABLE.ranks[("abc", "c#")] == [5]
        assert len(HAND_TABLE.ranks) == 5
        assert HAND_TABLE == MergeTable(merges=list(HAND_TABLE.merges))

    def test_table_cannot_be_edited_after_its_index_is_built(self):
        # the table copies the caller's list: a merge appended to that list
        # afterwards would be missing from ranks, and apply_bpe would skip it
        merges = [("a", "b#")]
        table = MergeTable(merges=merges)
        merges.append(("x", "y"))
        assert table.merges == [("a", "b#")] and [("a", "b#")] == table.merges
        assert not table.merges != [("a", "b#")]
        assert table.merges != [("a", "b")] and table.merges != [("a", "b#"), ("x", "y")]
        assert apply_bpe("ab", table) == ["ab#"]

    def test_hand_table_equals_replay_on_every_short_string(self):
        # (ab,c) and (a,bc) both emit abc, and (a,b) comes twice: tables a
        # rank-ordered segmenter could not handle without a replay fallback
        for word in strings_over("abc", 6):
            assert apply_bpe(word, HAND_TABLE) == replay_apply_bpe(word, HAND_TABLE), word

    def test_random_tables_equal_replay(self):
        # pairs are drawn from every short string, not only from symbols an
        # earlier merge emits, so a merge often creates the pair of one whose
        # turn has passed: replay must not run that one, and neither may we
        rng = np.random.default_rng(17)
        lefts = list(strings_over("abc", 2))
        rights = lefts + [s + END_MARKER for s in lefts]
        for _ in range(60):
            merges = [
                (lefts[int(rng.integers(len(lefts)))], rights[int(rng.integers(len(rights)))])
                for _ in range(int(rng.integers(1, 16)))
            ]
            table = MergeTable(merges=merges)
            for word in strings_over("abc", 5):
                assert apply_bpe(word, table) == replay_apply_bpe(word, table), (merges, word)

    def test_segments_long_words_of_one_letter(self):
        table = MergeTable(merges=[("a", "a"), ("aa", "a#"), ("aa", "aa"), ("a", "a")])
        for n in range(1, 20):
            assert apply_bpe("a" * n, table) == replay_apply_bpe("a" * n, table)


class TestApplyBpe:
    def test_replays_merges_on_unseen_word(self):
        table = MergeTable(merges=[("a", "b"), ("ab", "c#"), ("ab", "d#")])
        assert apply_bpe("abcd", table) == ["ab", "c", "d#"]
        assert apply_bpe("abd", table) == ["abd#"]
        assert apply_bpe("zz", table) == ["z", "z#"]

    def test_a_merge_never_runs_after_its_turn(self):
        # (a,b) emits ab after (ab,c#) had its turn, so abc stays two pieces
        table = MergeTable(merges=[("ab", "c#"), ("a", "b")])
        assert apply_bpe("abc", table) == ["ab", "c#"]

    def test_left_to_right_no_remerge_within_pass(self):
        table = MergeTable(merges=[("a", "a")])
        assert apply_bpe("aaa", table) == ["aa", "a#"]
        assert apply_bpe("aaaa", table) == ["aa", "a", "a#"]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            apply_bpe("", MergeTable())


class TestSerialization:
    def test_render_marks_continuations(self):
        assert render_subwords(["ab", "d#"]) == ["ab@@", "d"]
        assert render_subwords(["abd#"]) == ["abd"]
        assert render_subwords([]) == []

    def test_segment_word(self):
        table = MergeTable(merges=[("a", "b")])
        assert segment_word("abd", table) == ["ab@@", "d"]

    def test_segment_tokens_round_trip(self):
        table = learn_bpe({"commencing": 2, "combat": 2, "coming": 2}, num_merges=4)
        tokens = ["commencing", "combat"]
        pieces = segment_tokens(tokens, table)
        assert all("#" not in p for p in pieces)
        assert unsegment_text(" ".join(pieces)) == " ".join(tokens)

    def test_merge_table_save_load(self, tmp_path):
        table = learn_bpe({"abc": 3, "abd": 2}, num_merges=10)
        path = tmp_path / "merges.txt"
        table.save(path)
        assert path.read_text().splitlines()[0] == "a b"
        loaded = MergeTable.load(path)
        assert loaded.merges == table.merges
        path.write_text(path.read_text() + "\n")  # a blank line is skipped
        assert MergeTable.load(path).merges == table.merges

    def test_merge_table_load_rejects_bad_line(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("a b c\n")
        with pytest.raises(DataError):
            MergeTable.load(path)


class TestEncodeGloss:
    def test_segments_under_bpe_only(self):
        table = MergeTable(merges=[("a", "b")])
        vocab = WordVocab(["ab@@", "d", "abd", "<unk>", "<pad>"])
        assert encode_gloss(["abd"], vocab) == [2]
        assert encode_gloss(["abd"], vocab, table, "bpe") == [0, 1]

    def test_bpe_needs_a_table_and_the_segmentation_must_be_known(self):
        vocab = WordVocab(["<unk>", "<pad>"])
        with pytest.raises(DataError, match="bpe segmentation requested but no merge table given"):
            encode_gloss(["abd"], vocab, None, "bpe")
        with pytest.raises(ValueError, match="unknown segmentation 'chars'"):
            encode_gloss(["abd"], vocab, MergeTable(), "chars")
