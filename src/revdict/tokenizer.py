"""Word vocabulary with UNK/PAD and byte-pair-encoding subword segmentation.

BPE here works on whole words: each word starts as its characters with a
word-final marker fused onto the last character ("dogs" -> d o g s#), and
the most frequent adjacent symbol pair is merged repeatedly.  Count ties
prefer the alphabetically earliest left symbol, then the earliest right
symbol; the learner finds that pair with a max-heap of (-count, pair)
whose stale entries are dropped when they surface.  A merge rewrites each
word holding its pair in one left-to-right pass and moves only the counts
of the pairs beside each merged occurrence, as Sennrich et al.'s
reference learner does.

A word is segmented as if every merge of the table were replayed on it in
order, but only the merges that change it are run ("skip-replay"): the
table indexes each pair to its ascending ranks, and the next merge to run
is the lowest rank above the last one run among the word's current
adjacent pairs.  A skipped merge is one whose pair is absent when its turn
comes, which replay would leave as a no-op, so the result equals replay
for every table, including tables that emit one symbol from two different
pairs or list a pair twice.  Segmented words are rendered with a trailing
"@@" on every non-final subword, e.g. "commencing" -> "comm@@ en@@ cing".
``segment_distinct`` segments each distinct word of a text once.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DataError, decoding

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
END_MARKER = "#"
CONTINUATION = "@@"

WORD_VOCAB_CAP = 100_000
BPE_MERGES = 10_000


@dataclass
class WordVocab:
    """Dense token<->id maps; ``token_to_id`` and the UNK and PAD ids are derived from ``id_to_token``."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)
    unk_id: int = field(init=False)
    pad_id: int = field(init=False)

    def __post_init__(self) -> None:
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary lists a token twice")
        for token in (UNK_TOKEN, PAD_TOKEN):
            if token not in self.token_to_id:
                raise DataError(f"vocabulary has no {token}")
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self.pad_id = self.token_to_id[PAD_TOKEN]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids, sending out-of-vocabulary tokens to UNK."""
        return [self.token_to_id.get(tok, self.unk_id) for tok in tokens]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for idx, token in enumerate(self.id_to_token):
                handle.write(f"{token}\t{idx}\n")


def build_word_vocab(frequencies: Mapping[str, int], cap: int = WORD_VOCAB_CAP) -> WordVocab:
    """Keep the ``cap`` most frequent tokens (ties lexicographic), add UNK and PAD."""
    ranked = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
    return WordVocab([token for token, _ in ranked[:cap]] + [UNK_TOKEN, PAD_TOKEN])


@dataclass
class MergeTable:
    """Ordered sequence of learned BPE merges.

    ``ranks`` maps each pair to the ascending ranks (positions) it has in
    ``merges``.  The constructor copies the list it is given, so a caller
    that edits its own list afterwards cannot make the index stale.
    """

    merges: list[tuple[str, str]] = field(default_factory=list)
    ranks: dict[tuple[str, str], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.merges = list(self.merges)
        self.ranks = {}
        for rank, pair in enumerate(self.merges):
            self.ranks.setdefault(pair, []).append(rank)

    def __len__(self) -> int:
        return len(self.merges)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for left, right in self.merges:
                handle.write(f"{left} {right}\n")

    @classmethod
    def load(cls, path: str | Path) -> "MergeTable":
        merges: list[tuple[str, str]] = []
        with open(path, encoding="utf-8") as handle, decoding(path):
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != 2:
                    raise DataError(f"{path}: bad merge line {line!r}")
                merges.append((parts[0], parts[1]))
        return cls(merges=merges)


def _initial_symbols(word: str) -> tuple[str, ...]:
    if not word:
        raise ValueError("cannot segment an empty word")
    if END_MARKER in word:
        raise ValueError(f"word {word!r} contains the end marker {END_MARKER!r}")
    return tuple(word[:-1]) + (word[-1] + END_MARKER,)


def _merge_symbols(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    # single left-to-right pass; a fused symbol is not re-merged in this pass
    merged: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            merged.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return tuple(merged)


def learn_bpe(word_frequencies: Mapping[str, int], num_merges: int = BPE_MERGES) -> MergeTable:
    """Learn a merge table from word frequencies.

    Each step merges the adjacent symbol pair with the highest total count
    (every adjacent position counts, weighted by word frequency).  Learning
    stops after ``num_merges`` merges or once the best pair occurs fewer
    than twice.
    """
    words = [list(_initial_symbols(w)) for w in word_frequencies]
    freqs = [int(word_frequencies[w]) for w in word_frequencies]

    pair_counts: defaultdict[tuple[str, str], int] = defaultdict(int)
    # a superset index: every word holding a pair is listed under it, and a
    # word listed under a pair it no longer holds is passed over harmlessly
    where: dict[tuple[str, str], set[int]] = {}
    for idx, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freqs[idx]
            where.setdefault(pair, set()).add(idx)

    # every live pair has an entry holding its current count; an entry whose
    # count is no longer current is stale and is dropped when it surfaces.
    # The heap is (re)built from the counts at the start and whenever stale
    # entries make it more than twice the number of live pairs.
    heap: list[tuple[int, tuple[str, str]]] = []
    merges: list[tuple[str, str]] = []
    while len(merges) < num_merges:
        if not heap or len(heap) > 2 * len(pair_counts):
            heap = [(-count, pair) for pair, count in pair_counts.items()]
            heapq.heapify(heap)
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        best = heap[0][1]
        merges.append(best)

        # one left-to-right pass per word, as _merge_symbols makes it; each
        # merge changes only the pairs beside it, whose counts move by the
        # word's frequency.  The left neighbour is the last symbol emitted, so
        # runs such as "a b a b" and "a a a" net out right.
        a, b = best
        fused = a + b
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for idx in where.pop(best):
            old, f = words[idx], freqs[idx]
            new: list[str] = []
            i, n = 0, len(old)
            while i < n:
                if old[i] == a and i + 1 < n and old[i + 1] == b:
                    delta[best] -= f
                    if new:
                        delta[new[-1], a] -= f
                        delta[new[-1], fused] += f
                        where.setdefault((new[-1], fused), set()).add(idx)
                    if i + 2 < n:
                        delta[b, old[i + 2]] -= f
                        delta[fused, old[i + 2]] += f
                        where.setdefault((fused, old[i + 2]), set()).add(idx)
                    new.append(fused)
                    i += 2
                else:
                    new.append(old[i])
                    i += 1
            words[idx] = new
        # a pair whose count did not change keeps its entry, which is still current
        for pair, change in delta.items():
            if change:
                count = pair_counts.get(pair, 0) + change
                if count > 0:
                    pair_counts[pair] = count
                    heapq.heappush(heap, (-count, pair))
                else:
                    del pair_counts[pair]
                    where.pop(pair, None)
    return MergeTable(merges=merges)


def apply_bpe(word: str, table: MergeTable) -> list[str]:
    """Segment a word as replaying the merge table would; keeps the fused end marker.

    Runs only the merges whose pair is present when their turn comes: the
    next one is the lowest rank above ``done`` among the current adjacent
    pairs.
    """
    symbols = _initial_symbols(word)
    done = -1
    while len(symbols) > 1:
        rank = len(table.merges)
        for pair in zip(symbols, symbols[1:]):
            pair_ranks = table.ranks.get(pair)
            if pair_ranks is not None:
                at = bisect_right(pair_ranks, done)
                if at < len(pair_ranks) and pair_ranks[at] < rank:
                    rank = pair_ranks[at]
        if rank == len(table.merges):
            break
        symbols = _merge_symbols(symbols, table.merges[rank])
        done = rank
    return list(symbols)


def render_subwords(subwords: list[str]) -> list[str]:
    """Serialize subwords: "@@" on non-final pieces, marker stripped from the last."""
    if not subwords:
        return []
    rendered = [s + CONTINUATION for s in subwords[:-1]]
    last = subwords[-1]
    if last.endswith(END_MARKER):
        last = last[: -len(END_MARKER)]
    rendered.append(last)
    return rendered


def segment_word(word: str, table: MergeTable) -> list[str]:
    """Segment and serialize a word, e.g. "abd" -> ["ab@@", "d"]."""
    return render_subwords(apply_bpe(word, table))


def segment_distinct(words: Iterable[str], table: MergeTable) -> dict[str, list[str]]:
    """Each distinct word of ``words`` mapped to ``segment_word`` of it, which runs once per word."""
    segmented: dict[str, list[str]] = {}
    for word in words:
        if word not in segmented:
            segmented[word] = segment_word(word, table)
    return segmented


def segment_tokens(tokens: Iterable[str], table: MergeTable) -> list[str]:
    out: list[str] = []
    for token in tokens:
        out.extend(segment_word(token, table))
    return out


def unsegment_text(text: str) -> str:
    """Undo the "@@ " serialization, recovering the original token text."""
    return text.replace(CONTINUATION + " ", "")


def encode_gloss(
    tokens: Iterable[str],
    vocab: WordVocab,
    merges: MergeTable | None = None,
    segmentation: str = "word",
) -> list[int]:
    """Token ids for a gloss, segmenting into subwords first under "bpe"."""
    if segmentation == "bpe":
        if merges is None:
            raise DataError("bpe segmentation requested but no merge table given")
        tokens = segment_tokens(tokens, merges)
    elif segmentation != "word":
        raise ValueError(f"unknown segmentation {segmentation!r}")
    return vocab.encode(tokens)
