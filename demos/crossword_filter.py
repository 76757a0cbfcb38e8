"""Crossword answering: the grid tells you the length, so use it.

A crossword clue comes with the answer's letter count for free.  Filtering
the candidate pool down to words of exactly that length is a large, cheap
win: the pool shrinks by an order of magnitude and every wrong-length
near-miss disappears from the ranking.  This script cleans a small raw clue
list, trains briefly on it, then scores the same clues with and without the
filter.
"""

from collections import Counter

import numpy as np

from revdict.corpus import clean_crosswords, clues_to_pairs, split_long_short
from revdict.embeddings import PretrainedTable
from revdict.evaluator import evaluate, format_summary, length_filter
from revdict.tokenizer import build_word_vocab
from revdict.trainer import TrainConfig, train

# raw rows as they might arrive from a puzzle dump: one exact duplicate,
# one multi-word answer, one row that normalizes to nothing
RAW = [
    ("Feline pet that purrs", "cat"),
    ("Presses wrinkles flat", "iron"),
    ("Burning stick carried for light", "torch"),
    ("Slender pin with an eye for thread", "needle"),
    ("It points steadfastly north", "compass"),
    ("Portable shielded flame", "lantern"),
    ("Shrill pipe for the referee", "whistle"),
    ("Rungs between two rails", "ladder"),
    ("Boils water for tea", "kettle"),
    ("Blacksmith's block", "anvil"),
    ("Reflects your face", "mirror"),
    ("Wax light with a wick", "candle"),
    ("Carries water by its handle", "bucket"),
    ("Hooped wooden cask", "barrel"),
    ("Seat for a rider", "saddle"),
    ("Net bed between trees", "hammock"),
    ("Feline pet that purrs", "cat"),
    ("Frozen rain, at length", "ice storm"),
    ("???", "mystery"),
]

DISTRACTORS = [
    "ant", "bee", "cow", "elk", "fox", "hen", "owl", "pig", "ram", "yak",
    "bear", "crab", "deer", "dove", "hawk", "lion", "mole", "swan", "toad", "wolf",
    "camel", "eagle", "gecko", "heron", "hyena", "lemur", "moose", "otter", "robin", "zebra",
    "badger", "condor", "donkey", "falcon", "jackal", "marmot", "ocelot", "parrot", "toucan", "walrus",
    "buffalo", "caracal", "cheetah", "dolphin", "giraffe", "panther", "pelican", "raccoon",
    "antelope", "flamingo", "hedgehog", "kangaroo", "mongoose", "squirrel",
]


def main() -> None:
    clues, stats = clean_crosswords(RAW)
    long_clues, short_clues = split_long_short(clues)
    print(f"cleaned {len(RAW)} raw rows -> {len(clues)} clues "
          f"(dropped {stats.duplicates} duplicate, {stats.multiword_answers} multi-word, "
          f"{stats.empty} empty)")
    print(f"categories: {len(long_clues)} long (5+ clue tokens), {len(short_clues)} short")

    rng = np.random.default_rng(13)
    answers = sorted({c.answer for c in clues})
    words = sorted(set(DISTRACTORS) | set(answers))
    table = PretrainedTable.from_arrays(words, rng.normal(size=(len(words), 20)))

    print(f"\ncandidate pool: {len(table)} words; by answer length:")
    for n in sorted({c.answer_length for c in clues}):
        print(f"  {n} letters: {len(length_filter(table, n)):3d} candidates")

    pairs = clues_to_pairs(clues)
    vocab = build_word_vocab(Counter(t for p in pairs for t in p.gloss))
    config = TrainConfig(
        learning_rate=0.01,
        epochs=12,
        minibatch=8,
        bucket=16,
        seed=5,
        loss_kind="cosine",
        encoder_mode="average",
        embed_dim=16,
        hidden_size=16,
    )
    ckpt, _ = train(config, pairs, pairs, table, vocab)

    # same checkpoint, same clues; the only difference is the length filter
    unfiltered, _ = evaluate(ckpt, pairs, mode="definitions")
    filtered, records = evaluate(ckpt, clues, mode="crossword")
    print(f"\nwhole pool  : {format_summary(unfiltered)}")
    print(f"length match: {format_summary(filtered)}")

    print("\nper-clue ranks with the filter (rank / pool size):")
    for clue, rec in zip(clues, records):
        text = " ".join(clue.clue)
        print(f"  {clue.answer:8s} ({clue.answer_length}) rank {rec.rank:3g} / {rec.candidate_count:3d}   {text}")


if __name__ == "__main__":
    main()
