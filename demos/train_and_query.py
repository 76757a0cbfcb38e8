"""A reverse dictionary in miniature: train on 16 glosses, then look words up.

The model never sees the head words themselves.  It reads a gloss, produces
a vector, and is trained to land near the head's embedding; lookup is then
just cosine ranking over the embedding table.  With random 24-d "pretrained"
vectors and one distinctive content word per gloss, a small LSTM memorizes
the mapping in a few dozen epochs.  Paraphrased queries keep working for
exactly as long as they keep a gloss's distinctive tokens; the last query
drops them and the rank slips.
"""

from collections import Counter

import numpy as np

from revdict.corpus import DefinitionPair, tokenize
from revdict.embeddings import PretrainedTable, cosine_to_all, rank_by_cosine
from revdict.evaluator import rank_of_correct
from revdict.tokenizer import build_word_vocab, encode_gloss
from revdict.trainer import TrainConfig, train

GLOSSES = {
    "kettle": "metal vessel that boils water for tea",
    "sparrow": "small brown bird common in towns",
    "anchor": "heavy iron hook that holds a ship in place",
    "lantern": "portable case that shields a burning flame",
    "compass": "instrument whose needle points north",
    "saddle": "leather seat strapped to the back of a horse",
    "chisel": "sharp tool struck with a mallet to shape wood",
    "hammock": "hanging bed of netting slung between two trees",
    "whistle": "small pipe that makes a shrill sound when blown",
    "ladder": "pair of rails joined by rungs for climbing",
    "mirror": "polished surface that reflects an image",
    "candle": "wax cylinder with a wick that burns for light",
    "bucket": "open container with a handle for carrying liquid",
    "needle": "slender steel pin with an eye for thread",
    "barrel": "round wooden cask bound with metal hoops",
    "anvil": "iron block on which hot metal is forged",
}

QUERIES = [
    ("kettle", "vessel for boiling water"),
    ("compass", "needle that points north"),
    ("hammock", "bed of netting hung between trees"),
    ("saddle", "leather seat for a horse"),
    ("anvil", "block for forging hot metal"),
]


def main() -> None:
    rng = np.random.default_rng(7)
    words = sorted(GLOSSES)
    table = PretrainedTable.from_arrays(words, rng.normal(size=(len(words), 24)))
    pairs = [DefinitionPair(head=w, gloss=tuple(tokenize(GLOSSES[w]))) for w in words]

    freqs = Counter(tok for pair in pairs for tok in pair.gloss)
    vocab = build_word_vocab(freqs)
    config = TrainConfig(
        learning_rate=0.01,
        epochs=60,
        minibatch=8,
        bucket=16,
        seed=3,
        loss_kind="cosine",
        encoder_mode="average",
        embed_dim=16,
        hidden_size=16,
    )

    # dev == train here; we want memorization, and the curve shows it happen
    ckpt, curve = train(config, pairs, pairs, table, vocab)
    marks = {0, 4, 9, 19, len(curve) - 1}
    print("dev median rank by epoch:")
    for epoch, value in enumerate(curve):
        if epoch in marks:
            print(f"  epoch {epoch + 1:3d}: {value}")
    print(f"best checkpoint: epoch {ckpt.epoch}, median rank {ckpt.dev_median_rank}")

    # paraphrases keeping a gloss's distinctive tokens rank the right word
    # high; the last one swaps them out and shows the lexical crutch snap
    print("\nparaphrased queries (ranking all 16 candidates):")
    for intended, text in QUERIES:
        ids = encode_gloss(tokenize(text), ckpt.vocab, None, "word")
        y = ckpt.model.encode_ids(np.asarray(ids, dtype=np.int64), np.array([len(ids)]))
        record = rank_of_correct(cosine_to_all(y, table), table, intended)
        listing = "  ".join(f"{word} ({score:+.3f})" for word, score in rank_by_cosine(y, table, topk=3))
        print(f"  {text!r}: {intended} at rank {record.rank:g}")
        print(f"      top: {listing}")


if __name__ == "__main__":
    main()
