"""Seeded synthetic inputs for the revdict benchmark.

Run as a script, it writes one workload's inputs into a directory:

    python3 perfbench/generate.py --workload query-plain --seed 7 --out DIR

Every draw comes from numpy's PCG64 generator seeded with the workload name
and the seed, so a fixed seed gives byte-identical files.  The data is
hashed as it is drawn (words, vectors, texts, merge table) and the digest
goes into ``inputs.json``.  Checkpoints are then built from that data with
revdict's public constructors; their weights are revdict's own
initialisation from the recorded ``model_seed``, and their bytes are not
part of the digest, so the digest stays comparable across commits that
change the checkpoint format.

Nothing real is downloaded: the words are made of syllables so that byte
pair encoding has structure to find, gloss words follow a Zipf law, and
head vectors are Gaussian rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query-plain", "query-clue", "train-step", "eval-crossword-bpe", "prep-bpe")

DIM = 500  # embedding and head-vector width (paper scale)
HIDDEN = 512
TABLE_ROWS = 50_000  # candidate table for query and eval
GLOSS_TYPES = 28_000  # distinct words glosses draw from
ZIPF_S = 1.0
ZIPF_Q = 2.7  # Zipf-Mandelbrot offset: p(rank r) ~ 1 / (r + q)^s
QUERY_VOCAB = 20_000
QUERY_LINES = 1_500  # lines in a query file; a run cycles through them
CLUE_LINES = 1_500  # crossword clues for eval
BPE_MERGES_EVAL = 2_000
BPE_TYPES_EVAL = 4_000  # most frequent gloss types the eval merge table is learned on
CORPUS_PAIRS = 20_000  # train-step: the vocabulary is built from these
TRAIN_PAIRS = 128
DEV_PAIRS = 64
TRAIN_TABLE_ROWS = 1_000
PREP_PAIRS = 1_000  # ~5.9k tokens, ~2.6k types: room for 2k merges on every seed (800 pairs fall short on some)
ANSWER_LENGTHS = range(3, 13)
EVAL_CHUNK = len(ANSWER_LENGTHS)  # clues come in blocks of 10 alike: one answer per length

# The most frequent gloss words, fixed for every seed as they are in a real dictionary.
# They make up about 40% of gloss tokens, so fixing them keeps the cost of encoding and
# segmenting a corpus from swinging with the seed.
FUNCTION_WORDS = (
    "a", "the", "of", "or", "to", "and", "in", "which", "that", "is", "an", "for", "with", "by",
    "as", "from", "used", "something", "person", "one", "who", "not", "having", "being", "its",
    "be", "are", "at", "on", "especially", "make", "act", "state", "quality", "made", "into",
    "small", "kind", "part", "any", "other", "often", "without", "place", "thing", "very", "way",
    "people", "where", "form", "body", "more", "such", "than", "all", "it", "up", "out", "has",
    "large", "like", "when", "this", "over", "type", "been", "can", "group", "using", "usually",
    "may", "water", "between", "through", "animal", "plant", "time", "set", "use", "become",
    "give", "take", "long", "high", "hand", "line", "number", "process", "member", "family",
    "genus", "order", "class",
)
_ONSETS = ("", "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w",
           "bl", "br", "ch", "cr", "dr", "fl", "gr", "pl", "pr", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "y")
_CODAS = ("", "", "", "", "n", "r", "s", "t", "l", "m", "nd", "ng", "st", "ck")


class Digest:
    """SHA-256 over named, length-prefixed items, in the order they are fed."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, name: str, data: bytes | str | np.ndarray) -> None:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).tobytes()
        elif isinstance(data, str):
            data = data.encode("utf-8")
        for part in (name.encode("utf-8"), data):
            self._hash.update(len(part).to_bytes(8, "little"))
            self._hash.update(part)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode("ascii"))])


def make_words(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct lowercase words of one to four syllables."""
    seen: dict[str, None] = {}
    while len(seen) < count:
        block = 8192
        syllables = rng.choice(4, size=block, p=(0.3, 0.45, 0.2, 0.05)) + 1
        onset = rng.integers(len(_ONSETS), size=(block, 4))
        vowel = rng.integers(len(_VOWELS), size=(block, 4))
        coda = rng.integers(len(_CODAS), size=(block, 4))
        for j in range(block):
            word = "".join(
                _ONSETS[onset[j, s]] + _VOWELS[vowel[j, s]] + _CODAS[coda[j, s]]
                for s in range(syllables[j])
            )
            if len(word) >= 2 and word not in seen:
                seen[word] = None
                if len(seen) == count:
                    break
    return list(seen)


def zipf_probabilities(count: int) -> np.ndarray:
    weights = 1.0 / (np.arange(count) + ZIPF_Q) ** ZIPF_S
    return weights / weights.sum()


def zipf_frequencies(count: int, total: int) -> np.ndarray:
    """Expected integer counts of ``total`` Zipf draws, at least 1 each."""
    return np.maximum(1, np.rint(zipf_probabilities(count) * total)).astype(np.int64)


def length_quantiles(mean_extra: float, low: int = 2, high: int = 14, block: int = 20) -> np.ndarray:
    """The ``block`` evenly spaced quantiles of ``low + Poisson(mean_extra)``, capped at ``high``."""
    pmf = [np.exp(-mean_extra)]
    for k in range(1, high - low + 1):
        pmf.append(pmf[-1] * mean_extra / k)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return low + np.searchsorted(cdf, (np.arange(block) + 0.5) / block)


def stratified(rng: np.random.Generator, values: np.ndarray, count: int) -> list[int]:
    """``count`` values in blocks, each block a fresh shuffle of ``values``.

    Every block, and so every prefix of whole blocks, has the same multiset
    of values for every seed: a run that stops after any number of blocks
    did the same amount of work whatever the seed.
    """
    out: list[int] = []
    while len(out) < count:
        out.extend(values[rng.permutation(len(values))].tolist())
    return out[:count]


class GlossSampler:
    """Draws gloss token sequences from a Zipf law over a fixed word list."""

    def __init__(self, rng: np.random.Generator, types: list[str]) -> None:
        self._rng = rng
        self._types = types
        self._cdf = np.cumsum(zipf_probabilities(len(types)))

    def draw(self, length: int) -> list[str]:
        picks = np.searchsorted(self._cdf, self._rng.random(length) * self._cdf[-1])
        return [self._types[min(int(i), len(self._types) - 1)] for i in picks]

    def glosses(self, count: int, mean_extra: float = 4.0, block: int = 20) -> list[list[str]]:
        lengths = stratified(self._rng, length_quantiles(mean_extra, block=block), count)
        return [self.draw(n) for n in lengths]


def _words_by_length(words: list[str]) -> dict[int, list[str]]:
    groups: dict[int, list[str]] = {}
    for word in words:
        groups.setdefault(len(word), []).append(word)
    return groups


def _write_lines(path: Path, lines: list[str], digest: Digest) -> None:
    text = "".join(line + "\n" for line in lines)
    digest.add(path.name, text)
    path.write_text(text, encoding="utf-8", newline="\n")


def _table(rng: np.random.Generator, rows: int, digest: Digest) -> tuple[list[str], np.ndarray]:
    """Distinct head words and Gaussian head vectors; the first GLOSS_TYPES words double as gloss words."""
    words = make_words(rng, rows)
    matrix = rng.standard_normal((rows, DIM))
    digest.add("table.words", "\n".join(words))
    digest.add("table.matrix", matrix)
    return words, matrix


def _gloss_types(rng: np.random.Generator, words: list[str]) -> list[str]:
    """GLOSS_TYPES gloss words in Zipf rank order: FUNCTION_WORDS, then words drawn from ``words``.

    Which word sits at a later rank is random, but its length follows one
    schedule for every seed, so that the cost of a corpus does not swing
    with the length of a few frequent words.
    """
    function_words = set(FUNCTION_WORDS)
    candidates = [w for w in words[:GLOSS_TYPES] if w not in function_words]
    by_length = {n: [group[i] for i in rng.permutation(len(group))]
                 for n, group in _words_by_length(candidates).items()}
    ranked = list(FUNCTION_WORDS)
    for n in _length_schedule()[len(ranked):]:
        if not by_length.get(n):  # this length ran out: take the nearest that has not
            n = min((m for m, group in by_length.items() if group), key=lambda m: (abs(m - n), m))
        ranked.append(by_length[n].pop())
    return ranked


def _length_schedule() -> list[int]:
    """Word length per Zipf rank, the same for every seed."""
    return [len(w) for w in make_words(np.random.default_rng(0), GLOSS_TYPES)]


def _save_checkpoint(path: Path, words, matrix, vocab, merges, mode: str, segmentation: str, model_seed: int) -> None:
    from revdict import Checkpoint, DefinitionModel, PretrainedTable, TrainConfig, save_checkpoint

    config = TrainConfig(encoder_mode=mode, segmentation=segmentation, embed_dim=DIM, hidden_size=HIDDEN)
    model = DefinitionModel.create(
        vocab_size=len(vocab), pad_id=vocab.pad_id, mode=mode, embed_dim=DIM,
        hidden=HIDDEN, output_dim=DIM, seed=model_seed,
    )
    checkpoint = Checkpoint(
        model=model, config=config, vocab=vocab, merges=merges,
        pretrained=PretrainedTable.from_arrays(words, matrix), epoch=0, dev_median_rank=0.0,
    )
    save_checkpoint(path, checkpoint)


def _gen_query(rng: np.random.Generator, out: Path, digest: Digest, with_length: bool) -> dict:
    """Word-level ``final`` checkpoint and gloss lines, each with ``--length N`` when ``with_length``."""
    from revdict.tokenizer import build_word_vocab

    words, matrix = _table(rng, TABLE_ROWS, digest)
    types = _gloss_types(rng, words)
    freqs = zipf_frequencies(len(types), 20 * len(types))
    vocab = build_word_vocab(dict(zip(types, freqs.tolist())), cap=QUERY_VOCAB)
    digest.add("vocab", "\n".join(vocab.id_to_token))
    glosses = GlossSampler(rng, types).glosses(QUERY_LINES)
    if with_length:  # every 10 lines carry each of the lengths 3..12 once
        lines = [f"{' '.join(g)} --length {n}"
                 for g, n in zip(glosses, stratified(rng, np.array(ANSWER_LENGTHS), QUERY_LINES))]
    else:
        lines = [" ".join(g) for g in glosses]
    _write_lines(out / "queries.txt", lines, digest)
    model_seed = int(rng.integers(2**31))
    digest.add("model_seed", str(model_seed))
    _save_checkpoint(out / "query.ckpt", words, matrix, vocab, None, "final", "word", model_seed)
    return {"model_seed": model_seed, "vocab": len(vocab), "lines": len(lines)}


def gen_query_plain(rng: np.random.Generator, out: Path, digest: Digest) -> dict:
    return _gen_query(rng, out, digest, with_length=False)


def gen_query_clue(rng: np.random.Generator, out: Path, digest: Digest) -> dict:
    return _gen_query(rng, out, digest, with_length=True)


def _merge_symbols(merges: list[tuple[str, str]]) -> list[str]:
    """Every subword token a merge table can emit, rendered the way segment_word renders it."""
    symbols: set[str] = set()
    for left, right in merges:
        symbols.update((left, right, left + right))
    rendered = {s[:-1] if s.endswith("#") else s + "@@" for s in symbols}
    rendered.discard("")
    rendered.update(chr(c) for c in range(ord("a"), ord("z") + 1))
    rendered.update(chr(c) + "@@" for c in range(ord("a"), ord("z") + 1))
    return sorted(rendered)


def gen_eval_crossword_bpe(rng: np.random.Generator, out: Path, digest: Digest) -> dict:
    """BPE ``bidirectional`` checkpoint and a crossword CSV with answers of 3-12 letters."""
    from revdict.tokenizer import build_word_vocab, learn_bpe

    words, matrix = _table(rng, TABLE_ROWS, digest)
    types = _gloss_types(rng, words)
    freqs = zipf_frequencies(BPE_TYPES_EVAL, 20 * len(types))
    merges = learn_bpe(dict(zip(types[:BPE_TYPES_EVAL], freqs.tolist())), num_merges=BPE_MERGES_EVAL)
    digest.add("merges", "\n".join(f"{a} {b}" for a, b in merges.merges))
    pieces = _merge_symbols(merges.merges)
    vocab = build_word_vocab({piece: 1 for piece in pieces}, cap=len(pieces))
    by_length = _words_by_length(words)
    answer_lengths = stratified(rng, np.array([n for n in ANSWER_LENGTHS if by_length.get(n)]), CLUE_LINES)
    rows = ["clue,answer"]
    for clue, n in zip(GlossSampler(rng, types).glosses(CLUE_LINES, mean_extra=3.0, block=EVAL_CHUNK), answer_lengths):
        group = by_length[n]
        rows.append(f"{' '.join(clue)},{group[int(rng.integers(len(group)))]}")
    _write_lines(out / "clues.csv", rows, digest)
    model_seed = int(rng.integers(2**31))
    digest.add("model_seed", str(model_seed))
    _save_checkpoint(out / "eval.ckpt", words, matrix, vocab, merges, "bidirectional", "bpe", model_seed)
    return {"model_seed": model_seed, "vocab": len(vocab), "merges": len(merges), "clues": CLUE_LINES}


def _definitions(rng: np.random.Generator, sampler: GlossSampler, heads: list[str], count: int) -> list[str]:
    return [f"{heads[int(rng.integers(len(heads)))]}\t{' '.join(g)}" for g in sampler.glosses(count)]


def gen_train_step(rng: np.random.Generator, out: Path, digest: Digest) -> dict:
    """Full corpus for the vocabulary, a few hundred train pairs, a dev set and a small text table."""
    words = make_words(rng, GLOSS_TYPES + TRAIN_TABLE_ROWS)
    types = _gloss_types(rng, words)
    heads = words[GLOSS_TYPES:]
    sampler = GlossSampler(rng, types)
    _write_lines(out / "corpus.tsv", _definitions(rng, sampler, words, CORPUS_PAIRS), digest)
    _write_lines(out / "train.tsv", _definitions(rng, sampler, heads, TRAIN_PAIRS), digest)
    _write_lines(out / "dev.tsv", _definitions(rng, sampler, heads, DEV_PAIRS), digest)
    matrix = rng.standard_normal((len(heads), DIM))
    _write_lines(
        out / "vectors.txt",
        [word + " " + " ".join(f"{x:.5f}" for x in row) for word, row in zip(heads, matrix)],
        digest,
    )
    return {"corpus_pairs": CORPUS_PAIRS, "train_pairs": TRAIN_PAIRS, "dev_pairs": DEV_PAIRS}


def gen_prep_bpe(rng: np.random.Generator, out: Path, digest: Digest) -> dict:
    """A definitions TSV for learn-bpe and then apply-bpe."""
    words = make_words(rng, GLOSS_TYPES)
    types = _gloss_types(rng, words)
    lines = _definitions(rng, GlossSampler(rng, types), words, PREP_PAIRS)
    _write_lines(out / "defs.tsv", lines, digest)
    tokens = [line.split("\t")[1].split() for line in lines]
    return {
        "pairs": PREP_PAIRS,
        "tokens": sum(len(t) for t in tokens),
        "types": len({w for t in tokens for w in t}),
    }


GENERATORS = {
    "query-plain": gen_query_plain,
    "query-clue": gen_query_clue,
    "train-step": gen_train_step,
    "eval-crossword-bpe": gen_eval_crossword_bpe,
    "prep-bpe": gen_prep_bpe,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` under ``out`` and return their manifest."""
    out.mkdir(parents=True, exist_ok=True)
    digest = Digest()
    digest.add("workload", f"{workload}:{seed}")
    details = GENERATORS[workload](workload_rng(workload, seed), out, digest)
    manifest = {"workload": workload, "seed": seed, "inputs_sha256": digest.hexdigest(), **details}
    (out / "inputs.json").write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
