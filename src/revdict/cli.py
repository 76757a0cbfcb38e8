"""Command-line surface for segmentation, statistics, training, and lookup.

Exit status: 0 success, 1 usage or config error, 2 data or IO error,
3 numeric failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

import numpy as np

from .corpus import (
    DefinitionPair,
    clean_crosswords,
    clues_to_pairs,
    length_histogram,
    load_crossword_csv,
    load_definitions,
    pad_minibatch,
    save_definitions,
    save_histogram,
    tokenize,
)
from .embeddings import PretrainedTable, load_pretrained, rank_by_cosine
from .errors import ConfigError, DataError, NonFiniteLossError, decoding
from .evaluator import evaluate, format_summary, write_rank_records
from .tokenizer import (
    BPE_MERGES,
    WORD_VOCAB_CAP,
    MergeTable,
    build_word_vocab,
    encode_gloss,
    learn_bpe,
    segment_distinct,
)
from .trainer import blas_threads, load_checkpoint, read_config, save_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for data errors
    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _drop_missing_heads(
    pairs: list[DefinitionPair], table: PretrainedTable
) -> tuple[list[DefinitionPair], int]:
    kept = [pair for pair in pairs if pair.head in table]
    return kept, len(pairs) - len(kept)


def _gloss_frequencies(pairs: list[DefinitionPair], merges: MergeTable | None) -> Counter:
    """Token counts of the glosses, after segmentation when a merge table is given."""
    words = Counter(token for pair in pairs for token in pair.gloss)
    if merges is None:
        return words
    subwords = segment_distinct(words, merges)
    freqs: Counter = Counter()
    for word, count in words.items():
        for subword in subwords[word]:
            freqs[subword] += count
    return freqs


def _blas_note(table_entries: int) -> str:
    """The numpy and BLAS build, the caller's BLAS threads, training's, and whether Adam overlaps the next batch."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config rather than return it
        build = "BLAS build unknown"
    plan = blas_threads(table_entries)
    if plan is None:
        return f"blas: numpy {np.__version__}, {build}, threads unknown, Adam serial"
    caller, training, overlaps = plan
    adam = "overlapped" if overlaps else "serial"
    return f"blas: numpy {np.__version__}, {build}, {caller} threads, {training} in training, Adam {adam}"


def _load_pairs(path: str) -> list[DefinitionPair]:
    pairs, _ = load_definitions(path)
    if not pairs:
        raise DataError(f"{path}: no definition pairs")
    return pairs


def _cmd_learn_bpe(args) -> int:
    pairs = _load_pairs(args.input)
    table = learn_bpe(_gloss_frequencies(pairs, None), num_merges=args.merges)
    table.save(args.output)
    print(f"{len(table.merges)} merges -> {args.output}")
    return EXIT_OK


def _cmd_apply_bpe(args) -> int:
    pairs, _ = load_definitions(args.input)
    table = MergeTable.load(args.merges)
    subwords = segment_distinct((token for pair in pairs for token in pair.gloss), table)
    segmented = [
        DefinitionPair(head=pair.head, gloss=tuple(s for token in pair.gloss for s in subwords[token]))
        for pair in pairs
    ]
    save_definitions(args.output, segmented)
    print(f"{len(segmented)} glosses segmented -> {args.output}")
    return EXIT_OK


def _cmd_build_vocab(args) -> int:
    pairs = _load_pairs(args.input)
    merges = None
    if args.segmentation == "bpe":
        if args.merges is None:
            raise ConfigError("--segmentation bpe needs --merges")
        merges = MergeTable.load(args.merges)
    vocab = build_word_vocab(_gloss_frequencies(pairs, merges), cap=args.cap)
    vocab.save(args.output)
    print(f"{len(vocab)} tokens -> {args.output}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    if args.mode == "definitions":
        pairs = _load_pairs(args.input)
        histogram = length_histogram([pair.gloss for pair in pairs], unit="tokens")
    else:
        clues, _ = clean_crosswords(load_crossword_csv(args.input))
        if not clues:
            raise DataError(f"{args.input}: no usable clues")
        histogram = length_histogram([clue.answer for clue in clues], unit="characters")
    save_histogram(args.output, histogram)
    print(f"{sum(histogram.values())} items, {len(histogram)} lengths -> {args.output}")
    return EXIT_OK


def _cmd_train(args) -> int:
    # refuse an output that cannot be written before any input is read or any epoch run
    directory = os.path.dirname(args.output) or "."
    if not os.path.isdir(directory):
        raise DataError(f"{args.output}: directory {directory} does not exist")
    for target in (args.output, f"{args.output}.metrics"):
        if os.path.isdir(target):
            raise DataError(f"{target}: is a directory")
    config, paths = read_config(args.config)
    config = config.override(
        loss_kind=args.loss,
        encoder_mode=args.encoder,
        segmentation=args.segmentation,
        epochs=args.epochs,
        seed=args.seed,
    ).validate()
    for key in ("train", "dev", "embeddings"):
        if key not in paths:
            raise ConfigError(f"config is missing the {key} path")

    merges = None
    if config.segmentation == "bpe":
        if "merges" not in paths:
            raise ConfigError("segmentation=bpe needs a merges path in the config")
        merges = MergeTable.load(paths["merges"])

    train_pairs, rejected_train = load_definitions(paths["train"])
    dev_pairs, rejected_dev = load_definitions(paths["dev"])
    if config.dataset == "full":
        if "crosswords" not in paths:
            raise ConfigError("dataset=full needs a crosswords path in the config")
        clues, clean = clean_crosswords(load_crossword_csv(paths["crosswords"]))
        _note(
            f"crosswords: {len(clues)} clues ({clean.duplicates} duplicate, "
            f"{clean.multiword_answers} multi-word answer, {clean.empty} empty rows dropped)"
        )
        train_pairs = train_pairs + clues_to_pairs(clues)

    pretrained, loaded = load_pretrained(paths["embeddings"], expected_dim=None)
    _note(
        f"embeddings: {loaded.kept} vectors ({loaded.dim_mismatch} malformed, {loaded.non_finite} non-finite, "
        f"{loaded.zero_norm} zero-norm, {loaded.duplicates} duplicate rows dropped)"
    )
    train_pairs, missing_train = _drop_missing_heads(train_pairs, pretrained)
    dev_pairs, missing_dev = _drop_missing_heads(dev_pairs, pretrained)
    _note(f"train: {len(train_pairs)} pairs ({rejected_train} rejected, {missing_train} without vectors)")
    _note(f"dev: {len(dev_pairs)} pairs ({rejected_dev} rejected, {missing_dev} without vectors)")

    vocab = build_word_vocab(_gloss_frequencies(train_pairs, merges), cap=args.cap)
    _note(_blas_note(len(vocab) * config.embed_dim))
    checkpoint, curve = train(config, train_pairs, dev_pairs, pretrained, vocab, merges)
    save_checkpoint(args.output, checkpoint)
    with open(f"{args.output}.metrics", "w", encoding="utf-8", newline="\n") as handle:
        for epoch, value in enumerate(curve, start=1):
            handle.write(f"{epoch}\t{value!r}\n")
    print(f"saved {args.output} (epoch {checkpoint.epoch}, dev median_rank {checkpoint.dev_median_rank!r})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    if args.mode == "crossword":
        clues, stats = clean_crosswords(load_crossword_csv(args.test))
        if stats.dropped:
            _note(f"dropped {stats.dropped} unusable clue rows")
        items = [clue for clue in clues if clue.answer in checkpoint.pretrained]
        skipped = len(clues) - len(items)
    else:
        pairs, rejected = load_definitions(args.test)
        if rejected:
            _note(f"rejected {rejected} malformed lines")
        items = [pair for pair in pairs if pair.head in checkpoint.pretrained]
        skipped = len(pairs) - len(items)
    if skipped:
        _note(f"skipped {skipped} items without pretrained vectors")

    report, records = evaluate(checkpoint, items, mode=args.mode)
    print(format_summary(report))
    if args.output:
        write_rank_records(args.output, records)
    return EXIT_OK


def _split_query(line: str) -> tuple[str | None, int | None]:
    """Split a trailing ``--length N`` off an interactive query line."""
    fields = line.split()
    if len(fields) >= 2 and fields[-2] == "--length":
        try:
            wanted = int(fields[-1])
        except ValueError:
            wanted = 0
        if wanted < 1:
            return None, None
        return " ".join(fields[:-2]), wanted
    return line, None


def _cmd_query(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    with decoding("standard input"):
        for raw in sys.stdin:
            # surrogateescape stdin (C locale, UTF-8 mode) escapes a bad byte; decoding again refuses it
            line = raw.encode("utf-8", "surrogateescape").decode("utf-8").strip()
            if not line:
                continue
            text, wanted = _split_query(line)
            if text is None:
                _note("bad --length value, skipping line")
                continue
            if wanted is None:
                wanted = args.length
            tokens = tokenize(text)
            if not tokens:
                _note("empty query, skipping line")
                continue
            ids = encode_gloss(tokens, checkpoint.vocab, checkpoint.merges, checkpoint.config.segmentation)
            batch = pad_minibatch([ids], checkpoint.model.embeddings.pad_id)  # the training length cap
            vector = checkpoint.model.encode_ids(batch.token_ids, batch.lengths)[0]
            ranked = rank_by_cosine(vector, checkpoint.pretrained, answer_length=wanted, topk=args.topk)
            if not ranked:
                _note("no candidates of that length")
            for word, score in ranked:
                print(f"{word}\t{score!r}")
            print()
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="revdict", description="reverse-dictionary toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("learn-bpe", help="learn a subword merge table from glosses")
    p.add_argument("--input", required=True, help="definitions TSV (head<TAB>gloss)")
    p.add_argument("--output", required=True, help="merge table to write")
    p.add_argument("--merges", type=_nonnegative, default=BPE_MERGES, help="number of merges to learn")
    p.set_defaults(handler=_cmd_learn_bpe)

    p = sub.add_parser("apply-bpe", help="segment gloss text with a merge table")
    p.add_argument("--input", required=True, help="definitions TSV")
    p.add_argument("--merges", required=True, help="merge table file")
    p.add_argument("--output", required=True, help="segmented TSV to write")
    p.set_defaults(handler=_cmd_apply_bpe)

    p = sub.add_parser("build-vocab", help="build a capped gloss vocabulary")
    p.add_argument("--input", required=True, help="definitions TSV")
    p.add_argument("--output", required=True, help="vocabulary file to write")
    p.add_argument("--cap", type=_positive, default=WORD_VOCAB_CAP, help="max vocabulary size")
    p.add_argument("--segmentation", choices=("word", "bpe"), default="word")
    p.add_argument("--merges", help="merge table file (with --segmentation bpe)")
    p.set_defaults(handler=_cmd_build_vocab)

    p = sub.add_parser("stats", help="write a length histogram")
    p.add_argument("--input", required=True, help="definitions TSV or crossword CSV")
    p.add_argument("--output", required=True, help="histogram file to write")
    p.add_argument("--mode", choices=("definitions", "crossword"), default="definitions")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("train", help="train a definition model from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--output", required=True, help="checkpoint file to write")
    p.add_argument("--loss", choices=("cosine", "rank"), help="override loss_kind")
    p.add_argument("--encoder", choices=("final", "average", "bidirectional"), help="override encoder_mode")
    p.add_argument("--segmentation", choices=("word", "bpe"), help="override segmentation")
    p.add_argument("--epochs", type=_nonnegative, help="override epochs")
    p.add_argument("--seed", type=_nonnegative, help="override seed (config default 42)")
    p.add_argument("--cap", type=_positive, default=WORD_VOCAB_CAP, help="max vocabulary size")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="definitions TSV or crossword CSV")
    p.add_argument("--mode", choices=("definitions", "crossword"), default="definitions")
    p.add_argument("--output", help="per-item rank TSV to write")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("query", help="rank candidates for glosses read from stdin")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--topk", type=_positive, default=10, help="candidates to print per query")
    p.add_argument("--length", type=_positive, help="answer length filter for every query")
    p.set_defaults(handler=_cmd_query)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (None, 0) else EXIT_USAGE
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteLossError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    raise SystemExit(run())
