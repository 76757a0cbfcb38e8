"""The five workloads, each driven through revdict's public functions.

A workload reads the files ``generate.py`` wrote and returns an ``Outcome``.
Untraced (``tracer is None``) it times set-up several times, warms up, and
then measures for ``seconds``.  Traced, it runs one fixed-size pass to warm
up and then alternates passes with every layer wrapped and passes without;
their paired ratios give the tracing overhead, and the last traced pass
gives the spans.  Outputs are checked against the oracles after the timed
work.

Functions are looked up through their module at call time (``trainer.train``,
not a name imported once), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import oracles
from tracing import LAYER_METRICS, Tracer, layer_metrics, summarize, unmeasured

from revdict import cli, corpus, embeddings, encoder, evaluator, objective, tokenizer, trainer

clock = time.perf_counter

# Set-up is timed at least 3 times before the measurement and 2 times after it, each
# side for at least SETUP_MIN_S, and reported as the median: spread over the run, the
# samples are less at the mercy of one slow spell on a shared machine.
SETUP_REPS = (3, 2)
SETUP_MIN_S = 0.5
# A traced run alternates this many traced passes with as many untraced ones.
TRACE_PAIRS = 3
# A query session answers lines 0..39 untimed (line 0 also ends set-up): on a 2-core x86 VM
# the first 40 encodes had p90 124 ms against 12 ms once warm.  Timed lines then go in
# blocks of 20 that the generator filled alike (the same gloss lengths and, on
# query-clue, each answer length 3..12 twice).  Throughput comes from the median
# block, which a burst of load from elsewhere on the machine moves less than a mean.
QUERY_WARMUP = 40
QUERY_BLOCK = 20
QUERY_TRACE_LINES = 60
QUERY_TOPK = 10
# eval: item 0 ends set-up, items 1..9 warm up, then chunks of 10 with answer lengths 3..12
EVAL_WARMUP = 10
EVAL_CHUNK = 10
EVAL_TRACE_ITEMS = 150
TRAIN_EPOCHS = 1
TRAIN_WARMUP_PAIRS = 16  # one minibatch, so the warm-up call makes exactly one Adam step
FD_STEP = 1e-4  # length of the central difference along a unit direction in parameter space
PREP_MERGES = 2_000
RUN_LIMIT_S = 120.0  # stop starting new work past this point, to end well within 180 s
MAX_REASONS = 5


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[tuple[str, float, str, str]] = field(default_factory=list)  # name, value, unit, note
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)  # warm-up lengths, sample counts
    layers: dict = field(default_factory=dict)  # traced runs: calls, s and self_s per span name
    unmeasured: dict[str, str] = field(default_factory=dict)  # traced runs: metric -> why it is left out

    def check(self, reason: str | None) -> None:
        """Count one checked operation, failed when ``reason`` is given."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)

    def fail_many(self, count: int, reason: str) -> None:
        for _ in range(count):
            self.check(reason)


@dataclass
class Context:
    data: Path
    seconds: float
    tracer: Tracer | None
    started: float
    trace_path: Path | None = None

    def time_left(self) -> bool:
        return clock() - self.started < RUN_LIMIT_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _time_setups(setup: Callable[[], object], reps: int) -> tuple[list[float], object]:
    """Time ``setup`` at least ``reps`` times; returns the timings and the last result."""
    timings: list[float] = []
    while len(timings) < reps or sum(timings) < SETUP_MIN_S:
        t0 = clock()
        result = setup()
        timings.append(clock() - t0)
    return timings, result


def _finish_common(out: Outcome, setups: list[float], rss: float) -> None:
    """``rss`` is read right after the measurement, before the late set-ups and the oracles."""
    out.metrics["setup_s"] = (statistics.median(setups), "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.record["setup_samples"] = len(setups)


def _traced_passes(ctx: Context, out: Outcome, one_pass: Callable[[], None]) -> None:
    """Warm up with one pass, then alternate traced and untraced passes; store the per-layer metrics.

    The first pass warms the process up (on a 2-core x86 VM it ran 10-25% slower
    than later ones).  The overhead is the median ratio of each traced pass to
    the untraced pass right after it: neighbours in time share the load that
    other work puts on the machine, which on a shared VM moves whole passes by
    10-20%.  The spread of the untraced passes is recorded beside it, as the
    noise the overhead has to stand out from.  The spans and counters are
    those of the last traced pass.
    """
    tracer = ctx.tracer
    t0 = clock()
    one_pass()
    warm = clock() - t0
    traced: list[float] = []
    untraced: list[float] = []
    for _ in range(TRACE_PAIRS):
        tracer.reset()
        tracer.install()
        try:
            root = tracer.begin("bench.pass")
            one_pass()
            tracer.end(root)
        finally:
            tracer.restore()
        traced.append(tracer.spans[root].end - tracer.spans[root].start)
        t0 = clock()
        one_pass()
        untraced.append(clock() - t0)
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    values = layer_metrics(tracer, overhead)
    out.metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS if name in values}
    out.unmeasured = unmeasured(tracer)
    out.layers = summarize(tracer.spans)
    out.record.update({"pass_s": {"warm_up": warm, "traced": traced, "untraced": untraced},
                       "untraced_pass_spread": (max(untraced) - min(untraced)) / statistics.median(untraced),
                       "spans": len(tracer.spans)})
    if ctx.trace_path is not None:
        tracer.write(ctx.trace_path)


@contextlib.contextmanager
def _captured():
    """Swallow what the CLI prints, and hand it back for checking."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        yield stdout, stderr


def _open(tracer: Tracer | None, name: str, request: int | None = None) -> int | None:
    if tracer is None or not tracer.installed:
        return None
    if request is not None:
        tracer.request = request
    return tracer.begin(name)


def _close(tracer: Tracer | None, index: int | None) -> None:
    if index is not None:
        tracer.end(index)


def _pad(id_lists: list[list[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([len(ids) for ids in id_lists])
    padded = np.full((len(id_lists), int(lengths.max())), pad_id, dtype=np.int64)
    for r, ids in enumerate(id_lists):
        padded[r, : len(ids)] = ids
    return padded, lengths


def _encode_batched(model, id_lists: list[list[int]], pad_id: int, batch: int = 64) -> np.ndarray:
    """Oracle-side encoding of many glosses in padded batches."""
    rows = []
    for start in range(0, len(id_lists), batch):
        rows.append(np.atleast_2d(model.encode_ids(*_pad(id_lists[start : start + batch], pad_id))))
    return np.concatenate(rows)


# ------------------------------------------------------ query-plain, query-clue


def _split_length(line: str) -> tuple[str, int | None]:
    fields = line.split()
    if len(fields) >= 2 and fields[-2] == "--length":
        return " ".join(fields[:-2]), int(fields[-1])
    return line, None


class _Feeder:
    """stdin for ``revdict query``: hands over the next line only once the last is answered.

    A line is answered when the command asks for the next one, so each
    latency covers encoding, ranking and printing.
    """

    def __init__(self, lines: list[str], more: Callable[[int, float], bool], tracer: Tracer | None):
        self.lines = lines
        self.more = more
        self.tracer = tracer
        self.sent: list[list] = []  # [pool index, sent at, answered at]

    def __iter__(self):
        span = None
        while True:
            now = clock()
            if self.sent:
                self.sent[-1][2] = now
                _close(self.tracer, span)
            if not self.more(len(self.sent), now):
                return
            index = len(self.sent) % len(self.lines)
            span = _open(self.tracer, "bench.line", request=len(self.sent))
            self.sent.append([index, clock(), None])
            yield self.lines[index] + "\n"


@dataclass
class _Session:
    start: float
    sent: list[list]
    code: int | None
    stdout: str
    error: str | None


def _query_session(ctx: Context, lines: list[str], more: Callable[[int, float], bool]) -> _Session:
    feeder = _Feeder(lines, more, ctx.tracer)
    saved = sys.stdin
    code, error = None, None
    start = clock()
    sys.stdin = feeder
    try:
        with _captured() as (stdout, _):
            code = cli.run(["query", "--checkpoint", str(ctx.data / "query.ckpt"), "--topk", str(QUERY_TOPK)])
    except Exception as exc:  # a crash is a measured failure, not the end of the benchmark
        error = f"query raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved
    return _Session(start, feeder.sent, code, stdout.getvalue(), error)


def _check_query_sessions(ctx: Context, out: Outcome, lines: list[str], sessions: list[_Session]) -> None:
    """Every answered line against the numpy ranking; repeats of a line must print the same."""
    first_block: dict[int, list[tuple[str, float]]] = {}
    checks: list[tuple[int, list[tuple[str, float]]]] = []
    for session in sessions:
        answered = [s for s in session.sent if s[2] is not None]
        if session.error or session.code != 0:
            out.fail_many(max(1, len(answered)), session.error or f"query exited {session.code}")
            continue
        try:
            blocks = oracles.parse_blocks(session.stdout)
        except ValueError as exc:
            out.fail_many(len(answered), str(exc))
            continue
        if len(blocks) != len(answered):
            out.fail_many(len(answered), f"{len(blocks)} answer blocks for {len(answered)} lines")
            continue
        for (index, _, _), block in zip(answered, blocks):
            if index in first_block:
                out.check(None if block == first_block[index] else f"line {index}: repeat answered differently")
            else:
                first_block[index] = block
                checks.append((index, block))
    if not checks:
        return
    checkpoint = trainer.load_checkpoint(ctx.data / "query.ckpt")
    table = checkpoint.pretrained
    word_len = np.fromiter((len(w) for w in table.words), dtype=np.int64, count=len(table))
    everyone = np.ones(len(table), dtype=bool)
    parsed = [_split_length(lines[index]) for index, _ in checks]
    ids = [
        tokenizer.encode_gloss(corpus.tokenize(text), checkpoint.vocab, checkpoint.merges,
                               checkpoint.config.segmentation)
        for text, _ in parsed
    ]
    vectors = _encode_batched(checkpoint.model, ids, checkpoint.vocab.pad_id)
    for start in range(0, len(checks), 128):
        scores = oracles.cosine_scores(vectors[start : start + 128], table.matrix)
        for offset, row_scores in enumerate(scores):
            (index, block), (_, length) = checks[start + offset], parsed[start + offset]
            pool = everyone if length is None else word_len == length
            reason = oracles.check_topk(block, row_scores, table.words, table.word_to_row, pool, QUERY_TOPK, length)
            out.check(None if reason is None else f"line {index}: {reason}")


def _run_query(ctx: Context, latency: str) -> Outcome:
    """``revdict query`` in a closed loop; ``latency`` names the per-line percentiles."""
    out = Outcome()
    lines = (ctx.data / "queries.txt").read_text(encoding="utf-8").splitlines()
    sessions: list[_Session] = []

    if ctx.tracer is not None:
        def one_pass() -> None:
            sessions.append(_query_session(ctx, lines, lambda done, now: done < QUERY_TRACE_LINES))

        _traced_passes(ctx, out, one_pass)
        out.record["lines_per_pass"] = QUERY_TRACE_LINES
        _check_query_sessions(ctx, out, lines, sessions)
        return out

    def setup_only() -> None:
        sessions.append(_query_session(ctx, lines, lambda done, now: done < 1))

    _time_setups(setup_only, SETUP_REPS[0] - 1)
    window: dict[str, float] = {}

    def more(done: int, now: float) -> bool:
        if done < QUERY_WARMUP:
            return True
        start = window.setdefault("start", now)
        whole_blocks = (done - QUERY_WARMUP) % QUERY_BLOCK == 0
        return not whole_blocks or (now - start < ctx.seconds and ctx.time_left())

    sessions.append(_query_session(ctx, lines, more))
    main = sessions[-1]
    rss = peak_rss_mb()
    _time_setups(setup_only, SETUP_REPS[1])
    setups = [s.sent[0][2] - s.start for s in sessions if s.sent and s.sent[0][2] is not None]
    measured = [s for s in main.sent[QUERY_WARMUP:] if s[2] is not None]
    blocks = [measured[i : i + QUERY_BLOCK] for i in range(0, len(measured) - QUERY_BLOCK + 1, QUERY_BLOCK)]
    if not blocks or not setups:
        raise RuntimeError(f"revdict query answered no timed block: {main.error or main.code}")
    block_s = [b[-1][2] - b[0][1] for b in blocks]
    out.metrics["throughput_per_s"] = (QUERY_BLOCK / statistics.median(block_s), "1/s")
    _finish_common(out, setups, rss)
    values = [1e3 * (done - sent) for _, sent, done in measured]
    out.report.append((f"{latency}.p50", percentile(values, 50), "ms", f"n={len(values)}"))
    out.report.append((f"{latency}.p90", percentile(values, 90), "ms",
                       f"n={len(values)}, {len(values) - int(0.9 * len(values))} beyond p90"))
    out.record.update({"warmup_lines": QUERY_WARMUP, "block_s": block_s, "timed_lines": len(values)})
    _check_query_sessions(ctx, out, lines, sessions)
    return out


def run_query_plain(ctx: Context) -> Outcome:
    return _run_query(ctx, "query_ms")


def run_query_clue(ctx: Context) -> Outcome:
    return _run_query(ctx, "clue_ms")


# ---------------------------------------------------------- eval-crossword-bpe


def _load_eval(ctx: Context):
    checkpoint = trainer.load_checkpoint(ctx.data / "eval.ckpt")
    clues, _ = corpus.clean_crosswords(corpus.load_crossword_csv(ctx.data / "clues.csv"))
    return checkpoint, [c for c in clues if c.answer in checkpoint.pretrained]


def _evaluate(out: Outcome, checkpoint, items, results: list) -> None:
    try:
        _, records = evaluator.evaluate(checkpoint, items, mode="crossword")
    except Exception as exc:  # counted as failed items, like wrong ranks
        out.fail_many(len(items), f"evaluate raised {type(exc).__name__}: {exc}")
        return
    results.append((items, records))


def _check_eval(out: Outcome, checkpoint, results: list) -> None:
    table = checkpoint.pretrained
    word_len = np.fromiter((len(w) for w in table.words), dtype=np.int64, count=len(table))
    pairs = [(item, record) for items, records in results for item, record in zip(items, records)]
    for items, records in results:
        if len(records) != len(items):
            out.fail_many(len(items), f"{len(records)} rank records for {len(items)} items")
    if not pairs:
        return
    ids = [
        tokenizer.encode_gloss(item.clue, checkpoint.vocab, checkpoint.merges, checkpoint.config.segmentation)
        for item, _ in pairs
    ]
    vectors = _encode_batched(checkpoint.model, ids, checkpoint.vocab.pad_id)
    for start in range(0, len(pairs), 128):
        scores = oracles.cosine_scores(vectors[start : start + 128], table.matrix)
        for (item, record), row_scores in zip(pairs[start : start + 128], scores):
            pool = word_len == item.answer_length
            bounds = oracles.rank_bounds(row_scores, pool, table.word_to_row[item.answer])
            reason = oracles.check_rank(record.rank, record.candidate_count, bounds, int(pool.sum()))
            out.check(None if reason is None else f"clue {' '.join(item.clue)!r}: {reason}")


def _cycle(items: list, start: int, count: int) -> list:
    return [items[(start + i) % len(items)] for i in range(count)]


def run_eval_crossword_bpe(ctx: Context) -> Outcome:
    out = Outcome()
    results: list = []

    if ctx.tracer is not None:
        def one_pass() -> None:
            checkpoint, items = _load_eval(ctx)
            _evaluate(out, checkpoint, items[:1], results)
            _evaluate(out, checkpoint, items[1:EVAL_WARMUP], results)
            for start in range(EVAL_WARMUP, EVAL_WARMUP + EVAL_TRACE_ITEMS, EVAL_CHUNK):
                request = _open(ctx.tracer, "bench.chunk", request=start)
                _evaluate(out, checkpoint, _cycle(items, start, EVAL_CHUNK), results)
                _close(ctx.tracer, request)

        _traced_passes(ctx, out, one_pass)
        out.record.update({"warmup_items": EVAL_WARMUP, "items_per_pass": EVAL_TRACE_ITEMS})
        _check_eval(out, _load_eval(ctx)[0], results)
        return out

    def setup():
        checkpoint, items = _load_eval(ctx)
        _evaluate(out, checkpoint, items[:1], results)  # set-up lasts up to the first answer
        return checkpoint, items

    setups, (checkpoint, items) = _time_setups(setup, SETUP_REPS[0])
    _evaluate(out, checkpoint, items[1:EVAL_WARMUP], results)
    chunks: list[float] = []
    while sum(chunks) < ctx.seconds and ctx.time_left():
        t0 = clock()
        _evaluate(out, checkpoint, _cycle(items, EVAL_WARMUP + EVAL_CHUNK * len(chunks), EVAL_CHUNK), results)
        chunks.append(clock() - t0)
    rate = EVAL_CHUNK / statistics.median(chunks)
    out.metrics["throughput_per_s"] = (rate, "1/s")
    rss = peak_rss_mb()
    del checkpoint
    late, (checkpoint, _) = _time_setups(setup, SETUP_REPS[1])
    _finish_common(out, setups + late, rss)
    out.report.append(("eval_items_per_s", rate, "1/s", f"median of {len(chunks)} chunks of {EVAL_CHUNK} items"))
    out.record.update({"warmup_items": EVAL_WARMUP, "chunk_s": chunks})
    _check_eval(out, checkpoint, results)
    return out


# ------------------------------------------------------------------ train-step


def _load_train(ctx: Context):
    corpus_pairs, _ = corpus.load_definitions(ctx.data / "corpus.tsv")
    train_pairs, _ = corpus.load_definitions(ctx.data / "train.tsv")
    dev_pairs, _ = corpus.load_definitions(ctx.data / "dev.tsv")
    table, _ = embeddings.load_pretrained(ctx.data / "vectors.txt", expected_dim=None)
    vocab = tokenizer.build_word_vocab(Counter(tok for pair in corpus_pairs for tok in pair.gloss))
    return train_pairs, dev_pairs, table, vocab


def _train_config() -> "trainer.TrainConfig":
    return trainer.TrainConfig(
        epochs=TRAIN_EPOCHS, minibatch=16, encoder_mode="average", loss_kind="cosine",
        embed_dim=500, hidden_size=512, seed=1,
    ).validate()


def _train_once(ctx: Context, out: Outcome, loaded, trained: list, warm_up: bool = False) -> float:
    """One ``train`` call, saved the way ``revdict train`` saves it; returns its wall time.

    The warm-up call trains on one minibatch with a short dev pass and saves to
    ``warmup.ckpt``, the others to ``trained.ckpt``.  The result goes to
    ``trained`` for ``_check_trained``, which a traced run calls only after its
    passes, so that the oracle's encodes stay out of the spans.
    """
    train_pairs, dev_pairs, table, vocab = loaded
    pairs, dev = (train_pairs[:TRAIN_WARMUP_PAIRS], dev_pairs[:8]) if warm_up else (train_pairs, dev_pairs)
    t0 = clock()
    try:
        checkpoint, curve = trainer.train(_train_config(), pairs, dev, table, vocab)
    except Exception as exc:  # counted as a failed operation, like a wrong answer
        out.check(f"train raised {type(exc).__name__}: {exc}")
        return clock() - t0
    elapsed = clock() - t0
    trainer.save_checkpoint(ctx.data / ("warmup.ckpt" if warm_up else "trained.ckpt"), checkpoint)
    trained.append((checkpoint, curve, dev))
    return elapsed


def _check_trained(out: Outcome, trained: list) -> None:
    """The returned dev median rank against the oracle's; drops each checked model."""
    while trained:
        checkpoint, curve, dev = trained.pop()
        table, vocab = checkpoint.pretrained, checkpoint.vocab
        everyone = np.ones(len(table), dtype=bool)
        if len(curve) != TRAIN_EPOCHS or curve[-1] != checkpoint.dev_median_rank:
            out.check(f"curve {curve!r} disagrees with checkpoint median {checkpoint.dev_median_rank!r}")
            continue
        ids = [tokenizer.encode_gloss(pair.gloss, vocab) for pair in dev]
        scores = oracles.cosine_scores(_encode_batched(checkpoint.model, ids, vocab.pad_id), table.matrix)
        bounds = [oracles.rank_bounds(s, everyone, table.word_to_row[pair.head]) for s, pair in zip(scores, dev)]
        out.check(oracles.check_median(checkpoint.dev_median_rank, bounds))


def _fresh_model(vocab, table) -> "encoder.DefinitionModel":
    """The model ``train`` starts from: revdict's initialisation from the config's seed."""
    config = _train_config()
    return encoder.DefinitionModel.create(
        vocab_size=len(vocab), pad_id=vocab.pad_id, mode=config.encoder_mode, embed_dim=config.embed_dim,
        hidden=config.hidden_size, output_dim=table.dimension, seed=config.seed,
    )


def _batch(pairs, table, vocab) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ids, lengths = _pad([tokenizer.encode_gloss(p.gloss, vocab) for p in pairs], vocab.pad_id)
    return ids, lengths, table.matrix[[table.word_to_row[p.head] for p in pairs]]


def _mean_loss(model, pairs, table, vocab) -> float:
    total = 0.0
    for start in range(0, len(pairs), 16):
        chunk = pairs[start : start + 16]
        total += len(chunk) * objective.batch_loss(model, *_batch(chunk, table, vocab), "cosine")
    return total / len(pairs)


def _check_training(ctx: Context, out: Outcome, loaded) -> None:
    """Checks that fail when training itself is wrong, on the two saved checkpoints.

    Warm-up call (one minibatch, so one Adam step): the gradient of
    ``objective.backward`` against a central difference of the forward-only
    loss along a random direction, and every trained parameter against one
    reference Adam step on that gradient.  Last full call: every parameter
    array moved, exactly the embedding rows of training tokens moved, and the
    training loss went down.
    """
    train_pairs, _, table, vocab = loaded
    config = _train_config()
    warm = ctx.data / "warmup.ckpt"
    if warm.exists():
        model = _fresh_model(vocab, table)
        params = model.param_dict()
        before = {name: param.copy() for name, param in params.items()}
        batch = _batch(train_pairs[:TRAIN_WARMUP_PAIRS], table, vocab)
        grads = objective.backward(model, *batch, "cosine")[1].as_dict()
        rng = np.random.default_rng(0)
        direction = {name: rng.standard_normal(param.shape) for name, param in before.items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        analytic = float(sum(float(np.sum(grads[name] * d)) for name, d in direction.items()) / norm)
        losses = []
        for sign in (1.0, -1.0):
            for name, param in params.items():
                param[...] = before[name] + (sign * FD_STEP / norm) * direction[name]
            losses.append(objective.batch_loss(model, *batch, "cosine"))
        for name, param in params.items():
            param[...] = before[name]
        out.check(oracles.check_directional((losses[0] - losses[1]) / (2 * FD_STEP), analytic))
        after = trainer.load_checkpoint(warm).model.param_dict()
        out.check(oracles.check_step(before, after, grads, config.learning_rate))
        del model, params, before, grads, direction, after
    last = ctx.data / "trained.ckpt"
    if last.exists():
        fresh = _fresh_model(vocab, table)
        model = trainer.load_checkpoint(last).model
        seen = np.unique([i for p in train_pairs for i in tokenizer.encode_gloss(p.gloss, vocab)])
        out.check(oracles.check_training_moved(
            fresh.param_dict(), model.param_dict(), seen,
            _mean_loss(fresh, train_pairs, table, vocab), _mean_loss(model, train_pairs, table, vocab),
        ))


def run_train_step(ctx: Context) -> Outcome:
    out = Outcome()
    trained: list = []

    if ctx.tracer is not None:
        def one_pass() -> None:
            trained.clear()  # keeps one pass's models in memory, not seven
            loaded = _load_train(ctx)
            _train_once(ctx, out, loaded, trained, warm_up=True)
            request = _open(ctx.tracer, "bench.train", request=1)
            _train_once(ctx, out, loaded, trained)
            _close(ctx.tracer, request)

        _traced_passes(ctx, out, one_pass)
        out.record["warmup_train_calls"] = 1
        _check_trained(out, trained)
        _check_training(ctx, out, _load_train(ctx))
        return out

    setups, loaded = _time_setups(lambda: _load_train(ctx), SETUP_REPS[0])
    _train_once(ctx, out, loaded, trained, warm_up=True)
    _check_trained(out, trained)
    calls: list[float] = []
    while sum(calls) < ctx.seconds and ctx.time_left():
        calls.append(_train_once(ctx, out, loaded, trained))
        _check_trained(out, trained)
    rate = len(loaded[0]) / statistics.median(calls)
    out.metrics["throughput_per_s"] = (rate, "1/s")
    rss = peak_rss_mb()
    setups += _time_setups(lambda: _load_train(ctx), SETUP_REPS[1])[0]
    _finish_common(out, setups, rss)
    out.report.append(("train_pairs_per_s", rate, "1/s",
                       f"median of {len(calls)} train calls of {len(loaded[0])} pairs"))
    out.record.update({"warmup_train_calls": 1, "train_call_s": calls})
    _check_training(ctx, out, loaded)
    return out


# -------------------------------------------------------------------- prep-bpe


def _load_prep(ctx: Context) -> Counter:
    pairs, _ = corpus.load_definitions(ctx.data / "defs.tsv")
    return Counter(tok for pair in pairs for tok in pair.gloss)


def _cli(argv: list[str]) -> str | None:
    """Run one CLI command; returns why it failed (an exception or a non-zero exit), or None."""
    try:
        code = cli.run(argv)
    except Exception as exc:  # counted as a failed operation, like a wrong answer
        return f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"{argv[0]} exited {code}"


def _prep_cycle(ctx: Context, out: Outcome) -> tuple[float, float]:
    """learn-bpe then apply-bpe through the CLI, each checked; returns the two wall times."""
    defs, merges, segmented = (str(ctx.data / n) for n in ("defs.tsv", "merges.txt", "segmented.tsv"))
    with _captured():
        t0 = clock()
        learn_error = _cli(["learn-bpe", "--input", defs, "--output", merges, "--merges", str(PREP_MERGES)])
        t1 = clock()
        apply_error = _cli(["apply-bpe", "--input", defs, "--merges", merges, "--output", segmented])
        t2 = clock()
    out.check(learn_error or _check_merges(ctx))
    out.check(apply_error or _check_segmented(ctx))
    return t1 - t0, t2 - t1


def _check_merges(ctx: Context) -> str | None:
    merges = (ctx.data / "merges.txt").read_text(encoding="utf-8").splitlines()
    return None if len(merges) == PREP_MERGES else f"learn_bpe returned {len(merges)} merges, not {PREP_MERGES}"


def _check_segmented(ctx: Context) -> str | None:
    source = (ctx.data / "defs.tsv").read_text(encoding="utf-8").splitlines()
    output = (ctx.data / "segmented.tsv").read_text(encoding="utf-8").splitlines()
    if len(source) != len(output):
        return f"apply-bpe wrote {len(output)} lines for {len(source)}"
    for before, after in zip(source, output):
        head, _, gloss = before.partition("\t")
        out_head, _, out_gloss = after.partition("\t")
        reason = oracles.check_unsegment(gloss, out_gloss) if head == out_head else f"head {out_head!r} != {head!r}"
        if reason is not None:
            return reason
    return None


def run_prep_bpe(ctx: Context) -> Outcome:
    out = Outcome()
    words = sum(_load_prep(ctx).values())

    if ctx.tracer is not None:
        def one_pass() -> None:
            _load_prep(ctx)
            request = _open(ctx.tracer, "bench.cycle", request=1)
            _prep_cycle(ctx, out)
            _close(ctx.tracer, request)

        _traced_passes(ctx, out, one_pass)
        return out

    setups, _ = _time_setups(lambda: _load_prep(ctx), SETUP_REPS[0])
    learn, apply = [], []
    while sum(learn) + sum(apply) < ctx.seconds and ctx.time_left():
        a, b = _prep_cycle(ctx, out)
        learn.append(a)
        apply.append(b)
    cycle = statistics.median(a + b for a, b in zip(learn, apply))
    out.metrics["throughput_per_s"] = (words / cycle, "1/s")
    rss = peak_rss_mb()
    setups += _time_setups(lambda: _load_prep(ctx), SETUP_REPS[1])[0]
    _finish_common(out, setups, rss)
    out.report.append(("bpe_learn_merges_per_s", PREP_MERGES / statistics.median(learn), "1/s",
                       f"median of {len(learn)} learn-bpe runs"))
    out.report.append(("bpe_apply_words_per_s", words / statistics.median(apply), "1/s",
                       f"median of {len(apply)} apply-bpe runs of {words} words"))
    out.record.update({"learn_s": learn, "apply_s": apply})
    return out


WORKLOADS = {
    "query-plain": run_query_plain,
    "query-clue": run_query_clue,
    "train-step": run_train_step,
    "eval-crossword-bpe": run_eval_crossword_bpe,
    "prep-bpe": run_prep_bpe,
}
