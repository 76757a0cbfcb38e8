"""Spans recorded from outside revdict, and the per-layer metrics made from them.

The tracer replaces a function at the name its caller looks it up by (for
example ``revdict.trainer.backward``, which the training loop calls) with a
wrapper that records a span around the call: name, start, end, parent span
and request id.  Spans stay in memory and are written out once, at the end
of the run.  Nothing under ``src/`` is edited; ``restore`` puts every
original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# (module, attribute, span name): every lookup site of a traced layer.  A site
# that no longer exists is skipped, so the benchmark still runs on a commit that
# renamed or merged the function; the metrics taken from its span are then left
# out, each with the reason, instead of reading 0.
SITES = (
    ("revdict.cli", "run", "cli.run"),
    ("revdict.cli", "load_checkpoint", "trainer.load_checkpoint"),
    ("revdict.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("revdict.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("revdict.trainer", "train", "trainer.train"),
    ("revdict.trainer", "adam_update", "trainer.adam_update"),
    ("revdict.trainer", "backward", "objective.backward"),
    ("revdict.trainer", "bucket_and_batch", "corpus.bucket_and_batch"),
    ("revdict.trainer", "rank_of_correct", "evaluator.rank_of_correct"),
    ("revdict.cli", "load_definitions", "corpus.load_definitions"),
    ("revdict.corpus", "load_definitions", "corpus.load_definitions"),
    ("revdict.corpus", "load_crossword_csv", "corpus.load_crossword_csv"),
    ("revdict.cli", "learn_bpe", "tokenizer.learn_bpe"),
    ("revdict.tokenizer", "segment_word", "tokenizer.segment_word"),
    ("revdict.embeddings", "load_pretrained", "embeddings.load_pretrained"),
    ("revdict.embeddings", "cosine_to_all", "embeddings.cosine_to_all"),
    ("revdict.evaluator", "cosine_to_all", "embeddings.cosine_to_all"),
    ("revdict.cli", "rank_by_cosine", "embeddings.rank_by_cosine"),
    ("revdict.encoder.DefinitionModel", "encode_ids", "encoder.encode_ids"),
    ("revdict.objective", "run_lstm", "encoder.run_lstm"),
    ("revdict.encoder", "run_lstm_states", "encoder.run_lstm_states"),
    ("revdict.evaluator", "evaluate", "evaluator.evaluate"),
    ("revdict.evaluator", "rank_of_correct", "evaluator.rank_of_correct"),
)

# per-layer metrics, each (name, unit, the span it is taken from); the order is the
# order they print in.  A metric whose span has a lookup site missing at a commit is
# not reported at all, rather than as 0, and the reason is printed in its place.
LAYER_METRICS = (
    ("corpus.load_definitions.s", "s", "corpus.load_definitions"),
    ("corpus.bucket_and_batch.s", "s", "corpus.bucket_and_batch"),
    ("corpus.padding_frac", "ratio", "corpus.bucket_and_batch"),
    ("tokenizer.learn_bpe.s", "s", "tokenizer.learn_bpe"),
    ("tokenizer.segment_word.s", "s", "tokenizer.segment_word"),
    ("tokenizer.segment_word.calls", "count", "tokenizer.segment_word"),
    ("tokenizer.segment_word.repeat_frac", "ratio", "tokenizer.segment_word"),
    ("embeddings.load_pretrained.s", "s", "embeddings.load_pretrained"),
    ("embeddings.cosine_to_all.s", "s", "embeddings.cosine_to_all"),
    ("embeddings.rank_by_cosine.self_s", "s", "embeddings.rank_by_cosine"),
    ("embeddings.rank_by_cosine.pool_rows", "rows", "embeddings.rank_by_cosine"),
    ("encoder.encode_ids.s", "s", "encoder.encode_ids"),
    ("encoder.encode_ids.calls", "count", "encoder.encode_ids"),
    ("encoder.run_lstm.s", "s", "encoder.run_lstm"),
    ("encoder.run_lstm_states.s", "s", "encoder.run_lstm_states"),
    ("objective.backward.self_s", "s", "objective.backward"),
    ("trainer.adam_update.s", "s", "trainer.adam_update"),
    ("trainer.load_checkpoint.s", "s", "trainer.load_checkpoint"),
    ("trainer.save_checkpoint.s", "s", "trainer.save_checkpoint"),
    ("evaluator.rank_of_correct.s", "s", "evaluator.rank_of_correct"),
    ("evaluator.rank_of_correct.calls", "count", "evaluator.rank_of_correct"),
    ("trace.overhead_frac", "ratio", None),
    ("trace.remainder_frac", "ratio", None),
)

# spans the benchmark itself opens; their self time is the unattributed remainder
BENCH_PREFIX = "bench."


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    request: int


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.request = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}  # span name -> the lookup site that was not found
        self._stack: list[int] = []
        self._seen_words: set[str] = set()
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget the spans and counters of earlier passes."""
        self.spans.clear()
        self.request = 0
        self.counters.clear()
        self._stack.clear()
        self._seen_words.clear()

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` and any child an exception left open inside it."""
        now = self.clock()
        while self._stack:
            open_index = self._stack.pop()
            self.spans[open_index].end = now
            if open_index == index:
                break

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(index)
        self._observe(name, args, result)
        return result

    def _observe(self, name: str, args, result) -> None:
        """Counts taken where the work happens, from the traced call's own inputs and outputs."""
        if name == "tokenizer.segment_word":
            word = args[0]
            self.counters["segment_word.repeats"] += word in self._seen_words
            self._seen_words.add(word)
        elif name == "embeddings.rank_by_cosine":
            self.counters["rank_by_cosine.pool_rows"] += len(result)
        elif name == "corpus.bucket_and_batch":
            for batch in result:
                self.counters["padding.true"] += float(batch.lengths.sum())
                self.counters["padding.all"] += float(batch.token_ids.size)

    def install(self) -> None:
        """Wrap every traced site; a site missing at this commit is listed in ``missing``."""
        for module_name, attr, span_name in SITES:
            owner = _resolve(module_name)
            if owner is None or not hasattr(owner, attr):
                self.missing[span_name] = f"{module_name}.{attr}"
                continue
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(span_name, original))

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request,
                }) + "\n")


def _resolve(dotted: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` when it is not a module itself."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module_name, _, attr = dotted.rpartition(".")
        try:
            return getattr(importlib.import_module(module_name), attr, None)
        except ImportError:
            return None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
    return dict(table)


def unmeasured(tracer: Tracer) -> dict[str, str]:
    """Per-layer metrics that cannot be taken at this commit, each with the reason."""
    return {
        name: f"lookup site {tracer.missing[span]} not found, so {span} is not traced"
        for name, _, span in LAYER_METRICS
        if span in tracer.missing
    }


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every measurable per-layer metric by name; a layer the workload never reached reads 0.

    ``overhead_frac`` is the traced run's extra wall time, measured by the caller.
    """
    table = summarize(tracer.spans)

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0.0)

    counters = tracer.counters
    segment_calls = get("tokenizer.segment_word", "calls")
    rank_calls = get("embeddings.rank_by_cosine", "calls")
    roots = sum(span.end - span.start for span in tracer.spans if span.parent < 0)
    bench_self = sum(row["self_s"] for name, row in table.items() if name.startswith(BENCH_PREFIX))
    values = {
        "corpus.load_definitions.s": get("corpus.load_definitions", "s"),
        "corpus.bucket_and_batch.s": get("corpus.bucket_and_batch", "s"),
        "corpus.padding_frac": (
            1.0 - counters["padding.true"] / counters["padding.all"] if counters["padding.all"] else 0.0
        ),
        "tokenizer.learn_bpe.s": get("tokenizer.learn_bpe", "s"),
        "tokenizer.segment_word.s": get("tokenizer.segment_word", "s"),
        "tokenizer.segment_word.calls": segment_calls,
        "tokenizer.segment_word.repeat_frac": (
            counters["segment_word.repeats"] / segment_calls if segment_calls else 0.0
        ),
        "embeddings.load_pretrained.s": get("embeddings.load_pretrained", "s"),
        "embeddings.cosine_to_all.s": get("embeddings.cosine_to_all", "s"),
        "embeddings.rank_by_cosine.self_s": get("embeddings.rank_by_cosine", "self_s"),
        "embeddings.rank_by_cosine.pool_rows": (
            counters["rank_by_cosine.pool_rows"] / rank_calls if rank_calls else 0.0
        ),
        "encoder.encode_ids.s": get("encoder.encode_ids", "s"),
        "encoder.encode_ids.calls": get("encoder.encode_ids", "calls"),
        "encoder.run_lstm.s": get("encoder.run_lstm", "s"),
        "encoder.run_lstm_states.s": get("encoder.run_lstm_states", "s"),
        "objective.backward.self_s": get("objective.backward", "self_s"),
        "trainer.adam_update.s": get("trainer.adam_update", "s"),
        "trainer.load_checkpoint.s": get("trainer.load_checkpoint", "s"),
        "trainer.save_checkpoint.s": get("trainer.save_checkpoint", "s"),
        "evaluator.rank_of_correct.s": get("evaluator.rank_of_correct", "s"),
        "evaluator.rank_of_correct.calls": get("evaluator.rank_of_correct", "calls"),
        "trace.overhead_frac": overhead_frac,
        "trace.remainder_frac": bench_self / roots if roots else 0.0,
    }
    for name in unmeasured(tracer):
        values.pop(name, None)
    return values
