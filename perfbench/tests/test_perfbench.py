"""Tests of the benchmark itself: generator, oracles and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import shutil

import numpy as np
import oracles
import pytest
from generate import WORKLOADS, generate
import tracing
from tracing import Span, Tracer, layer_metrics, self_times, summarize


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_byte_identical_for_a_fixed_seed(tmp_path, workload):
    first = generate(workload, 5, tmp_path / "a")
    second = generate(workload, 5, tmp_path / "b")
    other = generate(workload, 6, tmp_path / "c")
    try:
        assert first == second
        assert other["inputs_sha256"] != first["inputs_sha256"]
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    finally:
        shutil.rmtree(tmp_path)


def _ranking_case():
    rng = np.random.default_rng(3)
    words = ["ab", "cde", "fgh", "ijkl", "mno", "pq", "rst", "uvwx", "yz", "abc"]
    matrix = rng.standard_normal((len(words), 4))
    vector = rng.standard_normal((1, 4))
    scores = oracles.cosine_scores(vector, matrix)[0]
    return words, {w: i for i, w in enumerate(words)}, scores


def _true_topk(words, scores, pool, k):
    ranked = sorted((-scores[i], words[i]) for i in np.flatnonzero(pool))[:k]
    return [(w, -neg) for neg, w in ranked]


def test_query_oracle_accepts_the_ranking_and_rejects_a_swapped_top1():
    words, rows, scores = _ranking_case()
    pool = np.ones(len(words), dtype=bool)
    printed = _true_topk(words, scores, pool, 4)
    assert oracles.check_topk(printed, scores, words, rows, pool, 4, None) is None

    swapped_words = [(printed[1][0], printed[0][1]), (printed[0][0], printed[1][1])] + printed[2:]
    assert oracles.check_topk(swapped_words, scores, words, rows, pool, 4, None) is not None
    swapped_pairs = [printed[1], printed[0]] + printed[2:]
    assert oracles.check_topk(swapped_pairs, scores, words, rows, pool, 4, None) is not None
    assert oracles.check_topk(printed[:3], scores, words, rows, pool, 4, None) is not None


def test_query_oracle_rejects_a_wrong_length_clue_answer():
    words, rows, scores = _ranking_case()
    length = 3
    pool = np.array([len(w) == length for w in words])
    printed = _true_topk(words, scores, pool, 10)
    assert oracles.check_topk(printed, scores, words, rows, pool, 10, length) is None

    outsider = next(w for w in words if len(w) != length)
    wrong = printed[:-1] + [(outsider, float(scores[rows[outsider]]))]
    assert "letters" in oracles.check_topk(wrong, scores, words, rows, pool, 10, length)


def test_eval_oracle_rejects_an_off_by_one_rank():
    words, rows, scores = _ranking_case()
    pool = np.array([len(w) == 3 for w in words])
    correct = rows["rst"]
    expected = 1 + sum(1 for i in np.flatnonzero(pool) if scores[i] > scores[correct])
    bounds = oracles.rank_bounds(scores, pool, correct)
    assert bounds == (expected, expected)
    assert oracles.check_rank(expected, int(pool.sum()), bounds, int(pool.sum())) is None
    assert oracles.check_rank(expected + 1, int(pool.sum()), bounds, int(pool.sum())) is not None
    assert oracles.check_rank(expected, int(pool.sum()) + 1, bounds, int(pool.sum())) is not None


def test_rank_bounds_allow_either_order_of_an_exact_tie():
    scores = np.array([0.5, 0.9, 0.5, 0.1])
    pool = np.ones(4, dtype=bool)
    assert oracles.rank_bounds(scores, pool, 0) == (2, 3)
    assert oracles.rank_bounds(scores, pool, 1) == (1, 1)


def test_train_oracle_rejects_a_wrong_dev_median():
    bounds = [(1, 1), (4, 4), (9, 9)]
    assert oracles.check_median(4.0, bounds) is None
    assert oracles.check_median(5.0, bounds) is not None


def _one_step_case():
    rng = np.random.default_rng(4)
    before = {"emb": rng.standard_normal((6, 3)), "proj.w": rng.standard_normal((3, 2))}
    grads = {"emb": rng.standard_normal((6, 3)), "proj.w": rng.standard_normal((3, 2))}
    grads["emb"][[0, 4]] = 0.0  # rows of tokens the batch does not use
    return before, grads


def test_step_oracle_accepts_adam_and_rejects_a_wrong_update():
    before, grads = _one_step_case()
    lr = 1e-3
    # the first Adam step from zero moments, in closed form: lr * g / (|g| + eps)
    after = {name: p - lr * grads[name] / (np.abs(grads[name]) + 1e-8) for name, p in before.items()}
    assert oracles.check_step(before, after, grads, lr) is None

    skipped = dict(after, emb=before["emb"].copy())
    assert "emb" in oracles.check_step(before, skipped, grads, lr)
    plain_sgd = {name: p - lr * grads[name] for name, p in before.items()}
    assert oracles.check_step(before, plain_sgd, grads, lr) is not None
    wrong_row = dict(after, emb=after["emb"].copy())
    wrong_row["emb"][0] -= lr
    assert oracles.check_step(before, wrong_row, grads, lr) is not None


def test_training_oracle_rejects_moved_unseen_rows_unmoved_groups_and_a_rising_loss():
    before, grads = _one_step_case()
    seen = np.array([1, 2, 3, 5])
    after = {name: p - 1e-3 * np.sign(grads[name]) for name, p in before.items()}
    assert oracles.check_training_moved(before, after, seen, 1.0, 0.9) is None

    assert "loss" in oracles.check_training_moved(before, after, seen, 0.9, 0.9)
    frozen = dict(after, **{"proj.w": before["proj.w"]})
    assert "proj.w" in oracles.check_training_moved(before, frozen, seen, 1.0, 0.9)
    leaked = dict(after, emb=after["emb"].copy())
    leaked["emb"][4] += 1e-3
    assert "unseen" in oracles.check_training_moved(before, leaked, seen, 1.0, 0.9)
    assert "did not move" in oracles.check_training_moved(before, after, np.array([0, 1, 2, 3, 5]), 1.0, 0.9)


def test_gradient_oracle_rejects_a_scaled_gradient():
    assert oracles.check_directional(3.0e-4, 3.0e-4 * (1 + 1e-9)) is None
    assert oracles.check_directional(3.0e-4, 1.5e-4) is not None
    assert oracles.check_directional(3.0e-4, -3.0e-4) is not None


def test_apply_oracle_rejects_text_that_does_not_unsegment():
    assert oracles.check_unsegment("commencing now", "comm@@ en@@ cing now") is None
    assert oracles.check_unsegment("commencing now", "comm@@ en@@ cing no") is not None
    assert oracles.check_unsegment("commencing", "commencing@@") is not None


def test_parse_blocks_splits_answers_per_query():
    assert oracles.parse_blocks("a\t0.5\nb\t0.25\n\n\nc\t1.0\n\n") == [
        [("a", 0.5), ("b", 0.25)], [], [("c", 1.0)]
    ]
    with pytest.raises(ValueError):
        oracles.parse_blocks("a\t0.5\n")


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("bench.pass", 0.0, 10.0, -1, 0),
        Span("cli.run", 1.0, 4.0, 0, 1),
        Span("embeddings.rank_by_cosine", 5.0, 9.0, 0, 2),
        Span("embeddings.cosine_to_all", 6.0, 7.5, 2, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.5, 1.5]
    table = summarize(spans)
    assert table["embeddings.rank_by_cosine"] == {"calls": 1, "s": 4.0, "self_s": 2.5}
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_tracer_records_nested_calls_and_the_remainder():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return [1, 2, 3]

    def outer():
        return tracer.call("embeddings.rank_by_cosine", inner)

    root = tracer.begin("bench.pass")  # t=0
    tracer.call("cli.run", outer)  # cli.run 1..4, rank_by_cosine 2..3
    tracer.end(root)  # t=5
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("bench.pass", 0.0, 5.0, -1),
        ("cli.run", 1.0, 4.0, 0),
        ("embeddings.rank_by_cosine", 2.0, 3.0, 1),
    ]
    values = layer_metrics(tracer, overhead_frac=0.25)
    assert values["embeddings.rank_by_cosine.pool_rows"] == 3
    assert values["trace.overhead_frac"] == 0.25
    assert values["trace.remainder_frac"] == 2.0 / 5.0


def test_a_missing_site_leaves_its_metrics_out_with_a_reason(monkeypatch):
    monkeypatch.setattr(tracing, "SITES", tracing.SITES + (("revdict.encoder", "no_such_function", "encoder.fused"),))
    monkeypatch.setattr(tracing, "LAYER_METRICS", tracing.LAYER_METRICS + (("encoder.fused.s", "s", "encoder.fused"),))
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    reasons = tracing.unmeasured(tracer)
    assert list(reasons) == ["encoder.fused.s"]
    assert "revdict.encoder.no_such_function" in reasons["encoder.fused.s"]
    values = layer_metrics(tracer, 0.0)
    assert "encoder.fused.s" not in values
    assert values["encoder.run_lstm_states.s"] == 0.0  # present at this commit, never called here


def test_reset_forgets_the_spans_and_counters_of_a_pass():
    tracer = Tracer()
    tracer.call("tokenizer.segment_word", lambda word: [word], "cat")
    tracer.call("tokenizer.segment_word", lambda word: [word], "cat")
    assert layer_metrics(tracer, 0.0)["tokenizer.segment_word.repeat_frac"] == 0.5
    tracer.reset()
    tracer.call("tokenizer.segment_word", lambda word: [word], "cat")
    values = layer_metrics(tracer, 0.0)
    assert values["tokenizer.segment_word.calls"] == 1
    assert values["tokenizer.segment_word.repeat_frac"] == 0.0
