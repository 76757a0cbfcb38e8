"""Plain-numpy oracles for the benchmark's outputs.

Each check returns None when the output is right and a one-line reason when
it is not; the caller counts every reason as a failed operation.

Scores are recomputed here from the encoded vectors with numpy alone.  The
oracle encodes in padded batches, which may round differently in the last
bits from the program's one-at-a-time encode, so two scores closer than
``TOL`` count as tied: a tie may be broken either way, and nothing else may
differ.  With Gaussian head vectors such near-ties practically never occur,
so in practice every check is exact.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
# Adam as published (Kingma and Ba, 2015, Algorithm 1), with its default constants
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# a trained parameter may differ from the reference step by this share of the learning rate
STEP_TOL = 1e-6
# relative tolerance between a central difference of the loss and the gradient's dot product
GRAD_RTOL = 1e-6


def cosine_scores(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(n, rows) cosine of every vector against every table row."""
    unit_rows = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    unit_vectors = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    return unit_vectors @ unit_rows.T


def check_topk(
    printed: list[tuple[str, float]],
    scores: np.ndarray,
    words: list[str],
    word_to_row: dict[str, int],
    pool: np.ndarray,
    k: int,
    length: int | None,
) -> str | None:
    """Printed top-k against the full ranking of ``pool`` rows by (-cosine, word)."""
    if length is not None:
        for word, _ in printed:
            if len(word) != length:
                return f"answer {word!r} has {len(word)} letters, not {length}"
    pool_rows = np.flatnonzero(pool)
    want = min(k, pool_rows.size)
    if len(printed) != want:
        return f"printed {len(printed)} answers, expected {want}"
    if want == 0:
        return None
    pool_scores = scores[pool_rows]
    threshold = np.partition(pool_scores, pool_scores.size - want)[pool_scores.size - want]
    # every row of the full ranking's top k scores at least the k-th best score
    near = pool_rows[pool_scores >= threshold - TOL]
    expected = sorted(((-float(scores[r]), words[r]) for r in near))[:want]
    seen = set()
    for position, ((word, score), (neg_best, best_word)) in enumerate(zip(printed, expected), 1):
        row = word_to_row.get(word)
        if row is None or not pool[row]:
            return f"rank {position}: {word!r} is not a candidate"
        if word in seen:
            return f"rank {position}: {word!r} printed twice"
        seen.add(word)
        if abs(score - scores[row]) > TOL:
            return f"rank {position}: {word!r} printed score {score!r}, oracle {float(scores[row])!r}"
        if word != best_word and abs(scores[row] + neg_best) > TOL:
            return f"rank {position}: {word!r}, oracle ranks {best_word!r} there"
    return None


def rank_bounds(scores: np.ndarray, pool: np.ndarray, correct_row: int) -> tuple[int, int]:
    """Lowest and highest 1-based rank of ``correct_row`` among ``pool`` rows.

    The two agree unless another candidate scores within TOL of the correct
    one; exact ties are broken by word, which both bounds allow for.
    """
    target = scores[correct_row]
    others = pool.copy()
    others[correct_row] = False
    above = int(np.count_nonzero(others & (scores > target + TOL)))
    near = int(np.count_nonzero(others & (np.abs(scores - target) <= TOL)))
    return 1 + above, 1 + above + near


def check_rank(rank: int, candidate_count: int, bounds: tuple[int, int], pool_size: int) -> str | None:
    if candidate_count != pool_size:
        return f"{candidate_count} candidates, oracle pool has {pool_size}"
    low, high = bounds
    if not low <= rank <= high:
        return f"rank {rank}, oracle rank {low}" + (f"..{high}" if high != low else "")
    return None


def check_median(reported: float, bounds: list[tuple[int, int]]) -> str | None:
    low = float(np.median([b[0] for b in bounds]))
    high = float(np.median([b[1] for b in bounds]))
    if not low <= reported <= high:
        return f"dev median rank {reported!r}, oracle {low!r}" + (f"..{high!r}" if high != low else "")
    return None


def adam_first_step(param: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """``param`` after one Adam step from zero moments on gradient ``grad``."""
    m = (1.0 - ADAM_BETA1) * grad
    v = (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1)
    v_hat = v / (1.0 - ADAM_BETA2)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def check_step(
    before: dict[str, np.ndarray], after: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
) -> str | None:
    """Parameters after one training step against one reference Adam step on ``grads``."""
    if set(after) != set(before) or set(grads) != set(before):
        return f"parameter names {sorted(after)} / gradient names {sorted(grads)}, expected {sorted(before)}"
    for name, param in before.items():
        worst = float(np.max(np.abs(after[name] - adam_first_step(param, grads[name], lr))))
        if not worst <= STEP_TOL * lr:
            return f"{name}: one training step is off the reference Adam step by up to {worst:.3g} (lr {lr})"
    return None


def check_directional(finite_difference: float, analytic: float) -> str | None:
    """A central difference of the loss along a direction against the gradient's dot product with it."""
    if not abs(finite_difference - analytic) <= GRAD_RTOL * max(abs(finite_difference), abs(analytic)):
        return f"gradient along a random direction is {analytic!r}, the loss changes at {finite_difference!r}"
    return None


def check_training_moved(
    before: dict[str, np.ndarray],
    after: dict[str, np.ndarray],
    seen_rows: np.ndarray,
    loss_before: float,
    loss_after: float,
) -> str | None:
    """What any correct training run does to a fresh model.

    Every parameter array changes; an embedding row changes exactly when its
    token occurs in a training gloss (Adam never moves a row whose gradient
    was always zero); and the training loss goes down.
    """
    for name, param in before.items():
        if name not in after or np.array_equal(param, after[name]):
            return f"{name} did not change in training"
    moved = np.any(before["emb"] != after["emb"], axis=1)
    seen = np.zeros(moved.shape, dtype=bool)
    seen[seen_rows] = True
    if np.any(moved & ~seen):
        return f"{int(np.count_nonzero(moved & ~seen))} embedding rows of unseen tokens moved, e.g. row {int(np.flatnonzero(moved & ~seen)[0])}"
    if np.any(seen & ~moved):
        return f"{int(np.count_nonzero(seen & ~moved))} embedding rows of training tokens did not move, e.g. row {int(np.flatnonzero(seen & ~moved)[0])}"
    if not loss_after < loss_before:
        return f"training loss went from {loss_before!r} to {loss_after!r}"
    return None


def check_unsegment(original: str, segmented: str) -> str | None:
    """A segmented gloss must turn back into the original by dropping the "@@ " joins."""
    if segmented.replace("@@ ", "") != original:
        return f"{segmented!r} does not unsegment to {original!r}"
    if segmented.endswith("@@") or "@@@@" in segmented:
        return f"{segmented!r} has a dangling continuation mark"
    return None


def parse_blocks(text: str) -> list[list[tuple[str, float]]]:
    """``word<TAB>score`` lines, one block per query, each block ended by a blank line."""
    blocks: list[list[tuple[str, float]]] = []
    current: list[tuple[str, float]] = []
    for line in text.split("\n")[:-1]:
        if not line:
            blocks.append(current)
            current = []
            continue
        word, _, score = line.partition("\t")
        current.append((word, float(score)))
    if current:
        raise ValueError("output ends inside a query block")
    return blocks
