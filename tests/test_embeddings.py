"""Pretrained table loading and cosine ranking tests."""

import math

import numpy as np
import pytest

from conftest import (
    assert_topk_near_oracle,
    candidates,
    gemv_cosines,
    oracle_rank_bounds,
    rescored_cosines,
)
from revdict.embeddings import (
    NORM_BLOCK_ROWS,
    PretrainedTable,
    band_width,
    cosine_to_all,
    load_pretrained,
    rank_by_cosine,
)
from revdict.errors import DataError, NonFiniteLossError
from revdict.evaluator import rank_of_correct


def write_vectors(path, rows):
    with open(path, "w") as handle:
        for word, vec in rows:
            handle.write(word + " " + " ".join(str(x) for x in vec) + "\n")


class TestLoadPretrained:
    def test_keeps_good_rows_and_counts_rejects(self, tmp_path):
        path = tmp_path / "vecs.txt"
        write_vectors(
            path,
            [
                ("cat", [0.1, 0.2, 0.3]),
                ("short", [1.0, 2.0]),  # wrong dimension
                ("zero", [0.0, 0.0, 0.0]),  # zero norm
                ("cat", [9.0, 9.0, 9.0]),  # duplicate, first wins
                ("dog", [1.0, 0.0, 0.0]),
            ],
        )
        table, stats = load_pretrained(path, expected_dim=3)
        assert table.words == ["cat", "dog"]
        assert stats.kept == 2
        assert stats.dim_mismatch == 1
        assert stats.zero_norm == 1
        assert stats.duplicates == 1
        assert stats.non_finite == 0
        np.testing.assert_array_equal(table.matrix[table.word_to_row["cat"]], [0.1, 0.2, 0.3])
        assert "emu" not in table
        assert "dog" in table and len(table) == 2

    def test_unparseable_floats_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 0.1 oops 0.3\n\nlone\ndog 1 0 0\n")  # a blank line is skipped, a bare word is malformed
        table, stats = load_pretrained(path, expected_dim=3)
        assert table.words == ["dog"]
        assert stats.dim_mismatch == 2

    def test_non_finite_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 0.1 0.2 0.3\nbig inf 0 0\nodd 1 nan 0\nhuge 1e200 1e200 0\ndog 1 0 0\n")
        table, stats = load_pretrained(path, expected_dim=3)
        assert table.words == ["cat", "dog"]
        assert stats.non_finite == 3  # the last one's entries are finite, its norm is not
        assert stats.zero_norm == stats.dim_mismatch == stats.duplicates == 0
        assert np.all(np.isfinite(table.norms))

    def test_all_rows_non_finite_is_an_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat inf 0\ndog nan 1\n")
        with pytest.raises(DataError, match=r"no usable embedding rows \(0 malformed, 2 non-finite, 0 zero-norm\)"):
            load_pretrained(path, expected_dim=2)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.raises(DataError):
            load_pretrained(path, expected_dim=3)


def toy_table():
    words = ["alpha", "beta", "cat", "mouse"]
    matrix = np.array(
        [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.6, 0.8, 0.0],
            [0.0, 0.0, 2.0],
        ]
    )
    return PretrainedTable.from_arrays(words, matrix)


class TestRanking:
    def test_self_similarity_ranks_first(self):
        table = toy_table()
        ranked = rank_by_cosine(table.matrix[table.word_to_row["cat"]], table, topk=len(table))
        assert ranked[0][0] == "cat"
        assert ranked[0][1] == pytest.approx(1.0)

    def test_exact_ties_break_lexicographically(self):
        table = toy_table()
        # query along z: cosine 0 with alpha, beta, cat alike
        ranked = rank_by_cosine(np.array([0.0, 0.0, 1.0]), table, topk=len(table))
        assert [w for w, _ in ranked] == ["mouse", "alpha", "beta", "cat"]

    def test_zero_norm_query_rejected(self):
        with pytest.raises(NonFiniteLossError, match="zero-norm query vector"):
            rank_by_cosine(np.zeros(3), toy_table(), topk=1)

    def test_non_finite_query_is_a_numeric_error(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteLossError):
                rank_by_cosine(np.array([1.0, bad, 0.0]), toy_table(), topk=1)

    @pytest.mark.parametrize("length", [2, 4, 6])  # below, between and above the lengths 3 and 5
    def test_bad_query_fails_with_an_absent_length(self, length):
        # an empty span is still scored through cosine_to_all, so the query checks hold
        table = PretrainedTable.from_arrays(["alpha", "cat", "mouse"], np.eye(3))
        assert table.candidate_rows(length) == slice(0, 0)
        assert rank_by_cosine(np.ones(3), table, topk=1, answer_length=length) == []
        with pytest.raises(NonFiniteLossError, match="zero-norm query vector"):
            rank_by_cosine(np.zeros(3), table, topk=1, answer_length=length)
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteLossError, match="non-finite query vector"):
                rank_by_cosine(np.array([1.0, bad, 0.0]), table, topk=1, answer_length=length)

    def test_ordering_invariant_under_query_scaling(self):
        table = toy_table()
        q = np.array([0.3, -0.2, 0.9])
        assert [w for w, _ in rank_by_cosine(q, table, topk=len(table))] == [
            w for w, _ in rank_by_cosine(2.0 * q, table, topk=len(table))
        ]

    def test_filter_restricts_candidates(self):
        table = toy_table()
        q = np.array([1.0, 1.0, 1.0])
        only3 = rank_by_cosine(q, table, topk=len(table), answer_length=3)
        assert [w for w, _ in only3] == ["cat"]
        top_all = rank_by_cosine(q, table, topk=1)[0][1]
        assert top_all >= only3[0][1]

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(2024)
        words = [f"w{i:03d}" for i in range(100)]
        matrix = rng.normal(size=(100, 8))
        table = PretrainedTable.from_arrays(words, matrix)
        q = rng.normal(size=8)

        def brute(query):
            scored = []
            nq = math.sqrt(sum(float(x) * float(x) for x in query))
            for w, row in zip(words, matrix):
                dot = sum(float(a) * float(b) for a, b in zip(query, row))
                nv = math.sqrt(sum(float(b) * float(b) for b in row))
                scored.append((w, dot / (nq * nv)))
            scored.sort(key=lambda t: (-t[1], t[0]))
            return scored

        ranked = rank_by_cosine(q, table, topk=len(table))
        expect = brute(q)
        assert [w for w, _ in ranked] == [w for w, _ in expect]
        np.testing.assert_allclose(
            [s for _, s in ranked], [s for _, s in expect], atol=1e-12
        )

    def test_topk_and_length_on_the_toy_table(self):
        table = toy_table()
        q = np.array([0.0, 0.0, 1.0])  # mouse, then alpha, beta, cat tied at 0
        assert [w for w, _ in rank_by_cosine(q, table, topk=2)] == ["mouse", "alpha"]
        assert [w for w, _ in rank_by_cosine(q, table, answer_length=4, topk=1)] == ["beta"]
        assert rank_by_cosine(q, table, answer_length=7, topk=3) == []
        with pytest.raises(ValueError):
            rank_by_cosine(q, table, topk=0)

    def test_constructor_refuses_a_non_finite_row(self):
        # an inf vector would score nan against every query, so no table can hold one
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="non-finite vector in table"):
            PretrainedTable(["a", "b", "c", "d"], matrix)

    def test_cosine_to_all_matches_lookup_geometry(self):
        table = toy_table()
        scores = cosine_to_all(np.array([0.6, 0.8, 0.0]), table)
        assert scores[table.word_to_row["cat"]] == pytest.approx(1.0)
        assert scores[table.word_to_row["mouse"]] == pytest.approx(0.0)

    def test_batched_queries_score_row_by_row(self, tied_tables):
        # a (..., D) block of queries scores each row against its own norm,
        # as one query at a time does, to the last bits of a GEMM row
        for table, _ in tied_tables:
            queries = np.random.default_rng(7).normal(size=(2, 3, table.dimension))
            queries[0, 1] *= 1e3
            scores = cosine_to_all(queries, table)
            assert scores.shape == (2, 3, len(table))
            for row, query in zip(scores.reshape(6, -1), queries.reshape(6, -1)):
                np.testing.assert_allclose(row, cosine_to_all(query, table), rtol=0, atol=1e-15)

    def test_one_bad_row_fails_the_block(self):
        queries = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NonFiniteLossError, match="zero-norm query vector"):
            cosine_to_all(queries, toy_table())
        queries[1, 2] = np.nan
        with pytest.raises(NonFiniteLossError, match="non-finite query vector"):
            cosine_to_all(queries, toy_table())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
def test_from_arrays_rejects_non_finite_rows(bad):
    matrix = np.array([[1.0, 0.0], [bad, bad]])
    with pytest.raises(ValueError, match="non-finite vector in table"):
        PretrainedTable.from_arrays(["a", "b"], matrix)


def test_load_pretrained_infers_width_from_first_row(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1.0 0.5 0.25\ndog 0.1 0.2\nowl 0.0 1.0 2.0\n")
    table, stats = load_pretrained(path, expected_dim=None)
    assert table.dimension == 3
    assert table.words == ["cat", "owl"]
    assert stats.dim_mismatch == 1


def sort_everything(query, table, candidate_filter=None):
    """The ranking with no screen and no cut: every row rescored, a filter loop, then a sort of the whole pool."""
    scores = rescored_cosines(query, table)
    if candidate_filter is None:
        pool = range(len(table.words))
    else:
        pool = [i for i, w in enumerate(table.words) if candidate_filter(w)]
    return sorted(((table.words[i], float(scores[i])) for i in pool), key=lambda ws: (-ws[1], ws[0]))


def test_tied_tables_have_exact_ties(tied_tables):
    for table, queries in tied_tables:
        for q in queries:
            scores = rescored_cosines(q, table)
            assert np.unique(scores).size < len(table)
        (_, best), (_, second) = sort_everything(queries[1], table)[:2]
        assert best == second == pytest.approx(1.0)  # a copied row and its copy share the top


def test_partial_selection_matches_the_full_sort(tied_tables):
    cut_inside_a_tie = 0
    for table, queries in tied_tables:
        present = list(table.spans)
        absent = max(present) + 1
        for q in queries:
            for length in [None, *present, absent]:
                keep = None if length is None else (lambda w, n=length: len(w) == n)
                expected = sort_everything(q, table, keep)
                pool = len(expected)
                assert len(table.words[table.candidate_rows(length)]) == pool
                # every k that cuts a group of exactly equal scores in two
                inside = [k for k in range(1, pool) if expected[k - 1][1] == expected[k][1]]
                cut_inside_a_tie += len(inside)
                for topk in [1, *inside, max(pool, 1), pool + 3]:
                    got = rank_by_cosine(q, table, answer_length=length, topk=topk)
                    assert got == expected[:topk], (length, topk)
    assert cut_inside_a_tie > 0


def test_span_ranking_matches_the_full_table_oracle(tied_sources, tied_tables):
    # from_arrays sorts the shuffled input by length and rank_by_cosine screens one
    # length's span; the oracle scores the shuffled input whole with the float64
    # GEMV and filters after.  Each table is also tried without its 3-letter words,
    # so a length is missing between two present ones.
    for (words, matrix), (_, queries) in zip(tied_sources, tied_tables):
        no_threes = [i for i, w in enumerate(words) if len(w) != 3]
        for words, matrix in ((words, matrix), ([words[i] for i in no_threes], matrix[no_threes])):
            table = PretrainedTable.from_arrays(words, matrix)
            longest = max(map(len, words))
            for q in queries:
                scores = gemv_cosines(q, matrix)
                for length in [None, *range(longest + 2)]:  # 0 and longest + 1 are absent
                    pool = candidates(words, length)
                    for topk in [1, 2, 5, max(pool.size, 1), pool.size + 3]:
                        got = rank_by_cosine(q, table, answer_length=length, topk=topk)
                        assert_topk_near_oracle(got, words, scores, pool, topk)


def adversarial_arrays(kind, dim=500):
    """Words of 1-6 letters in no length order and rows built to defeat a screen, by ``kind``.

    duplicates: exact copies of rows, some scaled by 2 or 2^40, under other words
    (their cosines tie exactly); ulp: copies with one entry moved by one ulp;
    extremes: rows with entries near 1e150, rows mixing entries near 1e-300 with
    ordinary ones, and a row of entries near 1e-160 whose squares are subnormal;
    one-row: a table of a single row.
    """
    rng = np.random.default_rng(["duplicates", "ulp", "extremes", "one-row"].index(kind))
    rows = 1 if kind == "one-row" else 60
    words = []
    while len(words) < rows:
        word = "".join(rng.choice(list("abcdefgh"), size=int(rng.integers(1, 7))))
        if word not in words:
            words.append(word)
    matrix = rng.normal(size=(rows, dim))
    if kind == "duplicates":
        matrix[30:] = matrix[rng.integers(0, 30, size=30)] * rng.choice([1.0, 2.0, 2.0**40], size=(30, 1))
    elif kind == "ulp":
        matrix[30:] = matrix[rng.integers(0, 30, size=30)]
        at = rng.integers(0, dim, size=30)
        matrix[30 + np.arange(30), at] = np.nextafter(matrix[30 + np.arange(30), at], rng.choice([-np.inf, np.inf]))
    elif kind == "extremes":
        matrix[:10] *= 1e150
        matrix[10:20, 5:] *= 1e-300
        matrix[20] = rng.uniform(1.0, 2.0, size=dim) * 1e-160
    return words, matrix


@pytest.mark.parametrize("kind", ["duplicates", "ulp", "extremes", "one-row"])
def test_ranking_matches_the_gemv_oracle_on_adversarial_tables(kind):
    # the band must lose nothing: rank_by_cosine equals rescoring and sorting every
    # candidate, bit for bit, and agrees with the float64 GEMV up to near-ties;
    # rank_of_correct equals the count over every rescored row and lies within
    # the GEMV's rank bounds
    words, matrix = adversarial_arrays(kind)
    table = PretrainedTable.from_arrays(words, matrix)
    rng = np.random.default_rng(5)
    queries = [rng.normal(size=table.dimension), matrix[0], matrix[-1] * 3.0, table.matrix[len(table) // 2]]
    for q in queries:
        gemv, exact = gemv_cosines(q, matrix), rescored_cosines(q, table)
        assert np.all(np.abs(cosine_to_all(q, table) - gemv_cosines(q, table.matrix)) <= band_width(q, table) / 2)
        for length in [None, *range(8)]:
            pool, span = candidates(words, length), table.candidate_rows(length)
            ordered = sorted(zip(table.words[span], exact[span].tolist()), key=lambda ws: (-ws[1], ws[0]))
            for topk in sorted({1, 2, 3, 10, max(pool.size, 1), pool.size + 3}):
                got = rank_by_cosine(q, table, answer_length=length, topk=topk)
                assert got == ordered[:topk], (length, topk)
                assert_topk_near_oracle(got, words, gemv, pool, topk)
            screen = cosine_to_all(q, table, span)
            for word in table.words[span]:
                record = rank_of_correct(q, screen, table, word, length)
                mine = exact[table.word_to_row[word]]
                count = 1 + sum(s > mine or (s == mine and w < word) for w, s in ordered)
                assert record.rank == count, (word, length)
                low, high = oracle_rank_bounds(words, gemv, pool, word)
                assert low <= record.rank <= high, (word, length)


def test_band_width_is_the_float32_bound_at_paper_width():
    # δ ≈ γ_500(2^-24) + 2^-23 ≈ 2.99e-5 and ε ≈ 5.7e-14 for ordinary norms
    table = PretrainedTable.from_arrays(["a", "b"], np.random.default_rng(0).normal(size=(2, 500)))
    width = band_width(np.ones(500), table)
    assert 2 * 2.99e-5 < width < 2 * 3.0e-5
    # squares near the smallest subnormal: the norm may understate the row, and the width grows
    tiny = PretrainedTable.from_arrays(["c", *table.words], np.vstack([np.full(500, 3e-162), table.matrix]))
    assert width < band_width(np.ones(500), tiny) < math.inf
    # a product of norms that may round as a subnormal bounds nothing: every row is rescored
    q = np.full(500, 1e-150)
    assert band_width(q, tiny) == math.inf
    exact = rescored_cosines(q, tiny)
    assert rank_by_cosine(q, tiny, topk=1) == [min(zip(tiny.words, exact.tolist()), key=lambda ws: (-ws[1], ws[0]))]


def test_from_arrays_orders_rows_by_length_in_input_order(tied_sources):
    for words, matrix in tied_sources:
        table = PretrainedTable.from_arrays(words, matrix)
        assert table.words == sorted(words, key=len)  # a stable sort keeps the input order within a length
        assert table.word_to_row == {w: i for i, w in enumerate(table.words)}
        np.testing.assert_array_equal(table.matrix, matrix[[words.index(w) for w in table.words]])
        np.testing.assert_array_equal(table.norms, np.linalg.norm(table.matrix, axis=1))
        for length in range(max(map(len, words)) + 2):
            rows = table.candidate_rows(length)
            assert table.words[rows] == [w for w in words if len(w) == length]
            assert np.shares_memory(table.matrix[rows], table.matrix) or rows.start == rows.stop


def test_from_arrays_keeps_an_ordered_matrix_in_place(tied_sources):
    words, matrix = tied_sources[0]
    ordered = PretrainedTable.from_arrays(words, matrix)
    again = PretrainedTable.from_arrays(ordered.words, ordered.matrix)
    assert again.matrix is ordered.matrix
    assert np.shares_memory(again.matrix, ordered.matrix)
    assert not np.shares_memory(ordered.matrix, matrix)  # the shuffled input had to be copied


@pytest.mark.parametrize(
    "rows", [1, NORM_BLOCK_ROWS, 2 * NORM_BLOCK_ROWS + 37], ids=["one-row", "one-block", "partial-last-block"]
)
def test_blocked_norms_equal_the_whole_table_norm_bitwise(rows):
    # entries over many magnitudes, and rows wide enough for pairwise summation
    rng = np.random.default_rng(rows)
    matrix = rng.normal(size=(rows, 300)) * np.exp(rng.uniform(-20, 20, size=(rows, 1)))
    table = PretrainedTable.from_arrays([f"w{i:05d}" for i in range(rows)], matrix)
    assert table.norms.tobytes() == np.linalg.norm(matrix, axis=1).tobytes()


def test_rows_out_of_length_order_are_refused():
    with pytest.raises(ValueError, match="not in word-length order"):
        PretrainedTable(["bee", "ox"], np.eye(2))


@pytest.mark.parametrize(
    "words, matrix, message",
    [
        (["ox", "bee"], np.eye(3), r"matrix must be \(len\(words\), D\)"),
        (["ox", "bee"], np.ones(2), r"matrix must be \(len\(words\), D\)"),
        (["ox", "ox"], np.eye(2), "duplicate words in table"),
        (["ox", "bee"], np.array([[1.0, 0.0], [0.0, 0.0]]), "zero-norm vector in table"),
    ],
    ids=["rows", "one-dimensional", "duplicate", "zero-norm"],
)
def test_constructor_refuses_a_broken_table(words, matrix, message):
    with pytest.raises(ValueError, match=message):
        PretrainedTable(words, matrix)


def test_constructor_derives_the_row_index():
    table = PretrainedTable(["ox", "bee", "cat"], np.eye(3))
    assert table.word_to_row == {"ox": 0, "bee": 1, "cat": 2}
    assert table.spans == {2: slice(0, 1), 3: slice(1, 3)}


def test_load_pretrained_stacks_rows_in_length_order(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("mouse 1 0\ncat 0 1\nox 1 1\ndog 2 1\nbee 1 2\nhorse 3 1\n")
    table, _ = load_pretrained(path, expected_dim=2)
    assert table.words == ["ox", "cat", "dog", "bee", "mouse", "horse"]
    np.testing.assert_array_equal(table.matrix, [[1, 1], [0, 1], [2, 1], [1, 2], [1, 0], [3, 1]])
    assert table.word_to_row["bee"] == 3
    assert [table.candidate_rows(n) for n in (1, 2, 3, 4, 5, 6)] == [
        slice(0, 0), slice(0, 1), slice(1, 4), slice(0, 0), slice(4, 6), slice(0, 0)
    ]
