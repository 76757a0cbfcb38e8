"""Pretrained table loading and cosine ranking tests."""

import math

import numpy as np
import pytest

from revdict.embeddings import (
    NORM_BLOCK_ROWS,
    PretrainedTable,
    cosine_to_all,
    load_pretrained,
    rank_by_cosine,
)
from revdict.errors import DataError, NonFiniteLossError


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
        ranked = rank_by_cosine(table.matrix[table.word_to_row["cat"]], table)
        assert ranked[0][0] == "cat"
        assert ranked[0][1] == pytest.approx(1.0)

    def test_exact_ties_break_lexicographically(self):
        table = toy_table()
        # query along z: cosine 0 with alpha, beta, cat alike
        ranked = rank_by_cosine(np.array([0.0, 0.0, 1.0]), table)
        assert [w for w, _ in ranked] == ["mouse", "alpha", "beta", "cat"]

    def test_zero_norm_query_rejected(self):
        with pytest.raises(ValueError):
            rank_by_cosine(np.zeros(3), toy_table())

    def test_non_finite_query_is_a_numeric_error(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteLossError):
                rank_by_cosine(np.array([1.0, bad, 0.0]), toy_table())

    @pytest.mark.parametrize("length", [2, 4, 6])  # below, between and above the lengths 3 and 5
    def test_bad_query_fails_with_an_absent_length(self, length):
        # an empty span is still scored through cosine_to_all, so the query checks hold
        table = PretrainedTable.from_arrays(["alpha", "cat", "mouse"], np.eye(3))
        assert table.candidate_rows(length) == slice(0, 0)
        assert rank_by_cosine(np.ones(3), table, answer_length=length) == []
        with pytest.raises(ValueError, match="zero-norm query"):
            rank_by_cosine(np.zeros(3), table, answer_length=length)
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteLossError, match="non-finite query vector"):
                rank_by_cosine(np.array([1.0, bad, 0.0]), table, answer_length=length)

    def test_ordering_invariant_under_query_scaling(self):
        table = toy_table()
        q = np.array([0.3, -0.2, 0.9])
        assert [w for w, _ in rank_by_cosine(q, table)] == [
            w for w, _ in rank_by_cosine(2.0 * q, table)
        ]

    def test_filter_restricts_candidates(self):
        table = toy_table()
        q = np.array([1.0, 1.0, 1.0])
        only3 = rank_by_cosine(q, table, answer_length=3)
        assert [w for w, _ in only3] == ["cat"]
        top_all = rank_by_cosine(q, table)[0][1]
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

        ranked = rank_by_cosine(q, table)
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
        with pytest.raises(ValueError, match="zero-norm query"):
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
    """The ranking ``rank_by_cosine`` replaced: a filter loop, then a sort of the whole pool."""
    scores = cosine_to_all(query, table)
    if candidate_filter is None:
        pool = range(len(table.words))
    else:
        pool = [i for i, w in enumerate(table.words) if candidate_filter(w)]
    return sorted(((table.words[i], float(scores[i])) for i in pool), key=lambda ws: (-ws[1], ws[0]))


def test_tied_tables_have_exact_ties(tied_tables):
    for table, queries in tied_tables:
        for q in queries:
            scores = cosine_to_all(q, table)
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
                for topk in [None, 1, *inside, max(pool, 1), pool + 3]:
                    got = rank_by_cosine(q, table, answer_length=length, topk=topk)
                    assert got == expected[:topk], (length, topk)
    assert cut_inside_a_tie > 0


def full_table_rank_by_cosine(query, words, matrix, answer_length=None, topk=None):
    """``rank_by_cosine`` before rows were kept in length order: every row of ``matrix``, in any
    order, is scored, and then a ``flatnonzero`` over the word lengths picks the candidates."""
    qnorm = np.sqrt(query[..., None, :] @ query[..., :, None])[..., 0, 0]
    scores = (query @ matrix.T) / (qnorm[..., None] * np.linalg.norm(matrix, axis=1))
    rows = np.arange(len(words))
    if answer_length is not None:
        rows = np.flatnonzero(np.array([len(w) for w in words]) == answer_length)
    if topk is not None and topk < rows.size:
        pool = scores[rows]
        kth = -np.partition(-pool, topk - 1)[topk - 1]
        rows = rows[pool >= kth]
    ranked = sorted(((words[i], float(scores[i])) for i in rows), key=lambda ws: (-ws[1], ws[0]))
    return ranked[:topk]


def test_span_ranking_matches_the_full_table_oracle(tied_sources, tied_tables):
    # from_arrays sorts the shuffled input by length and rank_by_cosine scores one
    # length's span; the oracle scores the shuffled input whole and filters after.
    # Each table is also tried without its 3-letter words, so a length is missing
    # between two present ones.
    cut_inside_a_tie = 0
    for (words, matrix), (_, queries) in zip(tied_sources, tied_tables):
        no_threes = [i for i, w in enumerate(words) if len(w) != 3]
        for words, matrix in ((words, matrix), ([words[i] for i in no_threes], matrix[no_threes])):
            table = PretrainedTable.from_arrays(words, matrix)
            longest = max(map(len, words))
            for q in queries:
                for length in [None, *range(longest + 2)]:  # 0 and longest + 1 are absent
                    expected = full_table_rank_by_cosine(q, words, matrix, length)
                    inside = [k for k in range(1, len(expected)) if expected[k - 1][1] == expected[k][1]]
                    cut_inside_a_tie += len(inside)
                    for topk in [None, 1, *inside, max(len(expected), 1), len(expected) + 3]:
                        got = rank_by_cosine(q, table, answer_length=length, topk=topk)
                        assert got == full_table_rank_by_cosine(q, words, matrix, length, topk), (length, topk)
    assert cut_inside_a_tie > 0


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
