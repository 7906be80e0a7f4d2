import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldrank import (
    CorpusBundle,
    Distribution,
    PipelineParams,
    RelevanceJudgments,
    SparseMatrix,
    build_resource_text,
    compare_strategies,
    dcg,
    equi_prior,
    hit_prior,
    ndcg,
    sparse_svd,
)
from ldrank.types import count_pairs, shown_int

import oracles


def test_distribution_accepts_valid_vector():
    d = Distribution(np.array([0.25, 0.75]))
    assert len(d) == 2
    assert d.values.sum() == pytest.approx(1.0)


def test_distribution_is_read_only():
    d = Distribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.values[0] = 0.9


def test_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))  # sums to 1.1
    with pytest.raises(ValueError):
        Distribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        Distribution(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        Distribution(np.array([]))
    with pytest.raises(ValueError):
        Distribution(np.array([np.nan, 1.0]))


def test_equi_prior_is_uniform_and_weights_normalize():
    u = equi_prior(4)
    assert np.allclose(u.values, 0.25)
    w = np.array([2.0, 0.0, 6.0])
    assert np.allclose(Distribution(w / w.sum()).values, [0.25, 0.0, 0.75])
    with pytest.raises(ValueError):
        equi_prior(0)


# ------------------------------------------------------- sparse matrix

_GOOD_ENTRIES = {"shape": (2, 3), "rows": [0, 1], "cols": [2, 0], "data": [1.0, 2.0]}
_LENGTHS = "rows and cols must be vectors of one length, "
_DATA = "data must be a vector of 2 finite floats"


@pytest.mark.parametrize("field, value, message", [
    ("shape", (2,), "shape must hold 2 sizes, got 1"),
    ("shape", (2, -1), "shape must be at least 0, got -1"),
    ("shape", (-1, 3), "shape must be at least 0, got -1"),
    ("shape", (2.0, 3), "shape must be an integer, got float"),
    ("shape", (True, 3), "shape must be an integer, got bool"),
    ("shape", (0, 3), "rows hold an index outside"),
    ("rows", [0, -1], r"rows hold an index outside 0\.\.1"),
    ("rows", [0, 2], r"rows hold an index outside 0\.\.1"),
    ("cols", [2, 3], r"cols hold an index outside 0\.\.2"),
    ("cols", [-1, 0], r"cols hold an index outside 0\.\.2"),
    ("rows", [0.0, 1.0], "rows must hold integers, got float64"),
    ("rows", np.array([0.0, 1.0]), "rows must hold integers, got float64"),
    ("cols", [2, True], "cols must hold integers, got bool"),
    ("rows", [True, 0], "rows must hold integers, got bool"),
    ("rows", ["0", "1"], "rows must hold integers, got <U1"),
    ("rows", [0], _LENGTHS + r"got shapes \(1,\) and \(2,\)"),
    ("cols", [2, 0, 1], _LENGTHS + r"got shapes \(2,\) and \(3,\)"),
    ("rows", [[0, 1]], _LENGTHS + r"got shapes \(1, 2\) and \(2,\)"),
    ("cols", np.zeros((2, 1), dtype=int), _LENGTHS),
    ("data", [1.0], _DATA),  # shorter than the entries
    ("data", [1.0, 2.0, 3.0], _DATA),
    ("data", [1.0, np.nan], _DATA),
    ("data", [1.0, np.inf], _DATA),
    ("data", [1.0, -np.inf], _DATA),
    ("data", [1, 2], _DATA),
    ("data", [1 + 0j, 2], _DATA),
    ("data", [[1.0, 2.0]], _DATA),
])
def test_sparse_matrix_rejects_a_malformed_field(field, value, message):
    entries = {**_GOOD_ENTRIES, field: value}
    with pytest.raises(ValueError, match=f"^{message}"):
        SparseMatrix(entries["shape"], entries["rows"], entries["cols"], entries["data"])


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-9, 9)),
                     max_size=20),
    dtype=st.sampled_from([np.int64, np.int32, np.uint16, None]),
    float32=st.booleans(),
)
@example(shape=(0, 0), entries=[], dtype=None, float32=False)
@example(shape=(1, 1), entries=[(0, 0, 1.0), (0, 0, 2.0)], dtype=np.int32, float32=True)
def test_sparse_matrix_stores_read_only_int64_and_float64_entries(shape, entries, dtype, float32):
    # Repeated positions are common; a ``None`` dtype passes Python lists.
    m, n = shape
    entries = [(i % m, j % n, v) for i, j, v in entries] if m and n else []
    rows, cols = [i for i, _, _ in entries], [j for _, j, _ in entries]
    data = np.array([v for _, _, v in entries], dtype=np.float32 if float32 else np.float64)
    if dtype is not None:
        rows, cols = np.array(rows, dtype=dtype), np.array(cols, dtype=dtype)
    a = SparseMatrix(shape, rows, cols, data)
    assert a.shape == shape and a.nnz == len(entries)
    assert a.rows.tolist() == [i for i, _, _ in entries]
    assert a.cols.tolist() == [j for _, j, _ in entries]
    assert np.array_equal(a.data, data.astype(np.float64))
    assert a.rows.dtype == a.cols.dtype == np.int64 and a.data.dtype == np.float64
    assert not any(x.flags.writeable for x in (a.rows, a.cols, a.data))
    # The arrays given stay writable.
    assert data.flags.writeable and (dtype is None or rows.flags.writeable)


def _products_entry_by_entry(a, x, y):
    """``a @ x`` and ``y @ a``, one entry at a time in stored order."""
    left, right = np.zeros(a.shape[0]), np.zeros(a.shape[1])
    for i, j, value in zip(a.rows.tolist(), a.cols.tolist(), a.data.tolist()):
        left[i] += value * x[j]
        right[j] += value * y[i]
    return left, right


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-9, 9)),
                     max_size=20),
    data=st.data(),
)
def test_sparse_matrix_products_sum_entry_by_entry(shape, entries, data):
    m, n = shape
    entries = [(i % m, j % n, v) for i, j, v in entries]
    a = SparseMatrix(shape, [e[0] for e in entries], [e[1] for e in entries],
                     np.array([e[2] for e in entries], dtype=np.float64))
    x = np.array(data.draw(st.lists(st.floats(-9, 9), min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.floats(-9, 9), min_size=m, max_size=m)))
    left, right = _products_entry_by_entry(a, x, y)
    assert np.array_equal(a @ x, left) and np.array_equal(y @ a, right)
    dense = oracles.dense_from_sparse(a)
    assert np.allclose(a @ x, dense @ x) and np.allclose(y @ a, y @ dense)


def test_sparse_matrix_is_immutable():
    rows = np.array([1, 0, 1])
    a = SparseMatrix((np.int64(2), 3), rows, [0, 2, 0], np.ones(3))
    assert a.shape == (2, 3) and all(type(d) is int for d in a.shape)
    with pytest.raises(AttributeError):
        a.shape = (3, 3)
    with pytest.raises(AttributeError):
        a.rows = np.zeros(3, dtype=np.int64)
    for array in (a.rows, a.cols, a.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@settings(max_examples=300, deadline=None)
@given(
    n_major=st.integers(1, 12),
    n_minor=st.integers(1, 12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
    mirror=st.booleans(),
)
@example(n_major=5, n_minor=5, pairs=[], mirror=False)  # no first key to keep
@example(n_major=5, n_minor=5, pairs=[], mirror=True)
@example(n_major=1, n_minor=1, pairs=[(0, 0)] * 4, mirror=True)  # n = 1
@example(n_major=1, n_minor=7, pairs=[(0, 6), (0, 0), (0, 6)], mirror=False)
@example(n_major=9, n_minor=9, pairs=[(3, 4)] * 30, mirror=False)  # all pairs equal
@example(n_major=9, n_minor=9, pairs=[(3, 4)] * 30, mirror=True)
def test_count_pairs_matches_np_unique(n_major, n_minor, pairs, mirror):
    if mirror:  # both directions index one range
        n_major = n_minor = max(n_major, n_minor)
    pairs = [(i % n_major, j % n_minor) for i, j in pairs]
    major, minor = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = major * n_minor + minor
    if mirror:
        keys = np.concatenate((keys, minor * n_minor + major))
    want, want_counts = np.unique(keys, return_counts=True)
    before = (major.copy(), minor.copy())
    got_major, got_minor, counts = count_pairs(major, minor, n_minor, mirror)
    assert np.array_equal(got_major, want // n_minor)
    assert np.array_equal(got_minor, want % n_minor)
    assert np.array_equal(counts, want_counts)
    assert got_major.dtype == got_minor.dtype == counts.dtype == np.int64
    assert np.array_equal(major, before[0]) and np.array_equal(minor, before[1])


_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_MENTIONS = np.empty((0, 2), dtype=np.int64)


def _bundle(n=1, serp_size=1, mentions=_NO_MENTIONS):
    """A bundle of ``n`` resources without edges or query, with the given
    result page."""
    ids = tuple(f"r{i}" for i in range(n))
    return CorpusBundle(ids, _NO_EDGES, ("",) * n, serp_size, mentions, frozenset())


def test_bundle_mentions_lie_on_the_result_page():
    # The result page's mention rows: resources in 0..n-1, ranks in
    # 1..serp_size.
    bundle = _bundle(n=1, serp_size=2, mentions=[[0, 1], [0, 2], [0, 2]])
    assert bundle.mentions.dtype == np.int64
    assert bundle.mentions.tolist() == [[0, 1], [0, 2], [0, 2]]  # repeats kept
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.1$"):
        _bundle(serp_size=1, mentions=[[0, 2]])
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.1$"):
        _bundle(serp_size=1, mentions=[[0, 0]])
    with pytest.raises(ValueError, match=r"^mention resources hold an index outside 0\.\.0$"):
        _bundle(serp_size=1, mentions=[[-1, 1]])
    with pytest.raises(ValueError, match=r"^mention ranks lie outside 1\.\.0$"):
        _bundle(serp_size=0, mentions=[[0, 1]])  # an empty page has no rank


@pytest.mark.parametrize(
    "mentions, message",
    [
        ([[1.5, 1]], "mentions must hold integers, got float64 values"),
        ([[1.0, 1]], "mentions must hold integers, got float64 values"),
        ([[True, 1]], "mentions must hold integers, got bool values"),
        ([[0, 1.0]], "mentions must hold integers, got float64 values"),
        ([[0, True]], "mentions must hold integers, got bool values"),
        (np.array([[0, 1]], dtype=np.float64), "mentions must hold integers, got float64"),
        (np.array([[0, 1]], dtype=bool), "mentions must hold integers, got bool values"),
        ([[0, np.True_]], "mentions must hold integers, got bool values"),
    ],
    ids=["index-1.5", "index-1.0", "index-True", "rank-1.0", "rank-True", "rank-float64",
         "bool-array", "rank-numpy-True"],
)
def test_bundle_mentions_reject_indices_and_ranks_that_are_not_integers(mentions, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _bundle(n=2, serp_size=1, mentions=mentions)


def test_bundle_mentions_take_numpy_integers():
    bundle = _bundle(serp_size=np.int64(1), mentions=np.array([[0, 1]], dtype=np.int32))
    assert type(bundle.serp_size) is int and bundle.mentions.dtype == np.int64
    assert hit_prior(bundle).values.tolist() == [1.0]


@pytest.mark.parametrize("size, got", [
    (-1, "be at least 0, got -1"), (True, "be an integer, got bool"),
    (1.0, "be an integer, got float"), ("1", "be an integer, got '1'"),
    (None, "be an integer, got NoneType"),
])
def test_corpus_bundle_rejects_a_serp_size_that_is_not_a_count(size, got):
    with pytest.raises(ValueError, match=f"^serp_size must {re.escape(got)}$"):
        _bundle(serp_size=size)


@pytest.mark.parametrize("mentions", [np.zeros((1, 3), dtype=np.int64), np.zeros(2, dtype=np.int64),
                                      []])
def test_corpus_bundle_rejects_mentions_of_another_shape(mentions):
    with pytest.raises(ValueError, match=r"^mentions must have shape \(m, 2\)"):
        _bundle(mentions=mentions)


def test_corpus_bundle_requires_sorted_unique_ids():
    with pytest.raises(ValueError):
        CorpusBundle(
            resource_ids=("b", "a"),
            graph_edges=_NO_EDGES,
            texts=("", ""),
            serp_size=0,
            mentions=_NO_MENTIONS,
            query=frozenset(),
        )


@pytest.mark.parametrize("ids", [("b", "a"), ("a", "a"), ("a", "c", "b"), ("a", "b", "b")])
def test_corpus_bundle_names_unsorted_or_repeated_ids(ids):
    with pytest.raises(ValueError, match="^resource_ids must be sorted and free of duplicates$"):
        CorpusBundle(
            resource_ids=ids,
            graph_edges=_NO_EDGES,
            texts=("",) * len(ids),
            serp_size=0,
            mentions=_NO_MENTIONS,
            query=frozenset(),
        )


def test_corpus_bundle_index_is_positional():
    bundle = CorpusBundle(
        resource_ids=("a", "b", "c"),
        graph_edges=[[2, 0]],
        texts=["", "", ""],
        serp_size=2,
        mentions=[[1, 2]],
        query=[1],
    )
    assert bundle.graph_edges.dtype == np.int64
    assert bundle.graph_edges.tolist() == [[2, 0]]
    assert bundle.texts == ("", "", "")
    assert bundle.mentions.tolist() == [[1, 2]]
    assert bundle.query == frozenset({1})
    assert bundle.n == 3


@pytest.mark.parametrize(
    "edges, query, field",
    [
        ([[0.0, 1.9]], set(), "graph_edges"),
        ([[True, False]], set(), "graph_edges"),
        ([["0", "1"]], set(), "graph_edges"),
        ([[0, 1]], {0.7}, "query"),
        ([[0, 1]], {True}, "query"),
        ([[True, 1]], set(), "graph_edges"),
        ([[0, 1]], {0, True}, "query"),
    ],
)
def test_corpus_bundle_rejects_non_integer_indices(edges, query, field):
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        CorpusBundle(("a", "b"), edges, ("", ""), 0, _NO_MENTIONS, query)
    # Empty input of any dtype, and integer arrays of any width, pass.
    bundle = CorpusBundle(
        ("a", "b"), np.empty((0, 2)), ("", ""), 0, np.empty((0, 2)), np.array([1], dtype=np.uint8)
    )
    assert bundle.graph_edges.dtype == np.int64 and bundle.query == {1}
    assert bundle.mentions.dtype == np.int64


_NUMERIC_PARAMS = [f.name for f in fields(PipelineParams) if f.name != "bidirectional"]
_COUNT_PARAMS = {f.name for f in fields(PipelineParams) if f.type == "int"}


@pytest.mark.parametrize("name", _NUMERIC_PARAMS)
@pytest.mark.parametrize("value, got", [
    (True, "bool"), (False, "bool"), ("1", "'1'"), (None, "NoneType"),
])
def test_pipeline_params_reject_a_numeric_field_that_is_not_a_number(name, value, got):
    kind = "an integer" if name in _COUNT_PARAMS else "a number"
    with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {re.escape(got)}$"):
        PipelineParams(**{name: value})


@pytest.mark.parametrize("name", sorted(set(_NUMERIC_PARAMS) - _COUNT_PARAMS))
def test_pipeline_params_keep_a_long_real_field_short(name):
    # A real field out of range echoes an int by its head, past int's
    # 4300-digit text limit, and a long string by its first 40 characters.
    for value, got in [(-(10**5000), f"-1{'0' * 39}... (5001 digits)"),
                       ("x" * 5000, f"{'x' * 40!r}... (5000 characters)")]:
        with pytest.raises(ValueError, match=f"^{name} must .*, got {re.escape(got)}$"):
            PipelineParams(**{name: value})


@pytest.mark.parametrize("value, got", [
    ("no", "'no'"), (0, "int"), (1, "int"), (None, "NoneType"), (np.int64(1), "int64"),
    ("x" * 5000, f"{'x' * 40!r}... (5000 characters)"),
])
def test_pipeline_params_reject_a_bidirectional_that_is_not_a_bool(value, got):
    with pytest.raises(ValueError, match=f"^bidirectional must be a bool, got {re.escape(got)}$"):
        PipelineParams(bidirectional=value)
    # numpy scalars are numbers.
    assert PipelineParams(ndim=np.int64(2), alpha=np.float64(0.5)).ndim == 2


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_pipeline_params_store_a_python_or_numpy_bool_as_a_bool(value):
    stored = PipelineParams(bidirectional=value).bidirectional
    assert type(stored) is bool and stored == bool(value)


def test_build_resource_text_rejects_any_offset_into_an_empty_page_text():
    assert build_resource_text("abstract", "", []) == "abstract"
    for value in (0, 1, 1.5):
        with pytest.raises(ValueError, match="^surface offset given for an empty page text$"):
            build_resource_text("abstract", "", [value])


# One rule for every scalar integer argument, ``types.integer``.  Per site:
# a call that gives back what the site stored (None where it stores
# nothing), the field name its errors start with, and its bounds.
def _dcg(value):
    dcg([3, 2], value)


def _ndcg(value):
    ndcg([3, 2], value)


def _offset(value):
    build_resource_text("", "abcd", [value])


def _svd(value):
    sparse_svd(SparseMatrix((2, 2), [0, 1], [0, 1], np.ones(2)), value)


_INTEGER_SITES = [
    pytest.param(lambda v: SparseMatrix((v, 2), [], [], np.zeros(0)).shape[0], "shape", 0,
                 None, id="SparseMatrix.shape[0]"),
    pytest.param(lambda v: SparseMatrix((2, v), [], [], np.zeros(0)).shape[1], "shape", 0,
                 None, id="SparseMatrix.shape[1]"),
    pytest.param(lambda v: _bundle(serp_size=v).serp_size, "serp_size", 0, None,
                 id="CorpusBundle.serp_size"),
    pytest.param(_dcg, "cutoff", 1, None, id="dcg"),
    pytest.param(_ndcg, "cutoff", 1, None, id="ndcg"),
    pytest.param(lambda v: compare_strategies([], [v]).cutoffs[0], "cutoff", 1, None,
                 id="compare_strategies"),
    *(pytest.param(lambda v, name=name: getattr(PipelineParams(**{name: v}), name), name, 1,
                   None, id=f"PipelineParams.{name}")
      for name in ("ndim", "consensus_max_iters", "power_max_iters")),
    pytest.param(lambda v: RelevanceJudgments({"a": v}).grades["a"], "grade for 'a'", 0, 3,
                 id="RelevanceJudgments"),
    pytest.param(_offset, "surface offset", 0, 3, id="build_resource_text"),
    pytest.param(_svd, "k for a 2x2 matrix", 1, 2, id="sparse_svd"),
]


@pytest.mark.parametrize("call, name, low, high", _INTEGER_SITES)
def test_an_integer_site_takes_python_and_numpy_ints_and_stores_an_int(call, name, low, high):
    for value in (2, np.int64(2), np.int32(2), np.uint8(2)):
        stored = call(value)
        assert stored is None or (type(stored) is int and stored == 2)


@pytest.mark.parametrize("value, got", [
    (True, "bool"), (np.bool_(False), "bool"), (2.0, "float"), (np.float64(2), "float64"),
    ("2", "'2'"), (None, "NoneType"),
])
@pytest.mark.parametrize("call, name, low, high", _INTEGER_SITES)
def test_an_integer_site_rejects_a_value_of_another_type(call, name, low, high, value, got):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {got}$"):
        call(value)


@pytest.mark.parametrize("call, name, low, high", _INTEGER_SITES)
def test_an_integer_site_names_its_range(call, name, low, high):
    bound = f"be at least {low}" if high is None else f"lie in {low}..{high}"
    for value in [low - 1] + ([] if high is None else [high + 1]):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must {bound}, got {value}$"):
            call(value)


@pytest.mark.parametrize("call, name, low, high", _INTEGER_SITES)
def test_an_integer_site_keeps_its_error_short_for_a_long_value(call, name, low, high):
    # An integer past int's 4300-digit text limit, or a long string, is
    # echoed by its head: the message stays short and names the field.
    for value in [-(10**5000), "x" * 5000] + ([] if high is None else [10**5000]):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must ") as caught:
            call(value)
        assert len(str(caught.value)) < 200


def _shown_int_by_text(value):
    """``oracles.shown_int``, from the whole text of ``value``, with
    ``int``'s limit on conversions lifted where the Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return oracles.shown_int(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value, want", [
    (10**5000, f"1{'0' * 39}... (5001 digits)"),
    (-(10**5000), f"-1{'0' * 39}... (5001 digits)"),
    (10**4299, f"1{'0' * 39}... (4300 digits)"),
    (10**4300 - 1, f"{'9' * 40}... (4300 digits)"),
    (-(10**4300), f"-1{'0' * 39}... (4301 digits)"),
    (-(10**4301 - 1), f"-{'9' * 40}... (4301 digits)"),
    (np.int64(-(2**63)), "-9223372036854775808"),
    (10**40 - 1, "9" * 40),
    (10**40, f"1{'0' * 39}... (41 digits)"),
], ids=["+5001", "-5001", "+4300", "9x4300", "-4301", "-9x4301", "int64 min", "9x40", "+41"])
def test_shown_int_gives_the_head_and_digit_count_past_the_text_limit(value, want):
    assert shown_int(value) == want == _shown_int_by_text(value)


def test_shown_int_agrees_with_the_whole_text_at_every_length():
    for bits in range(1, 20000, 53):
        for value in (2**bits - 1, 2**bits, 10 ** (bits // 3), 10 ** (bits // 3) - 1, 3**bits):
            assert shown_int(value) == _shown_int_by_text(value), bits
            assert shown_int(-value) == _shown_int_by_text(-value), bits
