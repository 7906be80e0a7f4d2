import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldrank import (
    STRATEGIES,
    Pipeline,
    RelevanceJudgments,
    compare_strategies,
    dcg,
    load_bundle,
    ndcg,
)
from ldrank.evaluation import _gains

import oracles


# ------------------------------------------------------------------- dcg


def test_dcg_first_position_undiscounted():
    assert dcg([3], 5) == 3.0
    assert dcg([3, 0, 0], 3) == 3.0


def test_dcg_known_sequence():
    # 3, 2, 3, 0, 1, 2 cut at 6:
    # 3 + 2/1 + 3/log2(3) + 0 + 1/log2(5) + 2/log2(6)
    want = (
        3.0
        + 2.0
        + 3.0 / np.log2(3.0)
        + 0.0
        + 1.0 / np.log2(5.0)
        + 2.0 / np.log2(6.0)
    )
    assert dcg([3, 2, 3, 0, 1, 2], 6) == pytest.approx(want, abs=1e-12)


def test_dcg_cutoff_truncates():
    grades = [3, 2, 3, 0, 1, 2]
    assert dcg(grades, 2) == pytest.approx(5.0)
    assert dcg(grades, 100) == pytest.approx(dcg(grades, 6))


def test_dcg_matches_direct_formula_on_random_lists():
    rng = np.random.default_rng(61)
    for _ in range(100):
        grades = rng.integers(0, 4, size=int(rng.integers(1, 12))).tolist()
        r = int(rng.integers(1, 15))
        assert dcg(grades, r) == pytest.approx(
            oracles.gain_by_direct_formula(grades, r), abs=1e-12
        )


_GRADE_LISTS = st.lists(st.integers(0, 3), min_size=1, max_size=40)
_CUTOFF_SETS = st.lists(st.integers(1, 50), min_size=1, max_size=6, unique=True).map(tuple)


@settings(max_examples=300, deadline=None)
@given(grades=_GRADE_LISTS, cutoffs=_CUTOFF_SETS)
def test_one_pass_gains_equal_dcg_bit_for_bit_at_every_cutoff(grades, cutoffs):
    # Each cutoff's value is a prefix of one sum, which adds the same terms
    # in the same order as a sum cut at that cutoff alone.
    gains = _gains(grades, cutoffs)
    for r, gain in zip(cutoffs, gains):
        want = oracles.gain_by_direct_formula(grades, r)
        assert gain.hex() == dcg(grades, r).hex() == want.hex(), r


def test_dcg_rejects_bad_input():
    with pytest.raises(ValueError):
        dcg([1, 2], 0)
    with pytest.raises(ValueError):
        dcg([], 3)


# ------------------------------------------------------------------ ndcg


def test_ndcg_ideal_ranking_scores_exactly_one():
    judged = RelevanceJudgments(grades={"a": 3, "b": 2, "c": 1, "d": 0})
    assert ndcg(judged.grades_of(["a", "b", "c", "d"]), 4) == 1.0


def test_ndcg_worst_ranking_below_one():
    judged = RelevanceJudgments(grades={"a": 3, "b": 2, "c": 1, "d": 0})
    value = ndcg(judged.grades_of(["d", "c", "b", "a"]), 4)
    assert 0.0 < value < 1.0


def test_ndcg_bounded_on_random_inputs():
    rng = np.random.default_rng(67)
    ids = [f"r{i}" for i in range(6)]
    for _ in range(50):
        perm = list(rng.permutation(ids))
        judged = RelevanceJudgments(
            grades={rid: int(g) for rid, g in zip(ids, rng.integers(0, 4, 6))}
        )
        r = int(rng.integers(1, 8))
        value = ndcg(judged.grades_of(perm), r)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_ndcg_missing_grades_warn_and_count_zero():
    judged = RelevanceJudgments(grades={"a": 2})
    with pytest.warns(UserWarning):
        grades = judged.grades_of(["a", "b"])
    assert grades == [2, 0]
    value = ndcg(grades, 2)
    assert value == 1.0  # grades [2, 0] in ranked order are already ideal


def test_grades_of_warns_once_per_call():
    judged = RelevanceJudgments(grades={"b": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert judged.grades_of(["a", "b", "c"]) == [0, 1, 0]
    assert [str(w.message) for w in caught] == [
        "2 ranked resources have no judgment and count as grade 0 (first: 'a')"
    ]


def test_ndcg_all_zero_ideal_warns_and_returns_one():
    with pytest.warns(UserWarning):
        value = ndcg([0, 0], 2)
    assert value == 1.0


def test_relevance_judgments_validation():
    with pytest.raises(ValueError):
        RelevanceJudgments(grades={"a": 5})
    with pytest.raises(ValueError):
        RelevanceJudgments(grades={"a": -1})


@pytest.mark.parametrize("grade", [True, False, 2.0, "2"])
def test_relevance_judgments_reject_a_grade_that_is_not_an_int(grade):
    with pytest.raises(ValueError, match="^grade for 'a' must be an integer, got "):
        RelevanceJudgments(grades={"a": grade})


# ------------------------------------------------------- strategy table


def test_compare_strategies_on_fixture(basic_bundle):
    judged = RelevanceJudgments(
        grades={"Berlin": 3, "City": 0, "Europe": 1, "Germany": 3, "Museum": 1, "River": 2}
    )
    table = compare_strategies([(basic_bundle, judged)], [1, 3, 5])
    assert table.n_queries == 1
    assert table.cutoffs == (1, 3, 5)
    assert set(table.mean_ndcg) == {"EQUI", "HIT", "SVD", "LDRANK"}
    for name in STRATEGIES:
        for r in table.cutoffs:
            assert 0.0 <= table.mean_ndcg[name][r] <= 1.0
        assert table.mean_seconds[name] >= 0.0
    assert len(table.per_query_ndcg) == 1


@settings(max_examples=100, deadline=None)
@given(grades=st.lists(st.integers(0, 3), min_size=6, max_size=6), cutoffs=_CUTOFF_SETS)
def test_compare_strategies_scores_equal_ndcg_bit_for_bit_at_every_cutoff(
    basic_dir, grades, cutoffs
):
    names = ("graph.tsv", "texts.jsonl", "serp.tsv", "query.txt")
    bundle = load_bundle(*(basic_dir / name for name in names))
    judged = RelevanceJudgments(grades=dict(zip(bundle.resource_ids, grades)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = compare_strategies([(bundle, judged)], cutoffs)
        pipeline = Pipeline(bundle)
        for name in STRATEGIES:
            ranked = [grades[i] for i in pipeline.rank(name).order.tolist()]
            for r in cutoffs:
                got, want = table.per_query_ndcg[0][name][r], ndcg(ranked, r)
                assert got.hex() == want.hex(), (name, r)
    # A bundle whose grades are all 0 scores 1.0 with one warning, where
    # each ndcg call warns.
    zero_gain = [w for w in caught if str(w.message).startswith("ideal ranking has zero gain")]
    assert len(zero_gain) == (0 if any(grades) else 1 + len(STRATEGIES) * len(cutoffs))


def test_compare_strategies_empty_input():
    table = compare_strategies([], [1, 3])
    assert table.n_queries == 0
    assert table.mean_ndcg == {}
    assert table.per_query_ndcg == ()


@pytest.mark.parametrize("cutoffs, message", [
    ((1, 1), "cutoff 1 is given more than once"),
    ([5, 2, np.int64(5)], "cutoff 5 is given more than once"),
    ((), "at least one cutoff required"),
    ([0], "cutoff must be at least 1, got 0"),
    ([3, 3, 0], "cutoff must be at least 1, got 0"),
])
def test_compare_strategies_checks_the_cutoff_list_before_drawing_a_pair(
    basic_bundle, cutoffs, message
):
    drawn = []

    def pairs():
        drawn.append(True)
        yield basic_bundle, RelevanceJudgments(grades={"Berlin": 3})

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_strategies(pairs(), cutoffs)
    assert drawn == []


@pytest.mark.parametrize("cutoff, got", [
    (2.7, "float"), (2.0, "float"), (np.float64(3.0), "float64"), ("3", "'3'"), (True, "bool"),
    (np.bool_(True), "bool"),
])
def test_cutoffs_that_are_not_integers_are_rejected(basic_bundle, cutoff, got):
    # Neither rounded nor parsed: each call names the cutoff it rejects.
    message = f"^cutoff must be an integer, got {re.escape(got)}$"
    judged = RelevanceJudgments(grades={"Berlin": 3})
    with pytest.raises(ValueError, match=message):
        compare_strategies([(basic_bundle, judged)], [1, cutoff])
    with pytest.raises(ValueError, match=message):
        dcg([3, 2], cutoff)
    with pytest.raises(ValueError, match=message):
        ndcg([3, 2], cutoff)


def test_numpy_integer_cutoffs_pass(basic_bundle):
    judged = RelevanceJudgments(grades=dict.fromkeys(basic_bundle.resource_ids, 1))
    table = compare_strategies([(basic_bundle, judged)], [np.int32(1), np.int64(3)])
    assert table.cutoffs == (1, 3) and all(type(r) is int for r in table.cutoffs)
    assert dcg([3, 2], np.int64(2)) == dcg([3, 2], 2)
