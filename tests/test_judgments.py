import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ldrank.judgments as judgments_module
import ldrank.types as types_module
from ldrank import (
    InputFormatError,
    JudgmentSet,
    RelevanceJudgments,
    filter_workers,
    format_qrels,
    krippendorff_alpha,
    load_judgments,
    load_qrels,
    majority_vote,
)
from ldrank.judgments import RELEVANCE_DISTANCE

import oracles


def _record(item, worker, grade, trust=None):
    return {"item": item, "worker": worker, "grade": grade, "trust": trust}


def _js(rows):
    return JudgmentSet.from_records(_record(*row) for row in rows)


def _columns(js):
    """The set's columns as lists, with None for a missing trust."""
    return (
        js.item_ids, js.worker_ids, js.item_codes.tolist(), js.worker_codes.tolist(),
        js.grades.tolist(), [None if t != t else t for t in js.trust.tolist()],
    )


# ------------------------------------------------------------- distances


def test_relevance_distance_is_read_only():
    # Its values are the alpha property's: a wrong one moves alpha there.
    with pytest.raises(ValueError, match="read-only"):
        RELEVANCE_DISTANCE[0, 1] = 0.0


# ----------------------------------------------------------------- alpha


def test_alpha_perfect_agreement_is_exactly_one():
    js = _js(
        [
            ("i1", "w1", 2), ("i1", "w2", 2), ("i1", "w3", 2),
            ("i2", "w1", 0), ("i2", "w2", 0),
            ("i3", "w1", 3), ("i3", "w3", 3),
        ]
    )
    assert krippendorff_alpha(js) == 1.0


def test_alpha_identical_pooled_grades_is_one():
    js = _js([("i1", "w1", 1), ("i1", "w2", 1), ("i2", "w1", 1), ("i2", "w2", 1)])
    assert krippendorff_alpha(js) == 1.0


def test_alpha_single_judgment_items_excluded():
    base = [
        ("i1", "w1", 2), ("i1", "w2", 2),
        ("i2", "w1", 0), ("i2", "w2", 1),
    ]
    with_extra = base + [("solo", "w3", 3)]
    assert krippendorff_alpha(_js(base)) == pytest.approx(
        krippendorff_alpha(_js(with_extra)), abs=1e-12
    )


def test_alpha_no_pairable_items_raises():
    js = _js([("i1", "w1", 2), ("i2", "w2", 1)])
    with pytest.raises(ValueError):
        krippendorff_alpha(js)


def test_alpha_closed_form_with_relevance_distance():
    # Coincidences: o[0,0] = 2 and one each of (0,1), (1,0), (2,3), (3,2),
    # so n = 6 with margins (3, 1, 1, 1).  Observed disagreement is
    # (2 * 0.5 + 2 * 0.25) / 6 = 1/4; expected is
    # 2 * (3 * (0.5 + 0.75 + 1.0) + 0.25 + 0.5 + 0.25) / (6 * 5) = 31/60,
    # so alpha = 1 - (1/4) / (31/60) = 16/31.  The 0/1 split costs twice
    # the 2/3 one, so the grades are weighed.
    js = _js(
        [
            ("i1", "w1", 0), ("i1", "w2", 1),
            ("i2", "w1", 2), ("i2", "w2", 3),
            ("i3", "w1", 0), ("i3", "w2", 0),
        ]
    )
    assert krippendorff_alpha(js) == pytest.approx(16 / 31, abs=1e-12)


def test_judgment_set_rejects_duplicates():
    with pytest.raises(ValueError):
        _js([("i1", "w1", 2), ("i1", "w1", 3)])


def _one_record(**fields):
    return JudgmentSet.from_records([{"item": "i", "worker": "w", **fields}])


def test_judgment_record_validation():
    with pytest.raises(ValueError, match=r"^grade must be one of \(0, 1, 2, 3\), got 7$"):
        _one_record(grade=7)
    with pytest.raises(ValueError, match=r"^trust must lie in \[0, 1\], got 1.5$"):
        _one_record(grade=1, trust=1.5)
    # A record's types are checked before its ranges; the first bad record wins.
    with pytest.raises(ValueError, match='^field "trust" must be numeric$'):
        _one_record(grade=7, trust="x")
    with pytest.raises(ValueError, match=r"^trust must lie in \[0, 1\]$"):
        _one_record(grade=7, trust=10**400)
    with pytest.raises(ValueError, match=r"^grade must be one of \(0, 1, 2, 3\), got 7$"):
        JudgmentSet.from_records([_record("a", "w", 7), _record("b", "w", 1, 1.5)])


@pytest.mark.parametrize("grade", [2.0, True, False, "1"])
def test_judgment_record_rejects_a_grade_that_is_not_an_int(grade):
    with pytest.raises(ValueError, match='^field "grade" must be an integer$'):
        _one_record(grade=grade)


@pytest.mark.parametrize("trust", [True, False, "0.5", "1"])
def test_judgment_record_rejects_a_trust_that_is_not_a_number(trust):
    with pytest.raises(ValueError, match='^field "trust" must be numeric$'):
        _one_record(grade=1, trust=trust)
    assert _one_record(grade=1, trust=1).trust.tolist() == [1.0]


@pytest.mark.parametrize("field, value", [("item", 5), ("item", ""), ("item", None),
                                          ("worker", ("x",)), ("worker", "")])
def test_judgment_record_rejects_an_id_that_is_not_a_non_empty_string(field, value):
    with pytest.raises(ValueError, match=f'^missing or invalid "{field}"$'):
        _one_record(grade=1, **{field: value})


# --------------------------------------------------------------- filter


def test_filter_workers_drops_frequent_disagreer():
    rows = [
        ("i1", "good1", 2), ("i1", "good2", 2), ("i1", "bad", 0),
        ("i2", "good1", 1), ("i2", "good2", 1), ("i2", "bad", 3),
        ("i3", "good1", 0), ("i3", "good2", 0), ("i3", "bad", 0),
    ]
    filtered = filter_workers(_js(rows), threshold=0.412)
    assert filtered.worker_ids == ("good1", "good2")  # bad disagrees on 2/3 > 0.412


def test_filter_workers_rate_at_boundary_kept():
    # Worker "edge" disagrees on 2 of 5 majority items: rate 0.4 <= 0.412,
    # and the comparison is strict, so the worker stays.
    rows = []
    for i in range(5):
        rows.append((f"i{i}", "a", 1))
        rows.append((f"i{i}", "b", 1))
    edge = [(f"i{i}", "edge", 1 if i >= 2 else 3) for i in range(5)]
    filtered = filter_workers(_js(rows + edge), threshold=0.412)
    assert "edge" in filtered.worker_ids


def test_filter_workers_tied_items_carry_no_signal():
    # i1 is tied 2 vs 2, so nobody is judged on it.
    rows = [
        ("i1", "w1", 2), ("i1", "w2", 2), ("i1", "w3", 0), ("i1", "w4", 0),
        ("i2", "w1", 1), ("i2", "w2", 1), ("i2", "w3", 1), ("i2", "w4", 1),
    ]
    filtered = filter_workers(_js(rows), threshold=0.0)
    assert filtered.worker_ids == ("w1", "w2", "w3", "w4")


def test_filter_workers_single_pass():
    # Majorities come from the unfiltered records and are not recomputed
    # after w3 is dropped; i2 has a three-way tie and counts for nobody.
    rows = [
        ("i1", "w1", 2), ("i1", "w2", 2), ("i1", "w3", 0),
        ("i2", "w1", 1), ("i2", "w2", 0), ("i2", "w3", 3),
        ("i3", "w1", 1), ("i3", "w2", 1), ("i3", "w3", 0),
        ("i4", "w1", 2), ("i4", "w3", 3), ("i4", "w2", 2),
    ]
    js = _js(rows)
    filtered = filter_workers(js, threshold=0.5)
    assert "w3" not in filtered.worker_ids
    assert {"w1", "w2"} <= set(filtered.worker_ids)


def test_filter_workers_threshold_validation():
    with pytest.raises(ValueError):
        filter_workers(_js([("i", "w", 1)]), threshold=1.5)
    with pytest.raises(ValueError):
        filter_workers(_js([("i", "w", 1)]), threshold=-0.1)
    for value, got in [("0.5", "'0.5'"), (True, "bool"), (None, "NoneType")]:
        with pytest.raises(ValueError, match=f"^threshold must be a number, got {got}$"):
            filter_workers(_js([("i", "w", 1)]), threshold=value)
    big = f"1{'0' * 39}... (5001 digits)"  # past int's 4300-digit text limit
    with pytest.raises(ValueError, match=re.escape(f"threshold must lie in [0, 1], got {big}")):
        filter_workers(_js([("i", "w", 1)]), threshold=10**5000)


# ------------------------------------------------------------------ vote


def test_majority_vote_modal_grade():
    js = _js([("i1", "w1", 2), ("i1", "w2", 2), ("i1", "w3", 0)])
    assert majority_vote(js).grades == {"i1": 2}


def test_majority_vote_tie_highest_value():
    js = _js([("i1", "w1", 1), ("i1", "w2", 3)])
    assert majority_vote(js).grades == {"i1": 3}


def test_majority_vote_tie_mean_trust():
    js = _js(
        [
            ("i1", "w1", 1, 0.9),
            ("i1", "w2", 3, 0.2),
            ("i2", "w1", 2, 0.5),
        ]
    )
    out = majority_vote(js, tie_break="mean-trust")
    assert out.grades == {"i1": 1, "i2": 2}


def test_majority_vote_mean_trust_further_tie_highest():
    js = _js([("i1", "w1", 1, 0.5), ("i1", "w2", 3, 0.5)])
    out = majority_vote(js, tie_break="mean-trust")
    assert out.grades == {"i1": 3}


def test_majority_vote_mean_trust_requires_trust():
    js = _js([("i1", "w1", 1), ("i1", "w2", 3)])
    with pytest.raises(ValueError):
        majority_vote(js, tie_break="mean-trust")


def test_majority_vote_rejects_unknown_mode():
    js = _js([("i1", "w1", 1)])
    with pytest.raises(ValueError):
        majority_vote(js, tie_break="random")


# -------------------------------------------------------------------- io


def test_load_judgments_fixture(fixtures_dir):
    js = load_judgments(fixtures_dir / "judgments.jsonl")
    assert len(js.grades) == 9
    assert set(js.worker_ids) == {"w1", "w2", "w3"}
    assert js.trust[0] == 0.9


def test_qrels_round_trip(tmp_path):
    judged = RelevanceJudgments(grades={"b": 2, "a": 0, "c": 3})
    text = format_qrels(judged)
    assert text == "a\t0\nb\t2\nc\t3\n"
    path = tmp_path / "q.tsv"
    path.write_text(text)
    assert load_qrels(path).grades == judged.grades


@pytest.mark.parametrize("item, reason", [
    ("a\tb", "holds a tab or line break"),
    ("a\nb", "holds a tab or line break"),
    ("a\r", "holds a tab or line break"),
    ("#a", "starts with '#'"),
    (" \x85#a", "starts with '#'"),
    ("a\ud800", "is not valid in UTF-8"),
])
def test_relevance_judgments_reject_an_id_no_qrels_line_holds(item, reason):
    with pytest.raises(ValueError, match=f"^item id {re.escape(repr(item))} {reason}$"):
        RelevanceJudgments(grades={"a": 1, item: 2})
    # A long id is echoed by its first 40 characters and its length.
    long_item = item + "x" * 5000
    message = f"item id {long_item[:40]!r}... ({len(long_item)} characters) {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RelevanceJudgments(grades={long_item: 2})


def test_load_judgments_applies_the_item_id_rule_once_per_distinct_item(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text("".join(json.dumps(_record(item, f"w{k}", 1)) + "\n"
                            for k, item in enumerate("abab" * 6)), encoding="utf-8")
    rule = judgments_module._item_fault
    # Blocks of 64 bytes hold one record each, so each item spans many.
    with mock.patch.object(judgments_module, "_item_fault", side_effect=rule) as fault, \
            mock.patch.object(types_module, "_CHUNK_BYTES", 64):
        assert load_judgments(path).item_ids == ("a", "b")
    assert [c.args for c in fault.call_args_list] == [("a",), ("b",)]


@pytest.mark.parametrize("item, got", [("", "''"), (5, "int"), (None, "NoneType")])
def test_relevance_judgments_reject_an_empty_or_non_string_id(item, got):
    with pytest.raises(ValueError, match=f"^item id must be a non-empty string, got {got}$"):
        RelevanceJudgments(grades={"a": 1, item: 2})


def test_relevance_judgments_echo_a_long_id_of_a_bad_grade_by_its_head():
    item = "x" * 5000
    message = f"grade for {item[:40]!r}... (5000 characters) must lie in 0..3, got 7"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RelevanceJudgments(grades={item: 7})


# Any text, lone surrogates too, which UTF-8 cannot write and so must not
# build.  "#" and blanks are drawn often, and one key in ten may hold
# anything, "\t", "\n" and "\r" included, so about half the dictionaries
# build.
_QRELS_ITEMS = st.integers(0, 9).flatmap(lambda k: st.text(
    st.one_of(st.sampled_from("# \x85\x1c,a" + ("\t\n\r" if k == 0 else "")),
              st.characters(exclude_characters="" if k == 0 else "\t\n\r")),
    min_size=0 if k == 0 else 1, max_size=5,
))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_QRELS_ITEMS, st.sampled_from([0, 1, 2, 3]), max_size=6))
def test_qrels_written_by_format_qrels_load_back(tmp_path_factory, grades):
    try:
        judged = RelevanceJudgments(grades=grades)
    except ValueError:
        return
    path = tmp_path_factory.mktemp("qrels") / "q.tsv"
    path.write_text(format_qrels(judged), encoding="utf-8", newline="")
    assert load_qrels(path).grades == judged.grades


# ------------------------------------------------- columns against oracles

_TRUSTS = (None, 0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def _record_lists(draw):
    """Random record lists over few items and workers: split votes,
    single-judgment items and equal supporter trusts come up often, and
    half the lists have a trust on every record."""
    trust = st.sampled_from(_TRUSTS[1:] if draw(st.booleans()) else _TRUSTS)
    n_items = draw(st.integers(1, 5))
    n_workers = draw(st.integers(1, 6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_items - 1), st.integers(0, n_workers - 1)),
            min_size=1, max_size=24, unique=True,
        )
    )
    return [
        _record(f"i{i}", f"w{w}", draw(st.integers(0, 3)), draw(trust))
        for i, w in pairs
    ]


# Rates are small fractions, so drawing thresholds among them puts some
# workers exactly at the threshold.
_THRESHOLDS = sorted({k / d for d in range(1, 7) for k in range(d + 1)} | {0.412})


@settings(max_examples=300, deadline=None)
@given(_record_lists(), st.sampled_from(_THRESHOLDS))
# One pass drops a, at 3 of 5; a second pass would tie i1 and i2 without
# a, leaving b against the majority on i3 alone, and drop b too.
@example([_record(item, worker, grade) for item, votes in [
    ("i1", "a0b0c1"), ("i2", "a0b0c1"), ("i3", "b2c1d1"),
    ("i4", "a3c1d1"), ("i5", "a3c1d1"), ("i6", "a3c1d1"),
] for worker, grade in zip(votes[::2], map(int, votes[1::2]))], 0.5)
def test_filter_workers_matches_counter_oracle(records, threshold):
    filtered = filter_workers(JudgmentSet.from_records(records), threshold)
    kept = oracles.kept_records_by_counter(records, threshold)
    assert _columns(filtered) == _columns(JudgmentSet.from_records(kept))


@settings(max_examples=300, deadline=None)
@given(_record_lists(), st.sampled_from(["highest-value", "mean-trust"]))
def test_majority_vote_matches_counter_oracle(records, tie_break):
    judgments = JudgmentSet.from_records(records)
    try:
        want = oracles.majority_grades_by_counter(records, tie_break)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            majority_vote(judgments, tie_break)
        assert str(got.value) == str(exc)
        return
    got = majority_vote(judgments, tie_break).grades
    assert list(got.items()) == list(want.items())


def test_filter_workers_rate_exactly_at_threshold_kept():
    # Worker x disagrees with a strict majority on `against` of `judged`
    # items and the threshold is that very quotient: x stays, as
    # against / judged > threshold is false, and so does every record.  (A
    # multiplied form such as against > threshold * judged would drop x at
    # 15/22.)
    for judged in range(1, 41):
        for against in range(judged + 1):
            rows = [(f"i{k}", w, 1) for k in range(judged) for w in ("p", "q")]
            rows += [(f"i{k}", "x", 2 if k < against else 1) for k in range(judged)]
            js = _js(rows)
            threshold = against / judged
            filtered = filter_workers(js, threshold)
            assert filtered.worker_ids == ("p", "q", "x"), (against, judged)
            assert _columns(filtered) == _columns(js)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=8, max_size=24).flatmap(
        lambda trusts: st.tuples(st.just(trusts), st.permutations(trusts))
    )
)
def test_majority_vote_mean_trust_rounds_like_np_mean(trusts_pair):
    # Two grades tie with the same trust values in different orders: the
    # means agree up to rounding, so the winner depends on summing each
    # grade's supporters with np.mean in record order.
    first, second = trusts_pair
    rows = [("i", f"a{k}", 1, t) for k, t in enumerate(first)]
    rows += [("i", f"b{k}", 2, t) for k, t in enumerate(second)]
    got = majority_vote(_js(rows), tie_break="mean-trust").grades
    assert got == oracles.majority_grades_by_counter([_record(*row) for row in rows],
                                                     "mean-trust")


def test_majority_vote_names_first_record_without_trust():
    js = _js([("i1", "w1", 1, 0.5), ("i2", "w2", 2), ("i1", "w3", 3)])
    with pytest.raises(ValueError, match="item 'i2' by worker 'w2' has none"):
        majority_vote(js, tie_break="mean-trust")


@settings(max_examples=300, deadline=None)
@given(_record_lists(), st.sampled_from([None, *_THRESHOLDS]))
def test_alpha_matches_pair_enumeration_over_the_scale_rule(records, threshold):
    # The oracle's distances come from the scale's rule, not from the
    # package's table.  Items judged once carry no pair; with none judged
    # twice, alpha is undefined and both raise the same error.
    judgments = JudgmentSet.from_records(records)
    if threshold is not None:
        judgments = filter_workers(judgments, threshold)
        records = oracles.kept_records_by_counter(records, threshold)
    try:
        want = oracles.alpha_by_pair_enumeration(
            oracles.records_to_item_grades(records), oracles.RELEVANCE_DISTANCE_BY_RULE
        )
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            krippendorff_alpha(judgments)
        assert str(got.value) == str(exc)
        return
    assert krippendorff_alpha(judgments) == pytest.approx(want, abs=1e-10)


def test_judgment_set_columns_round_trip():
    rows = [("b", "w2", 1, 0.5), ("a", "w1", 3, None), ("b", "w1", 0, 1.0)]
    js = _js(rows)
    assert js.item_ids == ("b", "a")
    assert js.worker_ids == ("w2", "w1")
    assert js.item_codes.tolist() == [0, 1, 0]
    assert js.worker_codes.tolist() == [0, 1, 1]
    assert js.grades.tolist() == [1, 3, 0]
    assert np.isnan(js.trust[1]) and js.trust[[0, 2]].tolist() == [0.5, 1.0]
    assert js.grade_counts().tolist() == [[1, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        js.grades[0] = 2
    empty = JudgmentSet.from_records([])
    assert empty.item_ids == empty.worker_ids == ()
    for col in (empty.item_codes, empty.worker_codes, empty.grades):
        assert col.dtype == np.intp and col.size == 0
    assert empty.trust.dtype == np.float64 and empty.trust.size == 0


def test_judgment_set_duplicate_names_first_repeat():
    with pytest.raises(ValueError, match="item 'i2' by worker 'w1'"):
        _js([("i2", "w1", 1), ("i1", "w1", 2), ("i2", "w1", 3), ("i1", "w1", 0)])


# ------------------------------------------------ chunked parse vs line loop


def _outcome(load, path):
    try:
        js = load(path)
    except ValueError as exc:  # InputFormatError
        return type(exc), str(exc)
    return _columns(js)


def _mostly(valid, flawed):
    """Draw from ``valid`` nine times in ten, else from ``flawed``, so most
    lines parse and a flaw is seldom hidden behind an earlier one."""
    return st.integers(0, 9).flatmap(lambda k: flawed if k == 0 else valid)


_NAMES = _mostly(
    st.sampled_from(["a", "b", "c", "a\x85b", "p\u2028q", "x y"]),
    st.sampled_from(["", 7, None, True, "{b}", "[c]", "e\x1cf", "a\tb", " #c"]),
)
_GRADES = _mostly(
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from([True, False, 2.0, -1, 4, 10**30, 10**400, "1", None]),
)
_TRUST_VALUES = _mostly(
    st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 0, 1, None]),
    st.sampled_from([float("nan"), float("inf"), -0.5, 1.5, 10**400, "0.5", [0.5], True, False]),
)
# Record mappings, some with a bad field and some without a trust.
_RECORDS = st.fixed_dictionaries(
    {"item": _NAMES, "worker": _NAMES, "grade": _GRADES}, optional={"trust": _TRUST_VALUES}
)


@st.composite
def _objects(draw):
    obj = {"item": draw(_NAMES), "worker": draw(_NAMES), "grade": draw(_GRADES)}
    if draw(st.booleans()):
        obj["trust"] = draw(_TRUST_VALUES)
    if not draw(st.integers(0, 19)):
        del obj[draw(st.sampled_from(sorted(obj)))]
    if not draw(st.integers(0, 19)):
        obj["meta"] = {"tags": [1, {"x": "}"}]}
    separators = draw(st.sampled_from([None, (",", ":")]))
    return json.dumps(obj, ensure_ascii=False, separators=separators)


_MERGED_A = '{"item": "a", "worker": "w1", "grade": 1, "z": [{}'
_MERGED_B = '{}]}'
_CUT_A = '{"item": "a", "worker": "w2"'
_CUT_B = '"grade": 1}'
_TWO = '{"item": "b", "worker": "w3", "grade": 2}, {"item": "c", "worker": "w3", "grade": 2}'

_LINES = _mostly(
    _objects(),
    st.one_of(
        st.sampled_from([
            "", "   ", "\t", "\x1c", "\x85", "\u2028", " \x85 ",
            "not json", "{", "}", "[1]", "3", '"s"', "null", "NaN",
            "\x85" + '{"item": "a", "worker": "w", "grade": 1}',
            '{"item": "a",\x1c "worker": "w", "grade": 1}',
            '{"item": "a\x1cb", "worker": "w", "grade": 1}',
            _MERGED_A, _MERGED_B, _CUT_A, _CUT_B, _TWO,
            "9" * 5000, "[" * 100_000, '{"item": ' + "[" * 100_000 + "}",
        ]),
        st.tuples(_objects(), _objects()).map(", ".join),
    ),
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_LINES, max_size=14),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=14, max_size=14),
    st.booleans(),
    st.sampled_from([1, 2, 3, 7, 1 << 16]),
)
@example(  # a duplicate pair, then a format error: the format error wins
    lines=[
        '{"item": "a", "worker": "w", "grade": 1}',
        '{"item": "a", "worker": "w", "grade": 2}',
        '{"item": "b", "worker": "w", "grade": 7}',
    ],
    ends=["\n"] * 14, last_end=True, chunk=4096,
)
@example(  # two duplicate pairs: the first record to repeat a pair is reported
    lines=[
        '{"item": "b", "worker": "w", "grade": 1}', '{"item": "a", "worker": "w", "grade": 2}',
        '{"item": "b", "worker": "w", "grade": 3}', '{"item": "a", "worker": "w", "grade": 0}',
    ],
    ends=["\n"] * 14, last_end=True, chunk=4096,
)
@example(  # a duplicate pair after blank lines: reported at its second line
    lines=[
        '{"item": "a", "worker": "w", "grade": 1}', "", " \x85",
        '{"item": "b", "worker": "w", "grade": 1}',
        '{"item": "a", "worker": "w", "grade": 2}',
    ],
    ends=["\r\n"] * 14, last_end=False, chunk=3,
)
# Lines that are no object alone, but parse to one object per line when
# joined: two lines merge into one object while another splits in two.
@example(lines=[_MERGED_A, _MERGED_B, _TWO], ends=["\n"] * 14, last_end=True, chunk=4096)
@example(lines=[_CUT_A, _CUT_B, _TWO], ends=["\n"] * 14, last_end=True, chunk=4096)
@example(  # a bad grade, then a line that is not JSON: the grade is reported
    lines=['{"item": "a", "worker": "w", "grade": 7}', "not json"],
    ends=["\n"] * 14, last_end=True, chunk=4096,
)
# A bool is no trust; a NaN trust is given, so out of range; a trust too
# large for a float is out of range too; a grade beyond int64 is named in
# full, before the trust out of range on its line.
@example(lines=['{"item": "a", "worker": "w", "grade": 1, "trust": true}'],
         ends=["\n"] * 14, last_end=True, chunk=4096)
@example(lines=['{"item": "a", "worker": "w", "grade": 1}',
                '{"item": "b", "worker": "w", "grade": 1, "trust": NaN}'],
         ends=["\n"] * 14, last_end=True, chunk=4096)
@example(lines=['{"item": "a", "worker": "w", "grade": 1, "trust": 1%s}' % ("0" * 400)],
         ends=["\n"] * 14, last_end=True, chunk=4096)
@example(lines=['{"item": "a", "worker": "w", "grade": %d, "trust": 2}' % (-(2**63) - 1)],
         ends=["\n"] * 14, last_end=True, chunk=4096)
def test_chunked_parse_matches_line_loop(tmp_path_factory, lines, ends, last_end, chunk):
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not last_end:
        text = text[: -len(ends[len(lines) - 1])]
    path = tmp_path_factory.mktemp("judgments") / "j.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(types_module, "_CHUNK_BYTES", chunk):
        got = _outcome(load_judgments, path)
    assert got == _outcome(oracles.judgments_by_line, path)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RECORDS, max_size=8))
@example([_record("a", "w", 2.0)])
@example([_record("a", "w", 1, "0.5")])
@example([_record("a", "w", 1, True)])
@example([_record("a", "w", 1), _record("b", "w", 9), _record("c", 7, 1)])
@example([_record("a", "w", 1), _record("a", "w", 2)])
# Within a record its types come first, then its ranges; across records
# the first bad one wins.
@example([_record("a", "w", 7, "x")])
@example([_record("a", "w", 7, 10**400)])
@example([_record("a", "w", 7), _record("b", "w", 1, 1.5)])
# An item id at fault is reported at the first record that names it.
@example([_record("a", "w", 1), _record("a\ud800", "w", 1), _record("b", "w", 7)])
@example([_record("b", "w", 7, "x"), _record(" #c", "w", 1)])
def test_from_records_agrees_with_load_judgments(tmp_path_factory, records):
    # The same records in a file: the same columns, or the loader's reason
    # without its "path:line: " prefix.
    path = tmp_path_factory.mktemp("judgments") / "j.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    try:
        loaded = load_judgments(path)
    except InputFormatError as exc:
        with pytest.raises(ValueError) as built:
            JudgmentSet.from_records(records)
        assert type(built.value) is ValueError and str(built.value) == exc.reason
        return
    built = JudgmentSet.from_records(records)
    assert _outcome(lambda _: built, path) == _outcome(lambda _: loaded, path)


def _columns_bytes(js):
    columns = (js.item_codes, js.worker_codes, js.grades, js.trust)
    return js.item_ids, js.worker_ids, [(col.dtype, col.tobytes()) for col in columns]


@settings(max_examples=300, deadline=None)
@given(st.lists(_RECORDS, max_size=8))
def test_records_build_the_set_back(records):
    try:
        js = JudgmentSet.from_records(records)
    except ValueError:
        return
    again = JudgmentSet.from_records(js.records)
    assert _columns_bytes(again) == _columns_bytes(js)
    assert again.records == js.records


@pytest.mark.parametrize("record, kind", [
    (("a", "w", 1), "tuple"), (None, "NoneType"), ('{"item": "a"}', "str"),
])
def test_from_records_rejects_a_record_that_is_not_a_mapping(record, kind):
    records = [_record("a", "w", 1), record, _record("b", "w", 7)]
    with pytest.raises(ValueError, match=f"^record 1: expected a mapping, got {kind}$"):
        JudgmentSet.from_records(records)
    # A bad record before it is reported first, as a file reports its first bad line.
    with pytest.raises(ValueError, match=r"^grade must be one of \(0, 1, 2, 3\), got 7$"):
        JudgmentSet.from_records(records[::-1])


