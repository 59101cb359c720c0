"""Set partitions, the refinement order, and Q-spec spaces."""

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import (
    QSpec,
    SetPartition,
    compose,
    disc_completion,
    dm_space,
    enumerate_partitions,
    incomparable,
    lp_minimal,
    refines,
    s_max,
    s_min,
    smyth,
    validate_qspec,
)


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


# -- construction and canonical form ------------------------------------------


def test_of_normalises_block_order():
    p = SetPartition.of([[3], [1, 2], [4]], 4)
    assert p.blocks == ((1, 2), (3,), (4,))
    assert p.length == 3
    assert p.shape() == (2, 1, 1)
    assert p.codim() == 1  # one non-singleton block


def test_rejects_bad_blocks():
    with pytest.raises(ValueError):
        SetPartition.of([[1, 2]], 3)  # not a cover
    with pytest.raises(ValueError):
        SetPartition.of([[1, 2], [2, 3]], 3)  # overlap
    with pytest.raises(ValueError):
        SetPartition.of([[1, 2], [3], [4]], 3)  # out of range


@pytest.mark.parametrize("text", ["1 1|2", "1 2 2|3", "1 1 2|3"])
def test_rejects_marking_repeated_inside_a_block(text):
    with pytest.raises(ValueError, match=r"marking \d repeated in block"):
        SetPartition.parse(text)


@pytest.mark.parametrize(
    "text,index", [("1 2|3|", 3), ("", 1), ("|1 2 3", 1), ("1 2||3", 2)]
)
def test_rejects_empty_block(text, index):
    with pytest.raises(ValueError, match=rf"^block {index} of partition .* is empty$"):
        SetPartition.parse(text)
    with pytest.raises(ValueError, match="^empty block$"):
        SetPartition.of([[1, 2], [], [3]], 3)


def test_parse_text_round_trip():
    for text in ["1 2|3", "1|2|3", "1 2 3"]:
        assert SetPartition.parse(text, 3).text() == text
    p = SetPartition.parse("1 3|2 4", 4)
    assert p.blocks == ((1, 3), (2, 4))


def test_extremes():
    assert s_max(3).blocks == ((1,), (2,), (3,))
    assert s_min(3).blocks == ((1, 2, 3),)
    assert s_max(1) == s_min(1)


def test_block_of():
    p = SetPartition.parse("1 3|2 4", 4)
    assert p.block_of(3) == (1, 3)
    assert p.block_of(2) == (2, 4)


# -- enumeration ---------------------------------------------------------------


@pytest.mark.parametrize("n,count", sorted(BELL.items()))
def test_bell_numbers(n, count):
    parts = enumerate_partitions(n)
    assert len(parts) == count
    assert len(set(parts)) == count
    assert parts[0] == s_min(n)
    assert parts[-1] == s_max(n)


def test_enumeration_sorted_by_length():
    lengths = [p.length for p in enumerate_partitions(4)]
    assert lengths == sorted(lengths)


# -- refinement order -----------------------------------------------------------


def test_refines_examples():
    coarse = SetPartition.parse("1 2 3|4", 4)
    fine = SetPartition.parse("1 2|3|4", 4)
    assert refines(coarse, fine)
    assert not refines(fine, coarse)
    assert refines(s_min(4), fine)
    assert refines(coarse, s_max(4))


@st.composite
def partitions(draw, n=4):
    labels = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    blocks: dict[int, list[int]] = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    return SetPartition.of(list(blocks.values()), n)


@given(partitions(), partitions(), partitions())
@settings(max_examples=150, deadline=None)
def test_refines_is_a_partial_order(a, b, c):
    assert refines(a, a)
    if refines(a, b) and refines(b, a):
        assert a == b
    if refines(a, b) and refines(b, c):
        assert refines(a, c)


@given(partitions())
@settings(max_examples=60, deadline=None)
def test_extremes_bound_everything(p):
    assert refines(s_min(4), p)
    assert refines(p, s_max(4))


def test_incomparable():
    assert incomparable((1, 2), (2, 3))
    assert not incomparable((1, 2), (1, 2, 3))
    assert not incomparable((1, 2), (3, 4))  # disjoint pairs are compatible


# -- composition -----------------------------------------------------------------


def test_compose_groups_blocks():
    s = SetPartition.parse("1 2|3|4", 4)
    p = SetPartition.parse("1 2 3|4", 4)
    # p is coarser; composing gives a partition of s's block indices
    q = compose(p, s)
    # s has blocks (1,2),(3),(4) numbered 1,2,3; p merges the first two
    assert q.n == 3
    assert q.blocks == ((1, 2), (3,))


def test_compose_requires_refinement():
    a = SetPartition.parse("1 2|3 4", 4)
    b = SetPartition.parse("1 3|2 4", 4)
    with pytest.raises(ValueError):
        compose(a, b)


@given(partitions())
@settings(max_examples=60, deadline=None)
def test_compose_with_extremes(p):
    # composing with itself yields singletons of its indices
    assert compose(p, p) == s_max(p.length)
    # the one-block partition groups everything
    assert compose(s_min(4), p) == s_min(p.length)


def test_disc_completion_fills_singletons():
    p = disc_completion([[1, 2], [4, 5]], 5)
    assert p.blocks == ((1, 2), (3,), (4, 5))


# -- Q-specs ----------------------------------------------------------------------


def test_dm_space_is_empty():
    assert dm_space(3).allowed == frozenset()


def test_smyth_is_length_filter():
    q = smyth(4, 2)
    assert all(p.length <= 2 for p in q.allowed)
    assert SetPartition.parse("1 2 3|4", 4) in q.allowed
    assert SetPartition.parse("1 2|3|4", 4) not in q.allowed


def test_lp_minimal_allows_everything_but_s_max():
    q = lp_minimal(4)
    assert len(q.allowed) == BELL[4] - 1
    assert s_max(4) not in q.allowed
    # n=1 has a single partition, which is S_max: nothing can be allowed
    assert lp_minimal(1).allowed == frozenset()


def test_validate_qspec_rejects_s_max():
    with pytest.raises(ValueError):
        validate_qspec(QSpec(3, frozenset([s_max(3)])))


def test_validate_qspec_requires_coarsening_closure():
    fine = SetPartition.parse("1 2|3", 3)
    # allowing the finer one without the one-block coarsening is invalid
    with pytest.raises(ValueError):
        validate_qspec(QSpec(3, frozenset([fine])))
    ok = QSpec(3, frozenset([fine, s_min(3)]))
    validate_qspec(ok)


def test_qspec_json_round_trip(tmp_path):
    q = smyth(4, 2)
    payload = {
        "n": 4,
        "convention": "BKN-allowed-singularities",
        "allowed": [
            "1 2 3 4", "1|2 3 4", "1 2|3 4", "1 2 3|4",
            "1 3|2 4", "1 3 4|2", "1 4|2 3", "1 2 4|3",
        ],
    }
    back = QSpec.from_json_obj(payload)
    assert back == q
    path = tmp_path / "space.json"
    path.write_text(__import__("json").dumps(payload))
    assert QSpec.load(path) == q
