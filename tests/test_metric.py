"""Distances, nearest-neighbor sets, tie orders and the crossing audit."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from oracle import nn_set
from binagg import engine
from binagg.aggregators import IiaStage, NearestNeighborRule
from binagg.engine import masks_array
from binagg.fixtures import four_candidate_tie_order
from binagg.metric import (
    TieOrder,
    _correction_table,
    _distances,
    _feasible_distances,
    check_h2,
    nn_select,
    uniform_weights,
    validate_weights,
    weighted_hamming,
)
from binagg.spaces import EvaluationSpace, builtin_space, from_bits, interval

masks6 = st.integers(0, 63)
weights6 = st.tuples(*([st.integers(1, 5)] * 6))


# ---------------------------------------------------------------------------
# weighted distance


def test_distance_examples():
    assert weighted_hamming(from_bits("011111"), from_bits("110110")) == 3
    assert weighted_hamming(from_bits("101"), from_bits("101"), (3, 2, 1)) == 0
    assert weighted_hamming(from_bits("101"), from_bits("110"), (3, 2, 1)) == 3


def test_weight_validation():
    with pytest.raises(ValueError):
        validate_weights((1, 0, 1), 3)
    with pytest.raises(ValueError):
        validate_weights((1, -2, 1), 3)
    with pytest.raises(ValueError):
        validate_weights((1.5, 1, 1), 3)
    with pytest.raises(ValueError):
        validate_weights((1, 1), 3)
    assert uniform_weights(4) == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "weights",
    [(1, 2, 3, 4, 5, 6), (2**31, 1, 2**40, 3, 2**33, 7), (2**64, 2**64 + 1, 1, 2**70, 5, 2**63)],
    ids=("narrow", "int64", "past-int64"),
)
def test_distance_matrices_are_exact(pref4, weights):
    X = pref4.feasible
    dist = _feasible_distances(pref4, weights)
    assert dist.tolist() == [[weighted_hamming(a, b, weights) for b in X] for a in X]
    # one matrix per space and weights, shared read-only
    assert _feasible_distances(pref4, weights) is dist and not dist.flags.writeable
    outcomes = [0, 63, X[3]]
    assert _distances(outcomes, X, weights, 6).tolist() == [[weighted_hamming(v, x, weights) for x in X] for v in outcomes]


@given(masks6, masks6, weights6)
def test_metric_symmetry_and_identity(a, b, w):
    assert weighted_hamming(a, b, w) == weighted_hamming(b, a, w)
    assert (weighted_hamming(a, b, w) == 0) == (a == b)


@given(masks6, masks6, masks6, weights6)
def test_metric_triangle(a, b, c, w):
    assert weighted_hamming(a, c, w) <= weighted_hamming(a, b, w) + weighted_hamming(b, c, w)


@given(masks6, masks6, weights6)
def test_betweenness_additivity(a, b, w):
    for c in interval(a, b, 6):
        assert weighted_hamming(a, c, w) + weighted_hamming(c, b, w) == weighted_hamming(a, b, w)


@st.composite
def kernel_cases(draw):
    """A space of up to 6 members on m issues, m on either side of each 16-issue chunk edge, weights
    up to 2**70 or none, a tie order or none, and points near the members or anywhere."""
    m = draw(st.sampled_from((1, 15, 16, 17, 20, 21, 40, 63, 64)))
    members = sorted(draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=6)))
    space = EvaluationSpace(m, members)
    weight = st.integers(1, 3) | st.integers(2**31, 2**40) | st.integers(2**62, 2**70)
    weights = draw(st.none() | st.tuples(*[weight] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    near = st.builds(lambda x, j, k: x ^ (1 << j) ^ (1 << k), st.sampled_from(members), *[st.integers(0, m - 1)] * 2)
    points = draw(st.lists(near | st.integers(0, (1 << m) - 1), min_size=1, max_size=12))
    return space, weights, tie, points


TIED_64 = EvaluationSpace(64, [0, (1 << 64) - 1, 0xFFFF0000FFFF0000])


@settings(max_examples=120, deadline=None)
@given(kernel_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
# weights past int64 on every chunk, and points equidistant from all three members
@example((TIED_64, (2**70,) * 64, TieOrder.descending(TIED_64), [0xFFFFFFFF00000000, 0x00000000FFFFFFFF]), 1)
def test_kernel_and_corrections_match_the_oracle(case, block_elements):
    """Distances, the correction table and an nn rule's corrections of the points handed to it,
    against the pure-Python distance and nearest-neighbour scans."""
    space, weights, tie, points = case
    m, X = space.m, space.feasible
    w = weights or (1,) * m
    expected = [space.index(oracle.nn_select(space, p, weights, tie)) for p in points]
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        assert _distances(points, X, w, m).tolist() == [[weighted_hamming(p, x, w) for x in X] for p in points]
        rule = NearestNeighborRule(space, IiaStage.majority(1, m), weights, tie)
        assert rule.indexer()(masks_array(points, m)).tolist() == expected
        assert [nn_select(space, p, weights, tie) for p in points] == [X[i] for i in expected]
    if m <= 17:
        # the kernels take the weights and ranking the rule resolved
        assert _correction_table.__wrapped__(space, rule.weights, rule.tie.ranking)[points].tolist() == expected


# ---------------------------------------------------------------------------
# nearest-neighbor sets


def test_nn_set_four_candidates():
    """The two quoted majority outputs have unique nearest neighbors.

    Both points sit in more than one infeasible subcube, and only the
    issue shared by all their covering patterns can be flipped into the
    space; every other single flip leaves some pattern intact.
    """
    p4 = builtin_space("pref4")
    assert nn_set(p4, from_bits("111110")) == (from_bits("110110"),)
    assert nn_set(p4, from_bits("111010")) == (from_bits("011010"),)


def test_nn_set_identity_on_feasible():
    p3 = builtin_space("pref3")
    for x in p3.feasible:
        assert nn_set(p3, x) == (x,)
        assert nn_select(p3, x, tie=TieOrder.descending(p3)) == x


def test_nn_set_nonempty_equidistant(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        for wv in (None, (2,) + (1,) * (space.m - 1)):
            for p in space.infeasible():
                cands = nn_set(space, p, wv)
                assert cands
                dists = {weighted_hamming(p, c, wv, space.m) for c in cands}
                assert len(dists) == 1


def oracle_nn_select(space, p, weights, tie):
    ranked = sorted(
        space.feasible,
        key=lambda x: (weighted_hamming(p, x, weights, space.m), tie.rank(x) if tie else x),
    )
    return ranked[0]


def test_nn_select_matches_full_scan_oracle(all_builtin_spaces):
    for name, space in all_builtin_spaces:
        ties = [None, TieOrder.ascending(space), TieOrder.descending(space), TieOrder.shuffled(space, 7)]
        for wv in (None, (2,) + (1,) * (space.m - 1)):
            for tie in ties:
                for p in space.infeasible():
                    assert nn_select(space, p, wv, tie) == oracle_nn_select(space, p, wv, tie), name


def test_nn_select_tie_orders():
    p3 = builtin_space("pref3")
    # 111 ties at distance one with three candidates
    assert nn_select(p3, 0b111) == 0b011
    assert nn_select(p3, 0b111, tie=TieOrder.descending(p3)) == 0b110
    p4 = builtin_space("pref4")
    quoted = four_candidate_tie_order()
    assert nn_select(p4, from_bits("111110"), tie=quoted) == from_bits("110110")
    assert nn_select(p4, from_bits("111110")) == from_bits("110110")


def test_nn_select_deterministic(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        tie = TieOrder.shuffled(space, 99)
        first = [nn_select(space, p, None, tie) for p in space.infeasible()]
        second = [nn_select(space, p, None, tie) for p in space.infeasible()]
        assert first == second


# ---------------------------------------------------------------------------
# tie orders


def test_tie_order_validation():
    p3 = builtin_space("pref3")
    with pytest.raises(ValueError):
        TieOrder(p3, p3.feasible[:-1])
    with pytest.raises(ValueError):
        TieOrder(p3, p3.feasible + (0b111,))
    asc = TieOrder.ascending(p3)
    assert asc.rank(p3.feasible[0]) == 0
    assert asc.rank(0b001) < asc.rank(0b110)
    assert TieOrder.descending(p3).rank(0b110) < TieOrder.descending(p3).rank(0b001)


def test_tie_order_shuffle_deterministic():
    p3 = builtin_space("pref3")
    assert TieOrder.shuffled(p3, 5).ranking == TieOrder.shuffled(p3, 5).ranking


# ---------------------------------------------------------------------------
# crossing audit


def test_fixed_order_selectors_pass_h2(all_builtin_spaces):
    for name, space in all_builtin_spaces:
        for tie in (TieOrder.ascending(space), TieOrder.descending(space), TieOrder.shuffled(space, 3)):
            ok, witness = check_h2(lambda p, t=tie: nn_select(space, p, None, t), space)
            assert ok and witness is None, name


def test_h2_disjoint_sets_cannot_cross():
    p3 = builtin_space("pref3")
    # the two infeasible points have disjoint nearest sets, so any
    # valid selector passes
    picks = {0b111: 0b110, 0b000: 0b001}
    ok, witness = check_h2(picks.__getitem__, p3)
    assert ok and witness is None


def test_h2_detects_crossing():
    doc = builtin_space("doctrinal")
    # 011 and 110 share the nearest candidates 010 and 111; resolving
    # them to different shared members is exactly a crossing
    crossing = {
        0b001: 0b000,
        0b011: 0b010,
        0b101: 0b100,
        0b110: 0b111,
    }
    ok, witness = check_h2(crossing.__getitem__, doc)
    assert not ok
    a, b, alpha, beta = witness
    assert {alpha, beta} == {0b010, 0b111}
    assert {a, b} == {0b011, 0b110}


def test_h2_rejects_non_nearest_selector():
    p3 = builtin_space("pref3")
    with pytest.raises(ValueError, match="not a nearest-neighbor selector"):
        check_h2(lambda p: 0b001, p3)


def test_h2_refuses_a_wide_cube_before_enumerating():
    # 2^30 masks would take minutes and gigabytes to list
    space = EvaluationSpace(30, [0, 1])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"30 issues have 2\^30 masks; infeasible points are listed up to 20 issues"):
        check_h2(lambda p: 0, space)
    with pytest.raises(ValueError, match="30 issues"):
        space.infeasible()
    assert time.perf_counter() - start < 1
