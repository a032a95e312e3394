"""Spaces, generators, projections, MIPEs and betweenness geometry.

The MIPE and neighbor tests lean on deliberately dumb oracles that
recompute everything from scratch out of the raw feasible sets, so the
library's incremental implementations are checked against an
independent route.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from binagg.spaces import (
    MAX_ORDERS,
    EvaluationSpace,
    InfeasibleOrderError,
    PartialEvaluation,
    bit_at,
    choose_space,
    cycle_space,
    decode_order,
    encode_order,
    enumerate_mipes,
    explicit_space,
    from_bits,
    interval,
    is_between,
    is_mipe,
    mipe_set,
    mipe_type,
    neighbors_of,
    partial_feasible,
    preference_space,
    project,
    to_bits,
    validate_profile,
)

# ---------------------------------------------------------------------------
# oracles


def oracle_mipes(space):
    """Brute-force: test every partial evaluation straight off the feasible set."""

    def feasible_pattern(K, bits):
        return any(
            all(bit_at(x, j, space.m) == b for j, b in zip(K, bits)) for x in space.feasible
        )

    out = set()
    for size in range(1, space.m + 1):
        for K in itertools.combinations(range(1, space.m + 1), size):
            for bits in itertools.product((0, 1), repeat=size):
                if feasible_pattern(K, bits):
                    continue
                if all(
                    feasible_pattern(K[:d] + K[d + 1 :], bits[:d] + bits[d + 1 :])
                    for d in range(size)
                    if size > 1
                ):
                    out.add((K, bits))
    return out


def oracle_neighbors(space, b):
    out = []
    for a in space.feasible:
        open_interval = set(interval(a, b, space.m)) - {a, b}
        if not (open_interval & set(space.feasible)):
            out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# bit plumbing


def test_bits_round_trip():
    assert from_bits("110") == 6
    assert to_bits(6, 3) == "110"
    assert to_bits(6, 5) == "00110"
    assert bit_at(from_bits("100"), 1, 3) == 1
    assert bit_at(from_bits("100"), 3, 3) == 0


def test_from_bits_rejects_junk():
    with pytest.raises(ValueError):
        from_bits("10a")
    with pytest.raises(ValueError):
        from_bits("")


# ---------------------------------------------------------------------------
# generators


def test_pref3_is_cube_minus_constant_vectors(pref3):
    assert set(pref3.feasible) == set(range(8)) - {0b000, 0b111}
    assert pref3.m == 3
    assert pref3.issue_labels == ("a>b", "b>c", "c>a")


def test_pref_counts():
    for k in (2, 3, 4):
        sp = preference_space(k)
        assert sp.size == len(list(itertools.permutations(range(k))))
        assert sp.m == k * (k - 1) // 2


def test_pref_orientation_errors():
    with pytest.raises(ValueError):
        preference_space(1)
    with pytest.raises(ValueError):
        preference_space(3, [("a", "b"), ("b", "c"), ("b", "a")])  # pair covered twice
    with pytest.raises(ValueError):
        preference_space(3, [("a", "b"), ("b", "c")])  # missing pair
    with pytest.raises(ValueError):
        preference_space(3, [("a", "a"), ("b", "c"), ("c", "a")])


def test_classifier_space(classifier4):
    assert set(classifier4.feasible) == set(range(16)) - {0b0110, 0b1001}


def test_choose_2_1():
    assert set(choose_space(2, 1).feasible) == {0b10, 0b01}


def test_choose_counts():
    sp = choose_space(5, 2)
    assert sp.size == 10
    assert all(x.bit_count() == 2 for x in sp.feasible)


@pytest.mark.parametrize("m", range(1, 11))
def test_choose_matches_the_bit_count_filter(m):
    for k in range(1, m + 1):
        assert choose_space(m, k).feasible == tuple(x for x in range(1 << m) if x.bit_count() == k)


def test_choose_costs_the_member_count_not_two_to_the_m():
    # 2**40 masks would never finish; the 40 members are built directly
    assert choose_space(40, 1).feasible == tuple(1 << j for j in range(40))


def test_cycle_space():
    sp = cycle_space(6)
    assert set(to_bits(x, 3) for x in sp.feasible) == {"000", "100", "110", "111", "011", "001"}
    with pytest.raises(ValueError):
        cycle_space(5)
    with pytest.raises(ValueError):
        cycle_space(2)


def test_cycle_space_is_a_cycle():
    # every member has exactly two feasible points at distance one
    for v in (6, 8, 10):
        sp = cycle_space(v)
        assert sp.size == v
        for x in sp.feasible:
            assert sum(1 for y in sp.feasible if (x ^ y).bit_count() == 1) == 2


def test_doctrinal_space(doctrinal):
    assert set(to_bits(x, 3) for x in doctrinal.feasible) == {"000", "010", "100", "111"}


def test_explicit_space_rejects_empty():
    with pytest.raises(ValueError):
        explicit_space(3, [])


def test_space_rejects_out_of_range_masks():
    with pytest.raises(ValueError):
        EvaluationSpace(3, [9])


@pytest.mark.parametrize(
    "build, m",
    [(lambda: choose_space(70, 1), 70), (lambda: preference_space(12), 66), (lambda: cycle_space(200), 100)],
)
def test_generators_check_the_issue_count_before_enumerating(build, m):
    # refused before enumerating: choose would walk 2**70 masks, pref 12! orders
    with pytest.raises(ValueError, match=f"issue count must be in 1..64, got {m}"):
        build()


def test_choose_checks_the_member_count_before_enumerating():
    assert choose_space(16, 8).size == 12870
    # C(30, 15) = 155,117,520 committees are refused, not walked
    with pytest.raises(ValueError, match=r"choose\(30,15\) has 155117520 members; enumeration stops at 40320"):
        choose_space(30, 15)


def test_preference_space_checks_the_order_count_before_enumerating():
    assert preference_space(8).size == MAX_ORDERS
    for k in (9, 10, 11):
        with pytest.raises(ValueError, match=f"pref\\({k}\\) has {k}! = "):
            preference_space(k)


# ---------------------------------------------------------------------------
# order codec


def test_encode_known_orders(pref4):
    assert to_bits(encode_order(pref4, ("a", "b", "d", "c")), 6) == "110110"
    assert to_bits(encode_order(pref4, ("b", "c", "a", "d")), 6) == "011111"
    assert to_bits(encode_order(pref4, ("d", "c", "a", "b")), 6) == "101000"
    assert to_bits(encode_order(pref4, ("b", "c", "d", "a")), 6) == "011011"


def test_codec_round_trip(pref4):
    for perm in itertools.permutations("abcd"):
        assert decode_order(pref4, encode_order(pref4, perm)) == perm


def test_decode_reports_cycle(pref3):
    with pytest.raises(InfeasibleOrderError) as exc:
        decode_order(pref3, from_bits("111"))
    assert len(exc.value.cycle) == 3


def test_codec_requires_pref_space(doctrinal):
    with pytest.raises(ValueError):
        encode_order(doctrinal, ("a", "b", "c"))


# ---------------------------------------------------------------------------
# membership


def test_is_feasible(pref3, doctrinal):
    assert not pref3.is_feasible(from_bits("111"))
    assert not doctrinal.is_feasible(from_bits("110"))
    for x in pref3.feasible:
        assert pref3.is_feasible(x)
    with pytest.raises(ValueError):
        pref3.is_feasible(8)


def test_validate_profile(doctrinal):
    assert validate_profile(doctrinal, [0, 7]) == (0, 7)
    with pytest.raises(ValueError):
        validate_profile(doctrinal, [0b110])
    with pytest.raises(ValueError):
        validate_profile(doctrinal, [])


# ---------------------------------------------------------------------------
# projections


def test_project_pref3(pref3):
    pats = {pe.bits for pe in project(pref3, (1, 2))}
    assert pats == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_project_doctrinal_conclusion(doctrinal):
    assert {pe.bits for pe in project(doctrinal, (3,))} == {(0,), (1,)}


def test_project_full_support_is_feasible_set(pref3):
    pes = project(pref3, range(1, 4))
    masks = {from_bits("".join(map(str, pe.bits))) for pe in pes}
    assert masks == set(pref3.feasible)


def test_project_rejects_empty(pref3):
    with pytest.raises(ValueError):
        project(pref3, ())
    with pytest.raises(ValueError):
        project(pref3, (0, 1))


# ---------------------------------------------------------------------------
# MIPEs


def test_mipes_match_oracle_on_all_builtins(all_builtin_spaces):
    for name, space in all_builtin_spaces:
        got = {(pe.support, pe.bits) for pe in enumerate_mipes(space)}
        assert got == oracle_mipes(space), name


def test_mipes_pref3(pref3):
    assert [(pe.support, pe.bits) for pe in pref3.mipes()] == [
        ((1, 2, 3), (0, 0, 0)),
        ((1, 2, 3), (1, 1, 1)),
    ]


def test_mipes_doctrinal(doctrinal):
    assert [(pe.support, pe.bits) for pe in doctrinal.mipes()] == [
        ((1, 3), (0, 1)),
        ((2, 3), (0, 1)),
        ((1, 2, 3), (1, 1, 0)),
    ]


def test_mipes_classifier(classifier4):
    assert [(pe.support, pe.bits) for pe in classifier4.mipes()] == [
        ((1, 2, 3, 4), (0, 1, 1, 0)),
        ((1, 2, 3, 4), (1, 0, 0, 1)),
    ]


def test_pref4_mipe_structure(pref4):
    """Eight three-issue cycle patterns plus six four-issue cycle patterns."""
    mipes = pref4.mipes()
    assert len(mipes) == 14
    by_size = {}
    for pe in mipes:
        by_size.setdefault(len(pe.support), []).append(pe)
    assert sorted(by_size) == [3, 4]
    assert len(by_size[3]) == 8
    assert len(by_size[4]) == 6
    # each size-3 pattern orients the three pairs of one alternative triple
    # as a directed cycle: every alternative wins exactly once
    for pe in by_size[3]:
        pairs = [pref4.orientation[j - 1] for j in pe.support]
        alts = set()
        for p, q in pairs:
            alts.update((p, q))
        assert len(alts) == 3
        wins = {a: 0 for a in alts}
        for (p, q), b in zip(pairs, pe.bits):
            wins[p if b else q] += 1
        assert set(wins.values()) == {1}


def test_mipe_canonical_order(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        keys = [(len(pe.support), pe.support, pe.bits) for pe in space.mipes()]
        assert keys == sorted(keys)


def test_mipe_soundness(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        for pe in space.mipes():
            assert not partial_feasible(space, pe)
            for j in pe.support:
                if len(pe.support) > 1:
                    assert partial_feasible(space, pe.drop(j))


def test_mipe_sets_cover_complement(all_builtin_spaces):
    for name, space in all_builtin_spaces:
        covered = set()
        for pe in space.mipes():
            covered.update(mipe_set(space, pe))
        assert covered == set(space.infeasible()), name


def test_mipe_type_completeness(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        for x in space.infeasible():
            assert mipe_type(space, x)


def test_mipe_set_values(pref3, doctrinal):
    full = pref3.mipes()[1]  # (1,1,1)
    assert mipe_set(pref3, full) == (0b111,)
    first = doctrinal.mipes()[0]  # x1=0, x3=1
    assert mipe_set(doctrinal, first) == (0b001, 0b011)
    for space in (pref3, doctrinal):
        for pe in space.mipes():
            assert len(mipe_set(space, pe)) == 2 ** (space.m - len(pe.support))


def test_mipe_type_four_candidates(pref4):
    mt = mipe_type(pref4, from_bits("111110"))
    assert {(pe.support, pe.bits) for pe in mt} == {
        ((1, 2, 3), (1, 1, 1)),
        ((3, 4, 6), (1, 1, 0)),
        ((1, 3, 5, 6), (1, 1, 1, 0)),
    }
    mt2 = mipe_type(pref4, from_bits("111010"))
    assert {(pe.support, pe.bits) for pe in mt2} == {
        ((1, 2, 3), (1, 1, 1)),
        ((1, 4, 5), (1, 0, 1)),
        ((1, 3, 5, 6), (1, 1, 1, 0)),
    }
    assert set(mt) != set(mt2)


def test_mipe_type_pref3_constant(pref3):
    mt = mipe_type(pref3, 0b000)
    assert [(pe.support, pe.bits) for pe in mt] == [((1, 2, 3), (0, 0, 0))]


def test_mipe_type_rejects_feasible(pref3):
    with pytest.raises(ValueError):
        mipe_type(pref3, 0b110)


def test_mipe_type_is_memoised_and_rejects_feasible_masks_every_time(pref3):
    mipe_type.cache_clear()
    first = mipe_type(pref3, 0b000)
    assert mipe_type(pref3, 0b000) is first
    assert mipe_type.cache_info().hits == 1
    for _ in range(2):
        with pytest.raises(ValueError):
            mipe_type(pref3, 0b110)


def test_mipe_set_rejects_non_mipe(pref3):
    with pytest.raises(ValueError):
        mipe_set(pref3, PartialEvaluation((1,), (1,)))


def test_is_mipe(doctrinal):
    assert is_mipe(doctrinal, PartialEvaluation((1, 3), (0, 1)))
    assert not is_mipe(doctrinal, PartialEvaluation((3,), (1,)))
    assert not is_mipe(doctrinal, PartialEvaluation((1, 2, 3), (0, 1, 1)))


# ---------------------------------------------------------------------------
# partial evaluations


def test_partial_evaluation_validation():
    with pytest.raises(ValueError):
        PartialEvaluation((), ())
    with pytest.raises(ValueError):
        PartialEvaluation((2, 1), (0, 0))
    with pytest.raises(ValueError):
        PartialEvaluation((1, 2), (0,))
    with pytest.raises(ValueError):
        PartialEvaluation((1,), (2,))


def test_partial_evaluation_restrict():
    pe = PartialEvaluation((1, 3, 4), (1, 0, 1))
    assert pe.restrict((4, 1)) == PartialEvaluation((1, 4), (1, 1))
    assert pe.drop(3) == PartialEvaluation((1, 4), (1, 1))
    with pytest.raises(ValueError):
        pe.restrict((2,))


def test_partial_evaluation_describe():
    assert PartialEvaluation((1, 3), (0, 1)).describe() == "K:{1,3} bits:01"


# ---------------------------------------------------------------------------
# intervals and neighbors


def test_interval_examples():
    assert interval(0b101, 0b110, 3) == (0b100, 0b101, 0b110, 0b111)
    assert interval(0b101, 0b101, 3) == (0b101,)


@given(st.integers(0, 63), st.integers(0, 63))
def test_interval_size_and_symmetry(a, b):
    iv = interval(a, b, 6)
    assert len(iv) == 2 ** (a ^ b).bit_count()
    assert interval(b, a, 6) == iv
    assert a in iv and b in iv


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_is_between_matches_interval(a, c, b):
    assert is_between(a, c, b) == (c in interval(a, b, 6))


def test_neighbors_examples(doctrinal, pref3):
    assert set(neighbors_of(doctrinal, 0b110)) == {0b100, 0b010, 0b111}
    assert set(neighbors_of(pref3, 0b111)) == {0b110, 0b011, 0b101}


def test_neighbors_match_oracle(all_builtin_spaces):
    for name, space in all_builtin_spaces:
        for b in space.infeasible():
            assert neighbors_of(space, b) == oracle_neighbors(space, b), name


def test_distance_one_feasible_is_neighbor(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        for b in space.infeasible():
            close = [a for a in space.feasible if (a ^ b).bit_count() == 1]
            got = set(neighbors_of(space, b))
            assert got.issuperset(close)


def test_neighbors_rejects_feasible(pref3):
    with pytest.raises(ValueError):
        neighbors_of(pref3, 0b110)


# ---------------------------------------------------------------------------
# random-space invariants

random_spaces = st.sets(st.integers(0, 15), min_size=1).map(
    lambda members: explicit_space(4, sorted(members))
)


@given(random_spaces)
def test_mipe_subcubes_define_any_space(space):
    covered = set()
    for pe in enumerate_mipes(space):
        covered.update(mipe_set(space, pe))
    assert covered == set(space.infeasible())


@given(random_spaces)
def test_mipe_minimality_on_any_space(space):
    for pe in enumerate_mipes(space):
        assert not partial_feasible(space, pe)
        for j in pe.support:
            if len(pe.support) > 1:
                assert partial_feasible(space, pe.drop(j))


@given(random_spaces)
def test_every_infeasible_point_has_a_type(space):
    for x in space.infeasible():
        assert mipe_type(space, x)


@given(random_spaces)
def test_neighbors_oracle_on_any_space(space):
    for b in space.infeasible():
        assert neighbors_of(space, b) == oracle_neighbors(space, b)
