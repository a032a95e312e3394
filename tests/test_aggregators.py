"""Stages, the rule zoo, committee shortcuts and structural checks."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from binagg import aggregators, engine

from binagg.aggregators import (
    MAX_STAGE_ARITY,
    BudgetExceededError,
    Dictator,
    IiaStage,
    NearestNeighborRule,
    Partition,
    Plurality,
    StageRule,
    TableRule,
    WelfareMaximizer,
    check_structural,
    committee_tie_order,
    monotone_tables,
    outcome_table,
    parse_rule,
    swm_topk,
)
from binagg.aggregators import _anonymous_rows, _is_monotone_table, _quota_table
from binagg.engine import truth_bits
from binagg.fixtures import (
    condorcet_rows,
    conjunction_paradox_rows,
    four_candidate_case,
    four_candidate_tie_order,
    plurality_scenarios,
    welfare_separation_case,
)
from binagg.manipulation import find_witness
from binagg.metric import TieOrder, check_h2, weighted_hamming
from binagg.spaces import EvaluationSpace, builtin_space, choose_space, from_bits, interval, to_bits
from oracle import iter_profiles

# ---------------------------------------------------------------------------
# stages


def test_majority_stage_tables():
    stage = IiaStage.majority(3, 3)
    assert stage.apply(condorcet_rows()) == 0b111
    assert stage.apply(conjunction_paradox_rows()) == 0b110


def test_quota_bounds():
    IiaStage.quota(3, [1, 4, 2])
    with pytest.raises(ValueError):
        IiaStage.quota(3, [0, 1, 1])
    with pytest.raises(ValueError):
        IiaStage.quota(3, [5, 1, 1])


def test_stage_rejects_non_monotone():
    # table 0b01 maps the all-zero column to 1 and everything else to 0;
    # the monotonicity check is memoised, so it must reject on every build,
    # including after a valid stage of the same arity
    for _ in range(2):
        with pytest.raises(ValueError, match="not monotone"):
            IiaStage(2, [0b0001])
    IiaStage(2, [0b1000, 0b1110])
    with pytest.raises(ValueError, match="not monotone"):
        IiaStage(2, [0b0001])


def test_stage_arity_checks():
    stage = IiaStage.majority(3, 3)
    with pytest.raises(ValueError):
        stage.apply((0b110, 0b011))
    with pytest.raises(ValueError):
        stage.apply(condorcet_rows(), m=4)


def test_stage_anonymity():
    assert IiaStage.majority(3, 2).is_anonymous
    assert IiaStage.unanimity(3, 2).is_anonymous
    # projection onto voter 1 is monotone but not anonymous
    proj = 0
    for c in range(8):
        if (c >> 2) & 1:
            proj |= 1 << c
    assert not IiaStage(3, [proj]).is_anonymous
    # every issue's decider counts, not just the first
    proj5 = sum(1 << c for c in range(1 << 5) if c >> 4)
    assert not IiaStage(5, [_quota_table(5, 3), proj5]).is_anonymous
    assert IiaStage(5, [_quota_table(5, 3), _quota_table(5, 6)]).is_anonymous


def test_stage_structure_is_memoised_per_tables():
    tables = (_quota_table(3, 2), 0b11110000, _quota_table(3, 4))
    first = IiaStage(3, tables)
    answers = (first.is_anonymous, first.influential(3))
    assert answers == (False, (0, 1, 2))
    # an equal stage answers without repacking its truth bits
    with mock.patch.object(aggregators, "truth_bits", side_effect=AssertionError("repacked")):
        again = IiaStage(3, tables)
        assert (again.is_anonymous, again.influential(3)) == answers
    with pytest.raises(ValueError, match="stage arity is 3, profile has 2 rows"):
        first.influential(2)


def test_stage_tables_match_oracle():
    def agree(tab, n):
        assert _is_monotone_table(tab, n) == oracle.is_monotone_table(tab, n)
        assert _anonymous_rows(truth_bits([tab], n), n)[0] == oracle.is_anonymous_table(tab, n)
        if oracle.is_monotone_table(tab, n):
            assert IiaStage(n, [tab]).is_anonymous == oracle.is_anonymous_table(tab, n)

    for n in range(1, 5):
        for tab in monotone_tables(n):
            assert oracle.is_monotone_table(tab, n)
            agree(tab, n)
        every = range(1 << (1 << n))
        assert [tab for tab in every if oracle.is_monotone_table(tab, n)] == list(monotone_tables(n))
    rng = random.Random(5)
    for n in range(1, 9):
        for _ in range(40):
            agree(rng.getrandbits(1 << n), n)
            # a random map from vote counts to outputs: anonymous, rarely monotone
            by_count = [rng.getrandbits(1) for _ in range(n + 1)]
            agree(sum(by_count[c.bit_count()] << c for c in range(1 << n)), n)
    for n in range(1, 11):
        for t in range(1, n + 2):
            tab = _quota_table(n, t)
            assert tab == oracle.quota_table(n, t)
            assert _is_monotone_table(tab, n) and IiaStage.quota(n, [t]).is_anonymous


def test_stage_arity_limit():
    IiaStage.majority(MAX_STAGE_ARITY, 1)
    for n in (MAX_STAGE_ARITY + 1, 100, 10**9):
        with pytest.raises(ValueError, match=f"at most {MAX_STAGE_ARITY}"):
            IiaStage.majority(n, 2)
        with pytest.raises(ValueError, match=f"at most {MAX_STAGE_ARITY}"):
            IiaStage(n, [0])
    with pytest.raises(ValueError, match="at least 1"):
        IiaStage.majority(0, 2)


def test_monotone_counts():
    assert len(monotone_tables(1)) == 3
    assert len(monotone_tables(2)) == 6
    assert len(monotone_tables(3)) == 20
    assert len(monotone_tables(4)) == 168
    with pytest.raises(ValueError):
        monotone_tables(5)


def test_unanimity_consistent_on_conjunction_space():
    doc = builtin_space("doctrinal")
    stage = IiaStage.unanimity(3, 3)
    for _, _, rows in iter_profiles(doc, 3):
        assert stage.apply(rows) in doc


def test_stage_output_between_opinion_and_lied_output():
    """Monotone per-issue stages keep the truthful output inside the
    subcube spanned by the voter's opinion and the lied output."""
    for name in ("pref3", "doctrinal", "cycle6", "classifier4"):
        space = builtin_space(name)
        S = space.size
        outputs = list(outcome_table(space, StageRule(space, IiaStage.majority(3, space.m)), 3))
        for pid, ridx, rows in iter_profiles(space, 3):
            for i in range(3):
                stride = S ** (2 - i)
                base = pid - ridx[i] * stride
                for y in range(S):
                    assert outputs[pid] in interval(rows[i], outputs[base + y * stride], space.m)


def test_stage_betweenness_sampled_on_six_issues(pref4):
    import random

    rng = random.Random(2024)
    from binagg.aggregators import monotone_tables

    tabs = monotone_tables(3)
    for _ in range(2000):
        stage = IiaStage(3, tuple(rng.choice(tabs) for _ in range(6)))
        rows = tuple(rng.choice(pref4.feasible) for _ in range(3))
        i = rng.randrange(3)
        y = rng.choice(pref4.feasible)
        v = stage.apply(rows)
        u = stage.apply(rows[:i] + (y,) + rows[i + 1 :])
        assert v in interval(rows[i], u, 6)


# ---------------------------------------------------------------------------
# plurality


def test_plurality_published_profiles(pref3):
    plu = Plurality(pref3)
    s1, s2, s3 = plurality_scenarios()
    assert plu(s1["rows"]) == s1["truthful"]
    assert plu(s1["rows"][:1] + (s1["lie"],) + s1["rows"][2:]) == s1["lied"]
    assert plu(s2["rows"]) == s2["truthful"]
    assert plu(s3["rows"]) == s3["truthful"]


def test_plurality_explicit_tie_order(pref3):
    plu = Plurality(pref3, tie=TieOrder.ascending(pref3))
    assert plu((0b110, 0b011, 0b101)) == 0b011


# ---------------------------------------------------------------------------
# partition rules


def test_partition_trace(pref3):
    rule = Partition(pref3, [{1, 2}, {3}])
    assert rule((0b110, 0b011)) == 0b110


def test_partition_whole_block_is_dictator(pref3):
    rule = Partition(pref3, [{1, 2, 3}, set()])
    for _, _, rows in iter_profiles(pref3, 2):
        assert rule(rows) == rows[0]


def test_almost_dictator_first_branch(pref3):
    rule = Partition(pref3, [{1, 2}, {3}])
    for _, _, rows in iter_profiles(pref3, 2):
        joined = (rows[0] & 0b110) | (rows[1] & 0b001)
        if joined in pref3:
            assert rule(rows) == joined


def test_partition_always_feasible(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        rule = Partition(space, [set(range(1, space.m + 1, 2)), set(range(2, space.m + 1, 2))])
        for _, _, rows in iter_profiles(space, 2):
            assert rule(rows) in space


@given(
    st.sets(st.integers(0, 15), min_size=1),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
)
def test_partition_feasible_on_random_spaces(members, row_seeds, owners):
    from binagg.spaces import explicit_space

    space = explicit_space(4, sorted(members))
    blocks = [set(), set()]
    for j, owner in enumerate(owners, start=1):
        blocks[owner].add(j)
    rule = Partition(space, blocks)
    rows = tuple(space.feasible[seed % space.size] for seed in row_seeds)
    assert rule(rows) in space


def test_partition_block_validation(pref3):
    with pytest.raises(ValueError):
        Partition(pref3, [{1, 2}, {2, 3}])
    with pytest.raises(ValueError):
        Partition(pref3, [{1, 2}])
    with pytest.raises(ValueError):
        Partition(pref3, [{1, 2, 3, 4}])
    rule = Partition(pref3, [{1, 2}, {3}])
    with pytest.raises(ValueError):
        rule((0b110,))


@pytest.mark.parametrize(
    "make, error",
    (
        (lambda space: Dictator(space, 4), "profile has 3 voters, dictator is voter 4"),
        (lambda space: Partition(space, [{1, 2}, {3}]), "rule partitions issues over 2 voters, profile has 3"),
    ),
    ids=("dictator", "partition"),
)
def test_rules_refuse_a_voter_count_they_cannot_read(pref3, make, error):
    # one check per rule, reached by hunts through the voters it reads and by structural checks through its evaluator
    with pytest.raises(ValueError, match=error):
        find_witness(pref3, make(pref3), 3, "partial")
    with pytest.raises(ValueError, match=error):
        check_structural(pref3, make(pref3), 3, "iia")


# ---------------------------------------------------------------------------
# nearest-neighbor-corrected stages


def test_corrected_majority_four_candidates():
    case = four_candidate_case()
    rule = NearestNeighborRule(case["space"], IiaStage.majority(3, 6), tie=four_candidate_tie_order())
    assert rule(case["rows"]) == case["corrected_truthful"]
    lied = case["rows"][:1] + (case["lie"],) + case["rows"][2:]
    assert rule(lied) == case["corrected_lied"]


def test_correction_is_identity_on_feasible_outputs(pref3):
    stage = IiaStage.majority(3, 3)
    rule = NearestNeighborRule(pref3, stage)
    for _, _, rows in iter_profiles(pref3, 3):
        v = stage.apply(rows)
        if v in pref3:
            assert rule(rows) == v
        else:
            assert rule(rows) in pref3


def test_correction_map_passes_crossing_audit(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        stage = IiaStage.majority(3, space.m)
        for tie in (None, TieOrder.descending(space), TieOrder.shuffled(space, 11)):
            corrections = NearestNeighborRule(space, stage, tie=tie).indexer()
            ok, witness = check_h2(lambda p: space.feasible[corrections(np.array([p]))[0]], space)
            assert ok, witness


# ---------------------------------------------------------------------------
# welfare maximizer


def test_welfare_separation_profiles():
    sep = welfare_separation_case()
    rule = WelfareMaximizer(sep["space"])
    assert rule(sep["rows_unbalanced"]) == sep["optimum_unbalanced"]
    assert rule(sep["rows_balanced"]) == sep["optimum_balanced"]
    # same uncorrected minimizer, different corrected outcome: the
    # correction depends on the whole profile, not the stage output
    majority = IiaStage.majority(9, 6)
    assert majority.apply(sep["rows_unbalanced"]) == majority.apply(sep["rows_balanced"])
    assert rule(sep["rows_unbalanced"]) != rule(sep["rows_balanced"])


def test_welfare_unanimous_profile(pref3):
    rule = WelfareMaximizer(pref3)
    for v in pref3.feasible:
        assert rule((v, v, v)) == v


def test_welfare_is_correction_of_issue_wise_majority(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        outcomes = outcome_table(space, WelfareMaximizer(space), 3)
        majority = IiaStage.majority(3, space.m)
        for (_, _, rows), outcome in zip(iter_profiles(space, 3), outcomes):
            g = majority.apply(rows)
            if g in space:
                assert outcome == g


def test_issue_wise_majority_minimizes_over_hypercube():
    sep = welfare_separation_case()
    for rows in (sep["rows_unbalanced"], sep["rows_balanced"]):
        g = IiaStage.majority(len(rows), 6).apply(rows)
        total_g = sum(weighted_hamming(g, r) for r in rows)
        best = min(sum(weighted_hamming(v, r) for r in rows) for v in range(64))
        assert total_g == best


def test_welfare_row_permutation_invariance(pref4):
    rule = WelfareMaximizer(pref4)
    rows = (pref4.feasible[0], pref4.feasible[7], pref4.feasible[7], pref4.feasible[20])
    for perm in itertools.permutations(rows):
        assert rule(perm) == rule(rows)


# ---------------------------------------------------------------------------
# committee shortcuts


def test_swm_topk_examples():
    sp = choose_space(4, 2)
    # column sums 3,1,1,0
    rows = (from_bits("1100"), from_bits("1010"), from_bits("1001"))
    assert to_bits(swm_topk(sp, rows), 4) == "1100"
    # column sums 2,2,2,0 - tie broken toward earlier candidates
    rows = (from_bits("1100"), from_bits("0110"), from_bits("1010"))
    assert to_bits(swm_topk(sp, rows), 4) == "1100"


def test_swm_topk_rejects_other_spaces(pref3):
    with pytest.raises(ValueError):
        swm_topk(pref3, (0b110,))


@pytest.mark.parametrize("name", ("choose4-2", "choose5-2"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_block_topk_matches_the_per_profile_selection(name, n):
    space = builtin_space(name)
    shuffled = tuple(random.Random(n).sample(range(1, space.m + 1), space.m))
    profiles = engine.masks_array(space.feasible, space.m)[engine.ProfileLattice(space.size, n).rows(0, space.size**n)]
    for order in (None, shuffled):
        expected = [oracle.swm_topk(space, rows, order) for rows in profiles.tolist()]
        assert aggregators._topk_block(space, profiles, order).tolist() == expected
        assert [swm_topk(space, rows, order) for rows in profiles.tolist()] == expected


def test_swm_topk_rejects_orders_that_are_not_permutations():
    with pytest.raises(ValueError, match="candidate order must be a permutation of 1..m"):
        swm_topk(choose_space(4, 2), (0b1100,), (1, 1, 2, 3))


def test_committee_tie_order_is_descending_for_identity():
    sp = choose_space(4, 2)
    assert committee_tie_order(sp).ranking == tuple(reversed(sp.feasible))


def test_swm_matches_topk_under_induced_order():
    for args in ((4, 2), (5, 2)):
        sp = choose_space(*args)
        rule = WelfareMaximizer(sp, tie=committee_tie_order(sp))
        for _, _, rows in iter_profiles(sp, 3):
            assert rule(rows) == swm_topk(sp, rows)


def test_swm_matches_topk_with_permuted_candidates():
    sp = choose_space(4, 2)
    order = (3, 1, 4, 2)
    rule = WelfareMaximizer(sp, tie=committee_tie_order(sp, order))
    for _, _, rows in iter_profiles(sp, 3):
        assert rule(rows) == swm_topk(sp, rows, order)


# ---------------------------------------------------------------------------
# one evaluator per rule: a call is a one-row block evaluation

BUILT_IN_RULES = (Dictator, StageRule, Plurality, Partition, NearestNeighborRule, WelfareMaximizer)


def every_rule(space, stage, dictator, owners, weights, tie):
    """One rule of each built-in class; ``owners[j]`` is the 0-based voter owning issue j+1."""
    m = space.m
    return (
        Dictator(space, dictator),
        StageRule(space, stage),
        Plurality(space, tie),
        Partition(space, [{j + 1 for j in range(m) if owners[j] == v} for v in range(stage.n)]),
        NearestNeighborRule(space, stage, weights, tie),
        WelfareMaximizer(space, weights, tie),
    )


@st.composite
def one_profile_cases(draw):
    """Every built-in rule on one random space, a feasible profile, and any masks."""
    m = draw(st.integers(1, 6))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    n = draw(st.integers(1, 4))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 2**40)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    # any monotone stage: on a sparse space its outputs often leave it
    stage = IiaStage(n, draw(st.lists(st.sampled_from(monotone_tables(n)), min_size=m, max_size=m)))
    # issue owners among n voters: some blocks are often empty
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    rules = every_rule(space, stage, draw(st.integers(1, n)), owners, weights, tie)
    rows = tuple(draw(st.lists(st.sampled_from(space.feasible), min_size=n, max_size=n)))
    masks = tuple(draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n)))
    return stage, rules, rows, masks


PREF3, MAJORITY3 = builtin_space("pref3"), IiaStage.majority(3, 3)
PAIR, MAJORITY4 = EvaluationSpace(2, [0b01, 0b10]), IiaStage.majority(4, 2)
# majority on pref3 leaves the space at the Condorcet profile, and voter 2 owns no issue
CONDORCET_CASE = (MAJORITY3, every_rule(PREF3, MAJORITY3, 3, (0, 0, 2), None, None), condorcet_rows(), (0, 7, 5))
# four-voter majority gives 00 here, and only voter 4 owns issues
PAIR_CASE = (
    MAJORITY4,
    every_rule(PAIR, MAJORITY4, 2, (3, 3), (2**40, 1), TieOrder.descending(PAIR)),
    (1, 2, 2, 1),
    (3, 0, 2, 1),
)


@settings(max_examples=200, deadline=None)
@given(one_profile_cases())
@example(CONDORCET_CASE)
@example(PAIR_CASE)
def test_one_row_calls_match_the_per_profile_bodies(case):
    stage, rules, rows, masks = case
    assert stage.apply(masks) == oracle.stage_output(stage, masks)
    assert stage.apply(rows) == oracle.stage_output(stage, rows)
    assert [type(rule) for rule in rules] == list(BUILT_IN_RULES)
    for rule in rules:
        assert rule(rows) == oracle.outcome(rule, rows), rule


@st.composite
def lane_cases(draw):
    """A stage of 1-7 voters on 1-64 issues over an explicit space of at most 2048 profiles."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 64))
    top = (1 << m) - 1
    size = max(s for s in range(1, 9) if s**n <= 2048)
    feasible = draw(st.sets(st.integers(0, top) | st.just(top), min_size=1, max_size=min(size, top + 1)))
    if n <= 4:
        stage = IiaStage(n, draw(st.lists(st.sampled_from(monotone_tables(n)), min_size=m, max_size=m)))
    else:
        stage = IiaStage.quota(n, draw(st.lists(st.integers(1, n + 1), min_size=m, max_size=m)))
    return stage, EvaluationSpace(m, feasible)


def word_edge(n, m, tables):
    """A lane case on m issues with alternating and all-ones masks."""
    top = (1 << m) - 1
    return IiaStage(n, tables), EvaluationSpace(m, {top // 3, top ^ (top // 3), top})


# issues go 64 // n to a word: the last issue of a full word, and one past it
WORD_EDGES = [
    word_edge(n, m, [tables[(5 * j) % len(tables)] for j in range(m)])
    for n, tables in ((3, monotone_tables(3)), (4, monotone_tables(4)))
    for m in (64 // n, 64 // n + 1)
] + [
    word_edge(7, 10, IiaStage.quota(7, [j % 8 + 1 for j in range(10)]).tables),
    word_edge(2, 64, [monotone_tables(2)[j % 6] for j in range(64)]),
]


def at_word_edges(test):
    """Add every word-edge case, under each block size, as an explicit example."""
    for case, block_elements in itertools.product(WORD_EDGES, (engine.BLOCK_ELEMENTS, 1, 97)):
        test = example(case, block_elements)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(lane_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
@at_word_edges
def test_lane_gather_matches_the_oracle(case, block_elements):
    stage, space = case
    n, X = stage.n, space.feasible
    lattice = engine.ProfileLattice(space.size, n)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        table = engine.build_table(space, lattice, stage.block_evaluator(space, n))
    profiles = [tuple(X[r] for r in row) for row in lattice.rows(0, lattice.size).tolist()]
    expected = [oracle.stage_output(stage, rows) for rows in profiles]
    assert list(table) == expected
    for at in range(0, len(profiles), max(1, len(profiles) // 50)):
        assert stage.apply(profiles[at]) == expected[at]


def test_infeasible_rows_are_rejected_by_every_rule(pref3):
    rules = every_rule(pref3, IiaStage.majority(2, 3), 1, (0, 0, 1), None, None)
    for rule in rules + (TableRule(pref3, max, "max"),):
        # pref3 leaves out 000 and 111, even where a rule would not read them
        for rows in ((0b111, 0b110), (0b110, 0b000)):
            with pytest.raises(ValueError, match="not feasible"):
                rule(rows)
        with pytest.raises(ValueError, match="at least one voter"):
            rule(())


def test_built_in_rules_have_one_evaluator():
    for cls in BUILT_IN_RULES:
        assert "__call__" not in vars(cls) and "block_evaluator" in vars(cls), cls


# ---------------------------------------------------------------------------
# rule grammar


def test_parse_rule_forms(pref3):
    for text, cls in (
        ("dictator:2", Dictator),
        ("majority", StageRule),
        ("quota:2,2,2", StageRule),
        ("plurality", Plurality),
        ("partition:1,2;3", Partition),
        ("nn(majority)", NearestNeighborRule),
        ("nn(quota:3,3,3)", NearestNeighborRule),
        ("swm", WelfareMaximizer),
    ):
        rule = parse_rule(text).build(pref3, 3)
        assert isinstance(rule, cls), text


def test_parse_rule_partition_empty_block(pref3):
    rule = parse_rule("partition:1,2,3;;").build(pref3, 3)
    assert isinstance(rule, Partition)
    assert rule.blocks[1] == frozenset()


def test_parse_rule_errors(pref3):
    for bad in ("bogus", "quota:a,b,c", "dictator:x", "nn(plurality)", "partition:1,zz;3"):
        with pytest.raises(ValueError):
            parse_rule(bad)
    with pytest.raises(ValueError):
        parse_rule("dictator:4").build(pref3, 3)
    with pytest.raises(ValueError):
        parse_rule("quota:2,2").build(pref3, 3)
    with pytest.raises(ValueError):
        parse_rule("partition:1,2;3").build(pref3, 1)


# ---------------------------------------------------------------------------
# structural checks


def test_structural_iia(pref3):
    assert check_structural(pref3, StageRule(pref3, IiaStage.majority(3, 3)), 3, "iia").holds
    report = check_structural(pref3, Plurality(pref3), 3, "iia")
    assert not report.holds
    a, b = report.witness
    j = report.issue
    # the witness pair agrees on the issue's column yet disagrees socially
    col_a = tuple((r >> (3 - j)) & 1 for r in a)
    col_b = tuple((r >> (3 - j)) & 1 for r in b)
    assert col_a == col_b
    plu = Plurality(pref3)
    assert (plu(a) >> (3 - j)) & 1 != (plu(b) >> (3 - j)) & 1


def test_structural_witness_deterministic(pref3):
    first = check_structural(pref3, Plurality(pref3), 3, "iia")
    second = check_structural(pref3, Plurality(pref3), 3, "iia")
    assert first == second


def test_structural_monotone(pref3):
    assert check_structural(pref3, StageRule(pref3, IiaStage.majority(3, 3)), 3, "monotone").holds
    pick1 = choose_space(2, 1)

    def minority(rows):
        ones = sum(1 for r in rows if r == 0b10)
        return 0b10 if ones < len(rows) - ones else 0b01

    report = check_structural(pick1, TableRule(pick1, minority, "minority"), 3, "monotone")
    assert not report.holds
    assert report.witness is not None


def test_structural_anonymous(pref3):
    assert check_structural(pref3, WelfareMaximizer(pref3), 3, "anonymous").holds
    assert not check_structural(pref3, Dictator(pref3, 1), 3, "anonymous").holds


def test_structural_dictatorial(pref3):
    report = check_structural(pref3, Dictator(pref3, 2), 3, "dictatorial")
    assert report.holds
    assert "voter 2" in report.detail
    assert not check_structural(pref3, Plurality(pref3), 3, "dictatorial").holds


def test_structural_unknown_property(pref3):
    with pytest.raises(ValueError):
        check_structural(pref3, Dictator(pref3, 1), 3, "bogus")


def test_budget_guards(pref3):
    with pytest.raises(BudgetExceededError) as exc:
        outcome_table(pref3, Dictator(pref3, 1), 3, budget=10)
    assert exc.value.required == 216
    with pytest.raises(BudgetExceededError):
        check_structural(pref3, Dictator(pref3, 1), 3, "monotone", budget=100)
