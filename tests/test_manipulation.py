"""Manipulation predicates, the exhaustive scanner, the full type certificate and the issue partition."""

import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from hunts import every_witness
from binagg import aggregators, engine
from binagg.aggregators import (
    BudgetExceededError,
    Dictator,
    IiaStage,
    NearestNeighborRule,
    Partition,
    Plurality,
    WelfareMaximizer,
    lattice_table,
    monotone_tables,
    search_lattice,
)
from binagg.fixtures import four_candidate_case, four_candidate_tie_order, plurality_scenarios
from binagg.manipulation import (
    KINDS,
    GAINED,
    LOST,
    UNCHANGED,
    ManipulationWitness,
    _type_table,
    classify_deviation,
    find_witness,
    issue_partition,
    issue_relation,
    relation_string,
    search_size,
)
from binagg.metric import TieOrder, weighted_hamming
from binagg.spaces import EvaluationSpace, builtin_space, choose_space, from_bits

masks6 = st.integers(0, 63)
weights6 = st.tuples(*([st.integers(1, 4)] * 6))


# ---------------------------------------------------------------------------
# per-issue relations


def test_issue_relation_examples():
    x, z, w = from_bits("011"), from_bits("101"), from_bits("001")
    assert issue_relation(x, z, w, 1, 3) == GAINED
    assert issue_relation(x, z, w, 2, 3) == UNCHANGED
    x2, z2, w2 = from_bits("011"), from_bits("110"), from_bits("101")
    assert issue_relation(x2, z2, w2, 2, 3) == LOST


def test_relation_string_four_candidates():
    x = from_bits("011111")
    z = from_bits("110110")
    w = from_bits("011010")
    assert relation_string(x, z, w, 6) == "+=+-=="


# ---------------------------------------------------------------------------
# deviation classification


def test_classify_published_scenarios():
    for scenario in plurality_scenarios():
        x = scenario["rows"][scenario["voter"] - 1]
        dev = classify_deviation(x, scenario["truthful"], scenario["lied"])
        assert dev.partial == scenario["partial"]
        assert dev.full == scenario["full"]
        assert dev.hamming == scenario["hamming"]


def test_unchanged_outcome_is_no_manipulation():
    x, z = from_bits("011"), from_bits("110")
    dev = classify_deviation(x, z, z)
    assert not (dev.partial or dev.full or dev.hamming)
    with pytest.raises(ValueError, match="positive integer"):
        classify_deviation(x, z, from_bits("100"), (1, 0, 1))


@given(masks6, masks6, masks6, weights6)
def test_implication_chain(x, z, w, wv):
    dev = classify_deviation(x, z, w, wv)
    plain = classify_deviation(x, z, w)
    if dev.full:
        assert dev.hamming and plain.hamming
    if dev.hamming:
        assert dev.partial


@given(masks6, masks6, masks6)
def test_full_means_no_losses(x, z, w):
    dev = classify_deviation(x, z, w)
    rel = relation_string(x, z, w, 6)
    assert dev.partial == (GAINED in rel)
    assert dev.full == (GAINED in rel and LOST not in rel)


# ---------------------------------------------------------------------------
# exhaustive search


def test_dictator_free_of_everything(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        rule = Dictator(space, 1)
        for kind in ("partial", "full", "hamming"):
            assert find_witness(space, rule, 2, kind) is None


def test_plurality_hamming_witness(pref3):
    witness = find_witness(pref3, Plurality(pref3), 3, "hamming")
    assert witness is not None
    x = witness.true_opinion
    assert weighted_hamming(x, witness.lied) < weighted_hamming(x, witness.truthful)


def test_published_second_scenario_is_hamming():
    """The quoted deviation on the second profile is a hamming witness."""
    pref3 = builtin_space("pref3")
    plu = Plurality(pref3)
    s2 = plurality_scenarios()[1]
    z = plu(s2["rows"])
    w = plu(s2["rows"][:1] + (s2["lie"],) + s2["rows"][2:])
    assert (z, w) == (s2["truthful"], s2["lied"])
    assert classify_deviation(s2["rows"][1], z, w).hamming


def test_corrected_majority_four_candidates_manipulable():
    case = four_candidate_case()
    rule = NearestNeighborRule(case["space"], IiaStage.majority(3, 6), tie=four_candidate_tie_order())
    assert find_witness(case["space"], rule, 3, "hamming") is not None
    assert find_witness(case["space"], rule, 3, "full") is None


def test_partition_certified_full_free(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        rule = Partition(space, [set(range(1, space.m)), {space.m}])
        assert find_witness(space, rule, 2, "full") is None


def test_search_canonical_first(pref3):
    rule = Plurality(pref3)
    first = find_witness(pref3, rule, 3, "partial")
    witnesses = every_witness(pref3, rule, 3, "partial")
    assert next(witnesses) == first
    again = find_witness(pref3, rule, 3, "partial")
    assert again == first


def test_search_order_is_profile_voter_lie(pref3):
    seen = list(every_witness(pref3, Plurality(pref3), 3, "partial"))
    keys = [(w.profile, w.voter, w.lie) for w in seen]
    assert keys == sorted(keys)


def test_budget_exceeded(pref3):
    # a partition with one issue per voter reads every voter
    with pytest.raises(BudgetExceededError) as exc:
        find_witness(pref3, Partition(pref3, [{1}, {2}, {3}]), 3, "partial", budget=100)
    assert exc.value.required == search_size(pref3, 3) == 216 * 3 * 6
    # a dictator is charged for the 6 profiles of the one voter it reads
    with pytest.raises(BudgetExceededError) as exc:
        find_witness(pref3, Dictator(pref3, 1), 3, "partial", budget=100)
    assert exc.value.required == 6 * 3 * 6
    assert "6^1 profiles of voter 1, the rest pinned" in str(exc.value)
    # an anonymous rule is charged for the C(8, 3) multisets it scans
    with pytest.raises(BudgetExceededError) as exc:
        find_witness(pref3, Plurality(pref3), 3, "partial", budget=100)
    assert exc.value.required == 56 * 3 * 6
    assert "56 multisets" in str(exc.value)


def test_unknown_kind(pref3):
    with pytest.raises(ValueError):
        find_witness(pref3, Plurality(pref3), 3, "sneaky")


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_refuses_malformed_weights(doctrinal, kind):
    rule = NearestNeighborRule(doctrinal, IiaStage.majority(3, 3))
    with pytest.raises(ValueError, match="need 3 weights, got 2"):
        find_witness(doctrinal, rule, 3, kind, (1, 1))
    with pytest.raises(ValueError, match="weight for issue 2 must be a positive integer"):
        find_witness(doctrinal, Plurality(doctrinal), 3, kind, (1, 0, 1))


def test_witness_report_contents():
    case = four_candidate_case()
    rule = NearestNeighborRule(case["space"], IiaStage.majority(3, 6), tie=four_candidate_tie_order())
    lied = case["rows"][:1] + (case["lie"],) + case["rows"][2:]
    witness = ManipulationWitness(
        6, case["rows"], 2, case["lie"], rule(case["rows"]), rule(lied), "hamming", None
    )
    text = witness.report()
    assert "voter 2" in text
    assert "011011" in text
    assert "d(true, truthful) = 3" in text
    assert "d(true, lied)     = 2" in text
    assert "+=+-==" in text


# ---------------------------------------------------------------------------
# issue partition diagnostics


def test_issue_partition_four_candidate_witness():
    case = four_candidate_case()
    stage = IiaStage.majority(3, 6)
    rule = NearestNeighborRule(case["space"], stage, tie=four_candidate_tie_order())
    lied = case["rows"][:1] + (case["lie"],) + case["rows"][2:]
    witness = ManipulationWitness(
        6, case["rows"], 2, case["lie"], rule(case["rows"]), rule(lied), "hamming", None
    )
    cells = issue_partition(witness, stage.apply(case["rows"]), stage.apply(lied))
    all_issues = set()
    for issues in cells.values():
        assert not (all_issues & issues)
        all_issues |= issues
    assert all_issues == set(range(1, 7))
    moved_by_lie = cells[(2, 1)] | cells[(2, 2)] | cells[(2, 3)] | cells[(2, 4)]
    assert moved_by_lie == {4}


def test_issue_partition_no_stage_change_empties_middle(pref3):
    stage = IiaStage.majority(3, 3)
    rows = (0b110, 0b011, 0b101)
    witness = ManipulationWitness(3, rows, 1, 0b011, 0b011, 0b101, "partial", None)
    v = stage.apply(rows)
    cells = issue_partition(witness, v, v)
    assert not (cells[(2, 1)] | cells[(2, 2)] | cells[(2, 3)] | cells[(2, 4)])


def test_issue_partition_rejects_non_monotone_stage_outputs():
    witness = ManipulationWitness(3, (0b111, 0b110), 1, 0b110, 0b111, 0b110, "partial", None)
    # the truthful stage output disagrees with the opinion exactly where
    # the lied output agrees with it: impossible under a monotone stage
    with pytest.raises(ValueError):
        issue_partition(witness, 0b000, 0b111)


def test_welfare_full_free_small(all_builtin_spaces):
    for _, space in all_builtin_spaces:
        assert find_witness(space, WelfareMaximizer(space), 2, "full") is None


def test_full_freeness_extends_to_four_voters(pref3):
    """The no-full-manipulation guarantees are voter-count independent."""
    almost_dictator = Partition(pref3, [{1, 2}, {3}, set(), set()])
    assert find_witness(pref3, almost_dictator, 4, "full") is None
    corrected = NearestNeighborRule(pref3, IiaStage.majority(4, 3))
    assert find_witness(pref3, corrected, 4, "full") is None
    # the same verdict from the probe scan, not the correction's type table
    with mock.patch("binagg.manipulation._walks_types", return_value=False):
        assert find_witness(pref3, corrected, 4, "full") is None
    doc = builtin_space("doctrinal")
    assert find_witness(doc, WelfareMaximizer(doc), 4, "full") is None


# ---------------------------------------------------------------------------
# full hunts of corrected stages, answered from the correction's type table

MAX_ORACLE_PROBES = 30_000


def passes_gate(space, lattice):
    """Whether a full hunt over this lattice reads the type table: its 3^m * S * ceil(S / 64)
    word cells are at most the walk's probes, over the lattice's varying voters, plus 5,000."""
    S = space.size
    return 3**space.m * S * -(-S // 64) <= lattice.size * len(lattice.voters) * S + 5000


@st.composite
def corrected_stage_hunts(draw):
    """An nn(stage) rule of n = 1-4 voters on an explicit space of 1-5 issues, small enough for the oracle."""
    m = draw(st.integers(1, 5))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    S = space.size
    n = draw(st.sampled_from([n for n in (1, 2, 3, 4) if S**n * n * S <= MAX_ORACLE_PROBES]))
    stage = IiaStage(n, draw(st.lists(st.sampled_from(monotone_tables(n)), min_size=m, max_size=m)))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    return space, NearestNeighborRule(space, stage, weights, tie), n


def every_type_bad(space):
    """Patch the type tables to flag every type bad for every opinion, so a hunt that reads one
    tests the lies of every (profile, voter) it walks."""

    def flagged(*key):
        return np.full_like(_type_table(*key), 255)

    return mock.patch("binagg.manipulation._type_table", side_effect=flagged)


#: all 32 evaluations of 5 issues: at one voter the type table's 3^5 * 32 word cells are past
#: the walk's 32 * 32 probes plus 5,000, so the walk computes only the types it meets
CUBE5 = EvaluationSpace(5, range(32))
#: 26 evaluations of 5 issues: at one voter the table's 3^5 * 26 = 6,318 word cells are past the
#: walk's 26 * 26 probes plus 5,000, though not past twice those probes plus 5,000, so a full hunt
#: still walks the types it meets
CUBE5_26 = EvaluationSpace(5, range(26))


@settings(max_examples=150, deadline=None)
@given(corrected_stage_hunts())
@example((CUBE5, NearestNeighborRule(CUBE5, IiaStage.majority(1, 5)), 1))
@example((CUBE5_26, NearestNeighborRule(CUBE5_26, IiaStage.majority(1, 5)), 1))
def test_full_hunts_of_corrected_stages_match_the_oracle(case):
    space, rule, n = case
    first = next(oracle.iter_witnesses(space, rule, n, "full"), None)
    with mock.patch("binagg.manipulation.lattice_table", wraps=lattice_table) as built, mock.patch(
        "binagg.manipulation._type_table", wraps=_type_table
    ) as read:
        assert find_witness(space, rule, n, "full") == first
    # no outcome table for nn(...); the type table is read only when its word cells are at most
    # the walk's probes plus 5,000
    lattice = search_lattice(space, n, rule, n * space.size, 10**30, "hunt")
    assert not built.called and read.called == passes_gate(space, lattice)
    # with every type flagged bad, the walk tests every lie and finds the canonical first witness
    with every_type_bad(space), mock.patch("binagg.manipulation.lattice_table", wraps=lattice_table) as built:
        assert find_witness(space, rule, n, "full") == first
    assert not built.called


MAX_SCAN_PROBES = 600_000


@st.composite
def gated_corrected_stage_hunts(draw):
    """An nn(stage) rule of n = 1-7 voters on 2-5 issues whose full hunt reads the type table,
    with a positive-DNF monotone stage (``monotone_tables`` stops at 4 voters).  The line is
    first read off the multiset lattice, the largest a rule of n voters is hunted on."""
    m = draw(st.integers(2, 5))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    S = space.size
    lattices = {n: search_lattice(space, n, NearestNeighborRule(space, IiaStage.majority(n, m)), 1, 10**30, "hunt")
                for n in range(1, 8)}
    gated = [n for n, lattice in lattices.items() if passes_gate(space, lattice) and lattice.size * n * S <= MAX_SCAN_PROBES]
    assume(gated)
    n = draw(st.sampled_from(gated))
    terms = st.lists(st.integers(0, (1 << n) - 1), max_size=3)
    tables = [sum(1 << c for c in range(1 << n) if any(c & t == t for t in ts)) for ts in draw(st.lists(terms, min_size=m, max_size=m))]
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    rule = NearestNeighborRule(space, IiaStage(n, tables), weights, tie)
    # a stage that ignores voters is hunted on the smaller lattice of the voters it reads, and one
    # that is not anonymous on the larger ordered lattice
    lattice = search_lattice(space, n, rule, 1, 10**30, "hunt")
    assume(passes_gate(space, lattice) and lattice.size * n * S <= MAX_SCAN_PROBES)
    return space, rule, n


@settings(max_examples=100, deadline=None)
@given(gated_corrected_stage_hunts())
def test_gated_full_hunts_of_corrected_stages_match_the_scan(case):
    space, rule, n = case
    with mock.patch("binagg.manipulation.lattice_table", wraps=lattice_table) as built:
        certified = find_witness(space, rule, n, "full")
    # by Theorem 4.2 no type is bad, so the table answers with no outcome table
    assert not built.called
    with mock.patch("binagg.manipulation._walks_types", return_value=False):
        assert find_witness(space, rule, n, "full") == certified


def test_certified_full_hunt_builds_no_table(pref4):
    rule = NearestNeighborRule(pref4, IiaStage.majority(4, 6), (1, 2, 3, 1, 2, 3), four_candidate_tie_order())
    with mock.patch("binagg.manipulation.lattice_table", side_effect=AssertionError("outcome table built")):
        assert find_witness(pref4, rule, 4, "full") is None
        assert list(every_witness(pref4, rule, 4, "full")) == []


def test_certified_full_hunt_raises_what_the_scan_raises(pref4):
    # both hunts would read the type table before their first block, so the walk must refuse them first
    with pytest.raises(ValueError, match="stage arity is 3, profile has 4 rows"):
        find_witness(pref4, NearestNeighborRule(pref4, IiaStage.majority(3, 6)), 4, "full")
    other = EvaluationSpace(6, pref4.feasible[1:])
    with pytest.raises(ValueError, match="bound to another space"):
        find_witness(other, NearestNeighborRule(pref4, IiaStage.majority(4, 6)), 4, "full")
    with pytest.raises(BudgetExceededError):
        find_witness(pref4, NearestNeighborRule(pref4, IiaStage.majority(4, 6)), 4, "full", budget=10)


# ---------------------------------------------------------------------------
# hunts of every kind of corrected stages, walked over pivot types

@st.composite
def corrected_stage_hunts_of_every_kind(draw):
    """An nn(stage) rule on an explicit space of 1-7 issues, or of 24 issues (past the correction
    table), with a positive-DNF stage of n = 1-6 voters that reads every voter alike (a quota stage,
    hunted on the multiset lattice) or only the voters its terms name (hunted with the rest pinned);
    weights of 1-4, of 2^62-2^63 (sums past 2^63) or none, a shuffled tie order or none, and hunt
    weights that are the rule's, none or others."""
    m = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 24)))
    S = draw(st.integers(1, min(1 << m, 10)))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=S, max_size=S)))
    n = draw(st.sampled_from([n for n in range(1, 7) if S**n * n * S <= MAX_ORACLE_PROBES]))
    if draw(st.booleans()):
        stage = IiaStage.quota(n, draw(st.lists(st.integers(1, n + 1), min_size=m, max_size=m)))
    else:
        readers = draw(st.integers(1, (1 << n) - 1))
        terms = st.lists(st.integers(0, (1 << n) - 1).map(lambda t: t & readers), max_size=3)
        tables = [sum(1 << c for c in range(1 << n) if any(c & t == t for t in ts)) for ts in draw(st.lists(terms, min_size=m, max_size=m))]
        stage = IiaStage(n, tables)
    weight = st.integers(1, 4) | st.integers(2**62, 2**63)
    weights = draw(st.none() | st.tuples(*[weight] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    hunt_weights = draw(st.just(weights) | st.none() | st.tuples(*[weight] * m))
    return space, NearestNeighborRule(space, stage, weights, tie), n, hunt_weights


def no_tables():
    """Make building an outcome table or the multiset lattice's context tables raise."""
    return mock.patch("binagg.manipulation.lattice_table", side_effect=AssertionError("outcome table built")), mock.patch.object(
        engine, "_multiset_tables", side_effect=AssertionError("multiset tables built")
    )


PREF3 = builtin_space("pref3")


@settings(max_examples=150, deadline=None)
@given(corrected_stage_hunts_of_every_kind(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
# the hunt weighs distances unlike the correction, so the type table, which weighs both alike, does not apply
@example((PREF3, NearestNeighborRule(PREF3, IiaStage(2, (10, 8, 15)), (4, 3, 1)), 2, (4, 1, 2)), engine.BLOCK_ELEMENTS)
def test_hunts_of_corrected_stages_of_every_kind_match_the_oracle(case, block_elements):
    space, rule, n, weights = case
    table, multisets = no_tables()
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements), table, multisets:
        for kind in KINDS:
            expected = list(oracle.iter_witnesses(space, rule, n, kind, weights))
            assert find_witness(space, rule, n, kind, weights) == next(iter(expected), None), kind
            assert list(every_witness(space, rule, n, kind, weights)) == expected, kind


def test_corrected_stage_hunts_build_no_outcome_table_and_no_multiset_tables(pref4):
    # the hamming and partial hunts of the hunt benchmark, and at eight voters, where the
    # multiset lattice holds C(31, 8) = 7,888,725 profiles
    rule = NearestNeighborRule(pref4, IiaStage.majority(4, 6), (1, 2, 3, 1, 2, 3), four_candidate_tie_order())
    table, multisets = no_tables()
    with table, multisets:
        for kind in ("hamming", "partial"):
            assert find_witness(pref4, rule, 4, kind, rule.weights) is not None
            eight = NearestNeighborRule(pref4, IiaStage.majority(8, 6))
            assert find_witness(pref4, eight, 8, kind, budget=10**10) is not None


def test_walk_reads_the_type_table_only_once_it_would_cost_less(pref4):
    # choose(12, 1): the type table's 3^12 * 12 word cells take about as long to build as walking
    # 6.4 million probes, but the partial hunt at nine voters meets its witness in its first
    # blocks, so the walk never builds the table
    space = choose_space(12, 1)
    rule = NearestNeighborRule(space, IiaStage.majority(9, 12))
    with mock.patch("binagg.manipulation._type_table", side_effect=AssertionError("type table built")):
        walked = find_witness(space, rule, 9, "partial", budget=10**9)
    with mock.patch("binagg.manipulation._walks_types", return_value=False):
        assert walked == find_witness(space, rule, 9, "partial", budget=10**9)
    # pref4 at four voters in blocks of one profile (96 probes each): from the 66th block on, twice
    # the probes walked through it pass the table's 17,496 word cells less 5,000, so the walk flags
    # the types it meets, then reads the table before the hamming witness at multiset 641
    rule = NearestNeighborRule(pref4, IiaStage.majority(4, 6))
    with mock.patch.object(engine, "BLOCK_ELEMENTS", 1), mock.patch.object(
        engine, "type_hits", wraps=engine.type_hits
    ) as met, mock.patch("binagg.manipulation._type_table", wraps=_type_table) as read:
        walked = find_witness(pref4, rule, 4, "hamming")
    assert met.called and read.call_count == 1
    with mock.patch("binagg.manipulation._walks_types", return_value=False):
        assert walked == find_witness(pref4, rule, 4, "hamming")


def test_hunts_past_twenty_issues_correct_through_the_rule():
    # 21 issues and 12 voters read in groups of 1, 2, 3 and 6: 6^12 ordered profiles, whose
    # probes pass the type table's line, but past 20 issues there is no correction table,
    # so the walk snaps the points of the types it meets through the rule's own correction
    m, n = 21, 12
    space = EvaluationSpace(m, random.Random(5).sample(range(1 << m), 6))
    groups = [sum(1 << (n - 1 - i) for i in range(first, last)) for first, last in ((0, 1), (1, 3), (3, 6), (6, 12))]
    stage = IiaStage(n, [sum(1 << c for c in range(1 << n) if any(c & g == g for g in groups))] * m)
    for kind in ("hamming", "partial"):
        rule = NearestNeighborRule(space, stage)
        start = time.perf_counter()
        with mock.patch.object(aggregators, "_first_nearest", wraps=aggregators._first_nearest) as corrected:
            witness = find_witness(space, rule, n, kind, budget=10**20)
        assert time.perf_counter() - start < 2
        assert any(p not in space for call in corrected.call_args_list for p in call.args[1].tolist())
        lied = witness.profile[: witness.voter - 1] + (witness.lie,) + witness.profile[witness.voter :]
        assert (rule(witness.profile), rule(lied)) == (witness.truthful, witness.lied)
        assert getattr(classify_deviation(witness.true_opinion, witness.truthful, witness.lied, None, m), kind)
