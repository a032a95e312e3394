"""The batch sweep must agree with the single-rule search probe for probe."""

import functools
import itertools
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from binagg import engine, suites
from binagg.aggregators import IiaStage, NearestNeighborRule, monotone_tables
from binagg.fastsweep import (
    _first_positions,
    _least_stage,
    all_stage_products_hamming_free,
)
from binagg.fixtures import battery_spaces, four_candidate_tie_order, sampled_stages, tie_battery, weight_battery
from binagg.manipulation import KINDS, _bad_types, _type_table, classify_deviation, find_witness
from binagg.metric import TieOrder, _correction_table, validate_weights, weighted_hamming
from binagg.spaces import EvaluationSpace, builtin_space


def _witness_probe(space, witness):
    """(pid, voter, lie index) of a reference-scanner witness."""
    S = space.size
    n = len(witness.profile)
    pid = 0
    for i, row in enumerate(witness.profile):
        pid += space.index(row) * S ** (n - 1 - i)
    return pid, witness.voter - 1, space.index(witness.lie)


def _concrete(space, weights, tie):
    """(weights, tie ranking) as an nn rule built with these resolves them: uniform and ascending when absent."""
    rule = NearestNeighborRule(space, IiaStage.majority(1, space.m), weights, tie)
    return rule.weights, rule.tie.ranking


def _correction(space, weights, tie):
    """The correction table built afresh, under whatever block size is patched in, not read from the cache."""
    return _correction_table.__wrapped__(space, *_concrete(space, weights, tie))


def _hunt(space, stage, weights=None, tie=None):
    rule = NearestNeighborRule(space, stage, weights, tie)
    return find_witness(space, rule, stage.n, "hamming", weights)


def _assert_agrees_with_find_witness(space, n, weights, tie, found, first):
    """The stages before the sweep's hit (at most ``first``) are free, and the hit is find_witness's."""
    stop = first if found is None else min(first, found[0])
    for stage in itertools.islice(oracle.iter_stages(space, n), stop):
        assert _hunt(space, stage, weights, tie) is None
    if found is not None:
        sid, tables, probe = found
        witness = _hunt(space, IiaStage(n, tables), weights, tie)
        assert witness is not None and _witness_probe(space, witness) == probe


def test_sweep_witness_matches_find_witness_on_pref4():
    space = builtin_space("pref4")
    for tie in (None, four_candidate_tie_order(), TieOrder.descending(space)):
        assert _hunt(space, IiaStage.majority(3, 6), tie=tie) is not None
        found = all_stage_products_hamming_free(space, 3, tie=tie)
        assert found is not None
        _assert_agrees_with_find_witness(space, 3, None, tie, found, found[0])


def test_sweep_witness_reads_the_sweeps_correction_table():
    # the found stage's nn rule reads the table its sweep built, not a second one
    space, tie = builtin_space("pref4"), four_candidate_tie_order()
    _correction_table.cache_clear()
    _type_table.cache_clear()
    with mock.patch("binagg.manipulation._correction_table", wraps=_correction_table) as swept, mock.patch(
        "binagg.aggregators._first_nearest", side_effect=AssertionError("corrected point by point")
    ):
        found = all_stage_products_hamming_free(space, 3, (1, 2, 3, 1, 2, 3), tie)
    # the sweep's type table and the hunt's switch to that table each read the one cached correction
    info = _correction_table.cache_info()
    assert found is not None and swept.call_count == 2 and info.misses == 1
    # the hunt walks the rows of the sweep's own type table, built on that one correction
    types = _type_table.cache_info()
    assert types.misses == 1 and types.hits >= 1


def test_sweep_free_verdict_matches_find_witness_on_pref3():
    space = builtin_space("pref3")
    rng = random.Random(13)
    tabs = monotone_tables(3)
    stages = [IiaStage(3, tuple(rng.choice(tabs) for _ in range(3))) for _ in range(12)]
    for wv in weight_battery(3)[:2]:
        assert all_stage_products_hamming_free(space, 3, wv) is None
        for stage in stages:
            assert _hunt(space, stage, wv) is None


@pytest.mark.parametrize("weights", [(2**40, 1, 1), (2**30,) * 3, (2**40, 2**40 + 1, 2**41)])
def test_sweep_weights_past_int32_are_exact(doctrinal, weights):
    for tie in (None, TieOrder.descending(doctrinal)):
        found = all_stage_products_hamming_free(doctrinal, 3, weights, tie)
        _assert_agrees_with_find_witness(doctrinal, 3, weights, tie, found, 40)


def test_sweep_weights_keep_only_their_distance_order(doctrinal):
    # each huge vector orders every pair of issue sets like the small one
    for huge, small in (((2**30,) * 3, (1, 1, 1)), ((2**40, 2**40 + 1, 2**41), (2, 3, 4))):
        for tie in (None, TieOrder.descending(doctrinal)):
            assert all_stage_products_hamming_free(doctrinal, 3, huge, tie) == all_stage_products_hamming_free(
                doctrinal, 3, small, tie
            )


@pytest.mark.parametrize("n", [0, -1])
def test_sweep_rejects_fewer_than_one_voter(doctrinal, n):
    with pytest.raises(ValueError, match=f"at least one voter, got n={n}"):
        all_stage_products_hamming_free(doctrinal, n)


def _type_number(t):
    return sum(k * 3 ** (len(t) - 1 - j) for j, k in enumerate(t))


@functools.cache
def _leader_walk(n, m):
    """(stage number, pivot type numbers shown) of every orbit leader on the full m-cube, ascending."""
    space = EvaluationSpace(m, range(1 << m))
    tabs = monotone_tables(n)
    return [
        (sid, [_type_number(t) for t in oracle.pivot_types(space, IiaStage(n, _stage(tabs, sid, m)))])
        for sid in sorted(oracle.orbit_leaders(n, m))
    ]


@pytest.mark.parametrize("block_elements", [1, 97, engine.BLOCK_ELEMENTS])
@pytest.mark.parametrize(
    "n, m, leaders", [(1, 3, 27), (2, 3, 140), (3, 2, 125), (3, 3, 1875), (4, 1, 30), (4, 2, 1990)]
)
def test_leader_walk_matches_oracle(n, m, leaders, block_elements):
    """The product-set least stage is the first orbit leader showing a flagged type.

    Relabelling the voters maps the stages that show a type to some voter
    onto themselves, so the least of them is least in its orbit too.
    """
    space = EvaluationSpace(m, range(1 << m))
    walk = _leader_walk(n, m)
    assert len(walk) == leaders
    rng = random.Random(10 * n + m)
    # every single type, then seeded sets of several
    flagged = [[b] for b in range(3**m)] + [rng.sample(range(3**m), rng.randint(2, 3**m)) for _ in range(20)]
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        for types in flagged:
            bad = np.zeros(3**m, dtype=bool)
            bad[types] = True
            first = next(sid for sid, shown in walk if bad[shown].any())
            assert _least_stage(space, n, bad) == first


def test_first_positions_are_shared_read_only():
    # every sweep of n voters reads one table, which depends on n alone
    first = _first_positions(3)
    assert _first_positions(3) is first and not first.flags.writeable


@st.composite
def stage_cases(draw):
    """A monotone stage on a small explicit space, with weights and a tie order."""
    m = draw(st.integers(1, 4))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    n = draw(st.integers(1, 3))
    tables = draw(st.lists(st.sampled_from(monotone_tables(n)), min_size=m, max_size=m))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4) | st.integers(2**31, 2**40)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    return space, IiaStage(n, tables), weights, tie


@settings(max_examples=150, deadline=None)
@given(stage_cases())
def test_stage_is_free_exactly_when_it_shows_no_bad_pivot_type(case):
    """The type lemma the sweep rests on."""
    space, stage, weights, tie = case
    bad = _bad_types(space, validate_weights(weights, space.m), _correction(space, weights, tie), "hamming").any(axis=1)
    shown = [_type_number(t) for t in oracle.pivot_types(space, stage)]
    assert (_hunt(space, stage, weights, tie) is None) == (not bad[shown].any())


@st.composite
def permuted_stage_cases(draw):
    """A corrected stage on a small explicit space and a voter-permuted copy of it."""
    space, stage, weights, tie = draw(stage_cases())
    order = draw(st.permutations(range(stage.n)))
    permuted = IiaStage(stage.n, [oracle.permuted_table(t, order) for t in stage.tables])
    return space, stage, permuted, weights, tie


@settings(max_examples=150, deadline=None)
@given(permuted_stage_cases())
def test_voter_permutation_keeps_hamming_verdict(case):
    """Relabelling the voters relabels the corrected rule, witnesses and all."""
    space, stage, permuted, weights, tie = case
    assert (_hunt(space, stage, weights, tie) is None) == (_hunt(space, permuted, weights, tie) is None)


def _stage(tabs, sid, m):
    """The stage numbered sid, lexicographic over its m per-issue table positions."""
    digits = []
    for _ in range(m):
        sid, digit = divmod(sid, len(tabs))
        digits.append(tabs[digit])
    return tuple(reversed(digits))


@pytest.mark.parametrize("members, first", [(range(65), None), (range(48, 113), 81)], ids=["free", "hit"])
def test_sweep_takes_spaces_past_64_evaluations(members, first):
    """No outcome bit masks, so no limit of 64 feasible evaluations."""
    space = EvaluationSpace(7, members)
    found = all_stage_products_hamming_free(space, 1)
    assert (None if found is None else found[0]) == first
    # the hit is find_witness's, and a seeded sample of the stages before it is free
    _assert_agrees_with_find_witness(space, 1, None, None, found, 0)
    tabs = monotone_tables(1)
    for sid in random.Random(65).sample(range(first or len(monotone_tables(1)) ** space.m), 40):
        assert _hunt(space, IiaStage(1, _stage(tabs, sid, space.m))) is None


def test_claim56_holds_at_four_voters():
    space = builtin_space("pref3")
    rng = random.Random(4)
    tabs = monotone_tables(4)
    stages = [IiaStage(4, tuple(rng.choice(tabs) for _ in range(3))) for _ in range(6)]
    for tie in tie_battery(space):
        for wv in weight_battery(space.m):
            assert all_stage_products_hamming_free(space, 4, wv, tie) is None
            for stage in stages:
                assert _hunt(space, stage, wv, tie) is None


def test_sweep_pins_first_manipulable_stage_at_four_voters(doctrinal):
    found = all_stage_products_hamming_free(doctrinal, 4, (1, 1, 2))
    assert found == (170, (0, 32768, 32896), (127, 0, 0))
    _assert_agrees_with_find_witness(doctrinal, 4, (1, 1, 2), None, found, found[0])


#: (stage, profile, voter, lie) probes the oracle may walk in one sweep
MAX_SWEEP_PROBES = 400_000


@st.composite
def sweep_cases(draw):
    """Explicit spaces with 1-4 issues; witnesses need 3 issues or more."""
    m = draw(st.integers(1, 4))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    S = space.size
    fitting = [n for n in (1, 2, 3) if len(monotone_tables(n)) ** space.m * S**n * n * S <= MAX_SWEEP_PROBES]
    n = draw(st.sampled_from(fitting))
    weight = st.integers(1, 4) | st.integers(2**31, 2**40)
    weights = draw(st.none() | st.tuples(*[weight] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    return space, n, weights, tie


@settings(max_examples=100, deadline=None)
@given(sweep_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
# the first witness under these weights is not the first under uniform ones
@example((EvaluationSpace(4, [2, 3, 5, 9, 12, 14]), 1, (3, 2**40, 3, 3), None), 97)
# the first hit, stage 22, is not alone in its voter-permutation orbit
@example((builtin_space("doctrinal"), 3, (1, 1, 2), None), engine.BLOCK_ELEMENTS)
def test_sweep_matches_oracle(case, block_elements):
    space, n, weights, tie = case
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        found = all_stage_products_hamming_free(space, n, weights, tie)
    assert found == oracle.first_manipulable_stage(space, n, weights, tie)


def test_batch_sweep_free_verdict_matches_suite_space():
    space = builtin_space("pref3")
    for tie in tie_battery(space):
        assert all_stage_products_hamming_free(space, 3, tie=tie) is None


def test_batch_sweep_finds_first_manipulable_stage():
    """Pinned regression: a four-point space where the sweep finds a witness."""
    space = EvaluationSpace(4, [4, 9, 12, 14])
    found = all_stage_products_hamming_free(space, 3)
    assert found is not None
    sid, tables, probe = found
    assert sid == 8000
    assert tables == (128, 0, 0, 0)
    assert probe == (22, 2, 0)
    # the reference scanner agrees on this stage's first witness
    rule = NearestNeighborRule(space, IiaStage(3, tables))
    ref = find_witness(space, rule, 3, "hamming")
    assert ref is not None
    assert _witness_probe(space, ref) == probe
    # and agrees that a seeded sample of earlier stages is free
    assert len(monotone_tables(3)) ** space.m == 160_000
    tabs = monotone_tables(3)
    rng = random.Random(5)
    for sid_earlier in rng.sample(range(8000), 12):
        stage = IiaStage(3, _stage(tabs, sid_earlier, 4))
        assert find_witness(space, NearestNeighborRule(space, stage), 3, "hamming") is None


def test_batch_sweep_chunking_invariant():
    space = EvaluationSpace(4, [4, 9, 12, 14])
    for block_elements in (1, 97, 7 * 64, engine.BLOCK_ELEMENTS):
        with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
            assert all_stage_products_hamming_free(space, 3)[0] == 8000


def test_stage_iteration_order_is_lexicographic():
    space = builtin_space("pref3")
    tabs = monotone_tables(3)
    stages = oracle.iter_stages(space, 3)
    first = next(stages)
    assert first.tables == (tabs[0], tabs[0], tabs[0])
    second = next(stages)
    assert second.tables == (tabs[0], tabs[0], tabs[1])
    # the sweep numbers its stages in the same order
    pinned = EvaluationSpace(4, [4, 9, 12, 14])
    assert next(itertools.islice(oracle.iter_stages(pinned, 3), 8000, None)).tables == (128, 0, 0, 0)


# ---------------------------------------------------------------------------
# the full hunt's type-table certificate: one stage under many corrections


def _ignores(table, n, voter):
    """Whether the decider's output never changes with the voter's bit (0-based, voter 1 most significant)."""
    flip = 1 << (n - 1 - voter)
    return all((table >> c) & 1 == (table >> (c ^ flip)) & 1 for c in range(1 << n))


#: (profile, voter, lie) probes the oracle may walk for one kind
MAX_SCREEN_PROBES = 30_000


@st.composite
def screen_cases(draw):
    """A stage to correct on a small explicit space: any monotone one, an anonymous one, or one blind to a voter."""
    m = draw(st.integers(1, 4))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    S = space.size
    n = draw(st.sampled_from([n for n in (1, 2, 3) if S**n * n * S <= MAX_SCREEN_PROBES]))
    tables = monotone_tables(n)
    pool = draw(st.sampled_from(("monotone", "anonymous", "blind")))
    if pool == "anonymous":
        tables = [t for t in tables if IiaStage(n, [t]).is_anonymous]
    elif pool == "blind":
        voter = draw(st.integers(0, n - 1))
        tables = [t for t in tables if _ignores(t, n, voter)]
    stage = IiaStage(n, draw(st.lists(st.sampled_from(tables), min_size=m, max_size=m)))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4) | st.integers(2**31, 2**40)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    return space, stage, weights, tie


def _flag_every_type(space):
    """Patch the type tables to flag every type bad for every opinion, so a full hunt that reads one
    walks its stage and tests the lies of every (profile, voter) it walks."""

    def flagged(*key):
        return np.full_like(_type_table(*key), 255)

    return mock.patch("binagg.manipulation._type_table", side_effect=flagged)


@settings(max_examples=120, deadline=None)
@given(screen_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
def test_corrected_stage_screen_matches_oracle(case, block_elements):
    space, stage, weights, tie = case
    rule = NearestNeighborRule(space, stage, weights, tie)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        first = next(oracle.iter_witnesses(space, rule, stage.n, "full", weights), None)
        assert find_witness(space, rule, stage.n, "full", weights) == first
        # the walk a bad type would leave the hunt to
        with _flag_every_type(space):
            assert find_witness(space, rule, stage.n, "full", weights) == first


def test_corrected_stage_screen_hunts_the_stage_when_a_type_is_bad(doctrinal):
    # full hunts on doctrinal pass the type table's line, so they read it before they set up a walk
    rule = NearestNeighborRule(doctrinal, IiaStage.majority(3, 3), (1, 2, 1), TieOrder.descending(doctrinal))
    with mock.patch.object(engine, "issue_bits", side_effect=AssertionError("walk set up")):
        assert find_witness(doctrinal, rule, 3, "full") is None
    # a table with a bad type certifies nothing, so the hunt walks the stage
    with _flag_every_type(doctrinal), mock.patch.object(engine, "issue_bits", wraps=engine.issue_bits) as walked:
        assert find_witness(doctrinal, rule, 3, "full") is None
    assert walked.called


def _scanned(space, rule, n, weights):
    """The first full witness by the probe scan, with the pivot-type walk shut: the reference
    that the type lemma, and so the walk and its type table, are checked against."""
    with mock.patch("binagg.manipulation._walks_types", return_value=False):
        return find_witness(space, rule, n, "full", weights)


def test_corrected_stage_screen_matches_find_witness_on_the_thm42_battery():
    for _, space in battery_spaces():
        for stage in (IiaStage.majority(3, space.m),) + sampled_stages(3, space.m, 2):
            for tie in tie_battery(space):
                for wv in weight_battery(space.m):
                    rule = NearestNeighborRule(space, stage, wv, tie)
                    assert find_witness(space, rule, 3, "full", wv) == _scanned(space, rule, 3, wv)


def _seeded_stages(n, m, count, seed=2012):
    """Majority and ``count`` stages of seeded positive DNFs: monotone at any arity, where
    ``monotone_tables`` stops at 4."""
    rng = random.Random(seed)

    def table():
        terms = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
        return sum(1 << c for c in range(1 << n) if any(c & t == t for t in terms))

    return (IiaStage.majority(n, m),) + tuple(IiaStage(n, [table() for _ in range(m)]) for _ in range(count))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_corrected_stage_screen_matches_find_witness_for_two_to_five_voters(n):
    for name in ("doctrinal", "pref3"):
        space = builtin_space(name)
        for stage in _seeded_stages(n, space.m, 4):
            for tie in tie_battery(space):
                for wv in weight_battery(space.m):
                    rule = NearestNeighborRule(space, stage, wv, tie)
                    assert find_witness(space, rule, n, "full", wv) == _scanned(space, rule, n, wv)


def test_thm42_builds_one_type_table_per_correction_and_walks_no_stage():
    _type_table.cache_clear()
    with mock.patch("binagg.manipulation._bad_types", wraps=_bad_types) as built, mock.patch.object(
        engine, "issue_bits", side_effect=AssertionError("walk set up")
    ):
        assert all(check.passed for check in suites._suite_thm42())
    # 3 tie orders x 3 weight vectors per space, shared by its 6 stages; no type is bad, so no hunt walks
    spaces = [space for _, space in battery_spaces()]
    assert built.call_count == 45
    assert Counter(call.args[0] for call in built.call_args_list) == Counter(spaces * 9)
    assert {call.args[3] for call in built.call_args_list} == {"full"}


def test_corrected_stage_screen_rejects_what_find_witness_rejects(doctrinal):
    # the type table would answer FREE, but the hunt refuses these before it reads the table
    stage = IiaStage.majority(3, 3)
    assert not _type_table(doctrinal, (1, 1, 1), doctrinal.feasible, "full").any()
    with pytest.raises(ValueError, match="stage arity is 3, profile has 2 rows"):
        find_witness(doctrinal, NearestNeighborRule(doctrinal, stage), 2, "full")
    with pytest.raises(ValueError, match="need 3 weights"):
        find_witness(doctrinal, NearestNeighborRule(doctrinal, stage, (1, 1)), 3, "full")
    other = EvaluationSpace(3, doctrinal.feasible[1:])
    with pytest.raises(ValueError, match="bound to another space"):
        find_witness(other, NearestNeighborRule(doctrinal, stage), 3, "full")


def _old_bad_types(space, weights, tie):
    """The sweep's hamming-only flags over every type, before the kinds were generalised."""
    S, m = space.size, space.m
    correct = np.array([space.index(oracle.nn_select(space, p, weights, tie)) for p in range(1 << m)])
    rank = np.empty((S, S), dtype=np.intp)
    for x, opinion in enumerate(space.feasible):
        d = [weighted_hamming(opinion, o, weights, m) for o in space.feasible]
        levels = {v: k for k, v in enumerate(sorted(set(d)))}
        rank[x] = [levels[v] for v in d]
    masks = np.array(space.feasible, dtype=np.intp)
    place = 1 << np.arange(m - 1, -1, -1)
    opinions = np.arange(S)
    types = engine.ProfileLattice(3, m).rows(0, 3**m)
    outcome = correct[((types == 2) @ place)[:, None] | (masks & ((types == 1) @ place)[:, None])]
    distance = rank[opinions[:, None], outcome[:, None, :]]
    return (distance.min(axis=2) < distance[:, opinions, opinions]).any(axis=1)


@settings(max_examples=100, deadline=None)
@given(stage_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
def test_bad_types_over_every_type_keep_the_hamming_flags(case, block_elements):
    space, _, weights, tie = case
    correct = _correction(space, weights, tie)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        expected = _old_bad_types(space, weights, tie)
        bad = _bad_types(space, validate_weights(weights, space.m), correct, "hamming")
        assert np.array_equal(bad.any(axis=1), expected)


@settings(max_examples=100, deadline=None)
@given(stage_cases(), st.sampled_from(("hamming", "full")), st.data())
def test_bad_types_match_classify_deviation(case, kind, data):
    """A type is bad when some opinion gains by some lie, judged one move at a time."""
    space, _, weights, tie = case
    m, X = space.m, space.feasible
    types = np.array(sorted(data.draw(st.sets(st.integers(0, 3**m - 1), min_size=1))))
    expected = []
    for t in types.tolist():
        digits = [t // 3 ** (m - 1 - j) % 3 for j in range(m)]
        fixed = sum(1 << (m - 1 - j) for j, k in enumerate(digits) if k == 2)
        copied = sum(1 << (m - 1 - j) for j, k in enumerate(digits) if k == 1)
        outcome = {y: oracle.nn_select(space, fixed | (y & copied), weights, tie) for y in X}
        gains = (classify_deviation(x, outcome[x], outcome[y], weights, m) for x in X for y in X)
        expected.append(any(getattr(g, kind) for g in gains))
    bad = _bad_types(space, validate_weights(weights, m), _correction(space, weights, tie), kind)
    assert bad.any(axis=1)[types].tolist() == expected


@st.composite
def type_table_cases(draw):
    """An explicit space of 2-7 issues and 2-100 points, with weights (some summing past 2**63) or none,
    and with or without a shuffled tie order."""
    m = draw(st.integers(2, 7))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=2, max_size=min(100, 1 << m))))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4)] * m) | st.tuples(*[st.integers(2**62, 2**63)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    return space, weights, tie


PREF4 = builtin_space("pref4")
# 64 and 65 points: one 64-bit word of outcomes per mask, then two.  On the 65 points some
# hamming types are bad only through the outcome in the second word
WORD64, WORD65 = (EvaluationSpace(7, random.Random(seed).sample(range(128), S)) for seed, S in ((0, 64), (14, 65)))


@settings(max_examples=60, deadline=None)
@given(type_table_cases(), st.sampled_from(KINDS), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
@example((PREF4, (1, 2, 3, 1, 2, 3), four_candidate_tie_order()), "full", engine.BLOCK_ELEMENTS)
@example((PREF4, (1, 2, 3, 1, 2, 3), four_candidate_tie_order()), "hamming", 97)
@example((WORD64, (3, 1, 4, 1, 5, 2, 6), None), "hamming", engine.BLOCK_ELEMENTS)
@example((WORD64, None, TieOrder.descending(WORD64)), "partial", 97)
@example((WORD65, None, None), "hamming", engine.BLOCK_ELEMENTS)
@example((WORD65, (2**63,) * 7, TieOrder.descending(WORD65)), "hamming", 1)
@example((WORD65, (1, 2, 1, 2, 1, 2, 1), None), "full", engine.BLOCK_ELEMENTS)
def test_bad_types_match_the_broadcast_reference(case, kind, block_elements):
    """The gain-mask kernel flags the (type, opinion) pairs that the scan's S x S type step flags,
    and never runs that step."""
    space, weights, tie = case
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        correct = _correction(space, weights, tie)
        bad = oracle.bad_types(space, weights, correct, kind)
        with mock.patch.object(engine, "type_hits", side_effect=AssertionError("type_hits called")):
            table = _bad_types(space, validate_weights(weights, space.m), correct, kind)
    flags = np.unpackbits(table, axis=1, count=space.size, bitorder="little").astype(bool)
    assert np.array_equal(flags, bad)


@st.composite
def correction_cases(draw):
    """A space of 1-6 issues, with or without weights up to 2**40, and with or without a tie order."""
    m = draw(st.integers(1, 6))
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1)))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4) | st.integers(2**31, 2**40)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    return space, weights, tie


THREE_POINTS = EvaluationSpace(3, {0b001, 0b110, 0b011})


@settings(max_examples=150, deadline=None)
@given(correction_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
# distances past int64 are summed as Python ints, and equal weights tie them
@example((THREE_POINTS, (2**62,) * 3, None), engine.BLOCK_ELEMENTS)
@example((THREE_POINTS, (2**62,) * 3, TieOrder.descending(THREE_POINTS)), 1)
def test_correction_indices_match_nn_select(case, block_elements):
    space, weights, tie = case
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        table = _correction(space, weights, tie)
    assert table.tolist() == [space.index(oracle.nn_select(space, p, weights, tie)) for p in range(1 << space.m)]


@settings(max_examples=200, deadline=None)
@given(correction_cases())
def test_no_correction_has_a_bad_full_type(case):
    """Theorem 4.2: every monotone stage, corrected to its nearest neighbour, is free of full
    manipulation, whatever the space, weights, tie order and number of voters."""
    space, weights, tie = case
    assert not _type_table(space, *_concrete(space, weights, tie), "full").any()


def test_correction_table_is_cached_by_ranking_not_by_tie_order(pref3):
    # equal tie orders rebuilt for every stage, as the suites' batteries do
    first, again = TieOrder.descending(pref3), TieOrder.descending(pref3)
    assert first is not again
    stage = IiaStage.majority(3, 3)
    _correction_table.cache_clear()
    _type_table.cache_clear()
    for tie in (first, again):
        find_witness(pref3, NearestNeighborRule(pref3, stage, (1, 1, 1), tie), 3, "full")
    assert _correction_table.cache_info().misses == 1
    table = _correction_table(pref3, (1, 1, 1), again.ranking)
    assert _correction_table.cache_info().misses == 1 and not table.flags.writeable
    # majority's infeasible outputs 000 and 111 tie between three orders each
    ascending = _correction_table(pref3, (1, 1, 1), TieOrder.ascending(pref3).ranking)
    assert _correction_table.cache_info().misses == 2 and not np.array_equal(ascending, table)
    assert np.array_equal(table, _correction(pref3, (1, 1, 1), first))


def test_a_correction_is_cached_under_one_key_with_or_without_explicit_defaults(pref4):
    # a rule built with no weights and no tie order stores the uniform weights and the ascending
    # order, so its hunt builds the tables that one built with those explicitly reads
    stage = IiaStage.majority(4, 6)
    _correction_table.cache_clear()
    _type_table.cache_clear()
    first = find_witness(pref4, NearestNeighborRule(pref4, stage), 4, "hamming")
    explicit = NearestNeighborRule(pref4, stage, (1,) * 6, TieOrder.ascending(pref4))
    assert first is not None and find_witness(pref4, explicit, 4, "hamming", (1,) * 6) == first
    assert (_correction_table.cache_info().misses, _type_table.cache_info().misses) == (1, 1)
