"""The numpy probe engine against the pure-Python oracle in tests/oracle.py."""

import itertools
import math
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from binagg import aggregators
from binagg.aggregators import (
    BudgetExceededError,
    Dictator,
    IiaStage,
    NearestNeighborRule,
    Partition,
    Plurality,
    StageRule,
    StructuralReport,
    TableRule,
    WelfareMaximizer,
    check_structural,
    monotone_tables,
    outcome_table,
)
from binagg import engine, manipulation
from binagg.manipulation import KINDS, classify_deviation, find_witness, iter_witnesses
from binagg.metric import TieOrder
from binagg.spaces import EvaluationSpace, builtin_space

MAX_PROBES = 12_000
RULES = ("dictator", "stage", "nn", "plurality", "partition", "swm", "table")


@st.composite
def spaces(draw):
    """Random explicit spaces with 1-6 issues, or a sparse 64-issue one."""
    m = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 64)))
    top = (1 << m) - 1
    points = st.integers(0, top)
    if m == 64:
        # reach past int64: the top issue set, and the all-ones point
        points = st.one_of(points, st.just(top), st.integers(1 << 63, top))
    feasible = draw(st.sets(points, min_size=1, max_size=min(top + 1, 8)))
    return EvaluationSpace(m, feasible)


@st.composite
def cases(draw):
    space = draw(spaces())
    S, m = space.size, space.m
    fitting = [n for n in range(1, 5) if S**n * n * S <= MAX_PROBES]
    n = draw(st.sampled_from(fitting))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 5)] * m))
    tie = draw(st.none() | st.permutations(space.feasible).map(lambda r: TieOrder(space, r)))
    kind = draw(st.sampled_from(RULES))
    if kind == "dictator":
        rule = Dictator(space, draw(st.integers(1, n)))
    elif kind in ("stage", "nn"):
        # half the stages decide every issue by vote count alone, so their
        # rules take the multiset lattice
        tables = draw(st.sampled_from((monotone_tables(n), anonymous_tables(n))))
        stage = IiaStage(n, draw(st.lists(st.sampled_from(tables), min_size=m, max_size=m)))
        rule = StageRule(space, stage) if kind == "stage" else NearestNeighborRule(space, stage, weights, tie)
    elif kind == "plurality":
        rule = Plurality(space, tie)
    elif kind == "partition":
        owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        rule = Partition(space, [{j + 1 for j in range(m) if owners[j] == v} for v in range(n)])
    elif kind == "swm":
        rule = WelfareMaximizer(space, weights, tie)
    else:
        # an arbitrary rule whose outputs may leave the space
        pool = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=6))
        salt = draw(st.integers(0, 1000))

        def pick(rows):
            return pool[(sum(r * (i + salt) for i, r in enumerate(rows)) + salt) % len(pool)]

        rule = TableRule(space, pick, "table")
    return space, rule, n, weights


def anonymous_tables(n):
    return [t for t in monotone_tables(n) if IiaStage(n, [t]).is_anonymous]


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
def test_engine_matches_oracle(case, block_elements):
    # small blocks make the scan cross many block boundaries; find_witness
    # and the monotone check of an anonymous rule walk the multiset lattice
    space, rule, n, weights = case
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        assert list(outcome_table(space, rule, n)) == oracle.outcome_list(space, rule, n)
        for kind in KINDS:
            expected = list(oracle.iter_witnesses(space, rule, n, kind, weights))
            assert list(iter_witnesses(space, rule, n, kind, weights)) == expected, kind
            assert find_witness(space, rule, n, kind, weights) == next(iter(expected), None), kind
        for property in ("iia", "monotone", "anonymous", "dictatorial"):
            assert check_structural(space, rule, n, property) == oracle.check_structural(space, rule, n, property)


@settings(max_examples=100, deadline=None)
@given(cases())
def test_anonymous_rules_pass_the_anonymity_check(case):
    # check_structural answers from rule.anonymous, so the oracle's profile walk decides
    space, rule, n, _ = case
    if rule.anonymous:
        assert oracle.check_structural(space, rule, n, "anonymous").holds


def test_anonymity_check_of_an_anonymous_rule_builds_no_table(pref3):
    rule = NearestNeighborRule(pref3, IiaStage.majority(3, 3))
    with mock.patch.object(aggregators, "build_table", side_effect=AssertionError("table built")):
        assert check_structural(pref3, rule, 3, "anonymous") == StructuralReport("anonymous", True)
    # the budget is charged first, as for every other check
    with pytest.raises(BudgetExceededError):
        check_structural(pref3, rule, 3, "anonymous", budget=6**3 - 1)


def test_anonymity_is_claimed_by_construction_only(pref3):
    # anonymity is read off a rule's definition, never tested: max over the
    # rows ignores voter order, but a TableRule cannot say so
    projection = [t for t in monotone_tables(3) if t not in anonymous_tables(3)][0]
    for rule in (
        Dictator(pref3, 1),
        Dictator(pref3, 2),
        Partition(pref3, [{1, 2, 3}, set()]),
        TableRule(pref3, max, "max"),
        StageRule(pref3, IiaStage(3, [projection] * 3)),
        NearestNeighborRule(pref3, IiaStage(3, [projection] * 3)),
    ):
        assert rule.anonymous is False, rule
    for rule in (
        Plurality(pref3),
        WelfareMaximizer(pref3),
        StageRule(pref3, IiaStage.majority(3, 3)),
        NearestNeighborRule(pref3, IiaStage.quota(2, [1, 2, 3])),
    ):
        assert rule.anonymous is True, rule


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_quota_stages_on_the_multiset_lattice(block_elements):
    # every quota stage of one and two voters, bare (majority on pref3 leaves
    # the space) and corrected; n = 1 removes a voter down to the empty multiset
    space = builtin_space("pref3")
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        for n in (1, 2):
            for thresholds in itertools.product(range(1, n + 2), repeat=space.m):
                stage = IiaStage.quota(n, thresholds)
                for rule in (StageRule(space, stage), NearestNeighborRule(space, stage)):
                    assert rule.anonymous
                    for kind in KINDS:
                        expected = next(oracle.iter_witnesses(space, rule, n, kind), None)
                        assert find_witness(space, rule, n, kind) == expected, (thresholds, kind)
                    assert check_structural(space, rule, n, "monotone") == oracle.check_structural(
                        space, rule, n, "monotone"
                    )


#: non-anonymous stages on three voters, each ignoring one voter: issue 1
#: follows the first voter read, issue 2 needs both, issue 3 follows the second
STAGES_SKIPPING = {
    1: IiaStage(3, [0xCC, 0x88, 0xAA]),
    2: IiaStage(3, [0xF0, 0xA0, 0xAA]),
    3: IiaStage(3, [0xF0, 0xC0, 0xCC]),
}


def pinned_cases():
    """Rules that ignore voters at the first, middle and last positions."""
    pref3, cycle6 = builtin_space("pref3"), builtin_space("cycle6")
    yield pref3, Partition(pref3, [set(), {1, 2}, set(), {3}]), 4, (1, 3)
    yield pref3, Partition(pref3, [{1}, {2, 3}, set()]), 3, (0, 1)
    yield cycle6, Partition(cycle6, [set(), {1}, {2, 3}]), 3, (1, 2)
    for voter in (1, 2, 3):
        yield pref3, Dictator(pref3, voter), 3, (voter - 1,)
    for skipped, stage in STAGES_SKIPPING.items():
        voters = tuple(i for i in range(3) if i != skipped - 1)
        yield pref3, StageRule(pref3, stage), 3, voters
        yield pref3, NearestNeighborRule(pref3, stage), 3, voters


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_pinned_voters_keep_the_first_witness(block_elements):
    # find_witness and the monotone check walk only the voters each rule reads
    found = 0
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        for space, rule, n, voters in pinned_cases():
            assert not rule.anonymous and rule.influential(n) == voters, rule
            for kind in KINDS:
                expected = next(oracle.iter_witnesses(space, rule, n, kind), None)
                assert find_witness(space, rule, n, kind) == expected, (rule, kind)
                found += expected is not None
            assert check_structural(space, rule, n, "monotone") == oracle.check_structural(space, rule, n, "monotone")
    assert found


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_voters_outside_influential_never_move_the_outcome(case, data):
    space, rule, n, _ = case
    voters = rule.influential(n)
    assert list(voters) == sorted(set(voters)) and set(voters) <= set(range(n))
    rows = data.draw(st.lists(st.sampled_from(space.feasible), min_size=n, max_size=n))
    for i in set(range(n)) - set(voters):
        other = rows[:i] + [data.draw(st.sampled_from(space.feasible))] + rows[i + 1 :]
        assert rule(other) == rule(rows), (rule, i)


def test_pinned_lattice_tables():
    for S, n in itertools.product(range(1, 5), range(1, 5)):
        full = engine.ProfileLattice(S, n)
        for k in range(1, n + 1):
            for voters in itertools.combinations(range(n), k):
                lattice = engine.ProfileLattice(S, n, voters)
                assert lattice.size == S**k
                rows = lattice.rows(0, lattice.size)
                # the profiles of the full lattice whose pinned rows are 0, in id order
                pinned = [i for i in range(n) if i not in voters]
                expected = full.rows(0, full.size)
                expected = expected[(expected[:, pinned] == 0).all(axis=1)]
                assert rows.tolist() == expected.tolist()
                pid = {tuple(r): q for q, r in enumerate(rows.tolist())}
                ids, opinions = lattice.contexts(0, rows)
                assert opinions.tolist() == rows[:, voters].tolist()
                assert_contexts(lattice, rows, ids)
                lied = lattice.lied(ids[..., None], np.arange(S))
                assert lied.shape == (len(rows), k, S)
                for p, row in enumerate(rows.tolist()):
                    for (j, i), y in itertools.product(enumerate(voters), range(S)):
                        assert lied[p, j, y] == pid[tuple(row[:i] + [y] + row[i + 1 :])]


def assert_contexts(lattice, rows, ids):
    # two (profile, voter) pairs share a context id exactly when they share
    # the voter and the other voters' rows, or on the multiset lattice
    # just the multiset of the others
    assert ids.shape == (len(rows), len(lattice.voters))
    assert 0 <= ids.min() and ids.max() < lattice.context_count
    named = {}
    for row, row_ids in zip(rows.tolist(), ids.tolist()):
        for j, context in enumerate(row_ids):
            i = lattice.voters[j]
            others = row[:i] + row[i + 1 :]
            key = tuple(sorted(others)) if isinstance(lattice, engine.MultisetLattice) else (j, tuple(others))
            assert named.setdefault(context, key) == key
    assert len(named) == lattice.context_count


def test_multiset_lattice_tables():
    for S, n in itertools.product(range(1, 6), range(1, 5)):
        lattice = engine.MultisetLattice(S, n)
        multisets = list(itertools.combinations_with_replacement(range(S), n))
        assert lattice.size == len(multisets)
        assert [tuple(r) for r in lattice.rows(0, lattice.size).tolist()] == multisets
        # any block of rows is unranked alone
        for start in range(0, lattice.size, 7):
            block = lattice.rows(start, min(start + 7, lattice.size)).tolist()
            assert [tuple(r) for r in block] == multisets[start : start + 7]
        index = {ms: k for k, ms in enumerate(multisets)}
        rows = lattice.rows(0, lattice.size)
        ids, opinions = lattice.contexts(0, rows)
        assert opinions.tolist() == rows.tolist()
        assert_contexts(lattice, rows, ids)
        # once the scan's tables are built, rows are sliced from their rows table
        assert lattice.rows(0, lattice.size).tolist() == rows.tolist()
        lied = lattice.lied(ids[..., None], np.arange(S))
        assert lied.shape == (len(rows), n, S)
        for k, ms in enumerate(multisets):
            for i, y in itertools.product(range(n), range(S)):
                assert lied[k, i, y] == index[tuple(sorted(ms[:i] + (y,) + ms[i + 1 :]))]


def sorted_tuple_rank(row, S):
    """Rank of a sorted tuple from 0..S-1 among those of its length: the sorted tuples before it, counted."""
    rank, low = 0, 0
    for j, entry in enumerate(row):
        tail = len(row) - 1 - j
        rank += sum(math.comb(S - v + tail - 1, tail) for v in range(low, entry))
        low = entry
    return rank


@pytest.mark.parametrize(
    "S, n, remove_dtype, add_dtype",
    [(6, 7, np.uint16, np.uint16), (24, 4, np.uint16, np.uint16), (24, 5, np.uint16, np.uint32), (257, 2, np.uint16, np.uint16)],
)
def test_multiset_tables_rank_past_uint8(S, n, remove_dtype, add_dtype):
    # remove holds ranks among the C(S+n-2, n-1) sorted (n-1)-tuples and add ranks among the
    # C(S+n-1, n) sorted n-tuples, both past 255 here: each entry is checked against ranks
    # counted with math.comb on the first and last rows and a seeded sample
    rows, remove, add = engine._multiset_tables(S, n)
    assert (remove.dtype, add.dtype) == (remove_dtype, add_dtype)
    assert remove.shape == (math.comb(S + n - 1, n), n) and add.shape == (math.comb(S + n - 2, n - 1), S)
    sample = np.random.default_rng(0).choice(len(rows), 40, replace=False).tolist()
    for k in [0, len(rows) - 1, *sample]:
        row = rows[k].tolist()
        assert row == sorted(row) and sorted_tuple_rank(row, S) == k
        for i in range(n):
            less = row[:i] + row[i + 1 :]
            assert remove[k, i] == sorted_tuple_rank(less, S)
            for y in (0, row[i], S - 1):
                assert add[remove[k, i], y] == sorted_tuple_rank(sorted(less + [y]), S)


def test_multiset_rows_unrank_deep_in_a_large_lattice():
    # pref4 with eight voters: 7,888,725 multisets, ranked back by counting the sorted
    # 8-tuples before each row, with no lattice-sized table built
    S, n = 24, 8
    lattice = engine.MultisetLattice(S, n)
    ids = [0, 1, 640, 641, 4_000_000, lattice.size - 2, lattice.size - 1]
    with mock.patch.object(engine, "_multiset_tables", side_effect=AssertionError("multiset tables built")):
        rows = [lattice.rows(k, k + 1)[0].tolist() for k in ids]
    for k, row in zip(ids, rows):
        assert row == sorted(row) and 0 <= row[0] and row[-1] < S
        assert sorted_tuple_rank(row, S) == k
    assert rows[-1] == [S - 1] * n


def test_outcome_codes_are_narrow(pref4):
    table = outcome_table(pref4, Plurality(pref4), 3)
    assert table.codes.dtype == np.uint8
    assert len(table) == pref4.size**3
    assert table.values == tuple(sorted(set(table.values)))


def test_outcome_codes_widen_past_256_outcomes():
    space = EvaluationSpace(12, range(0, 4096, 683))
    index = {x: i for i, x in enumerate(space.feasible)}
    rule = TableRule(space, lambda rows: sum(index[r] * 6**i for i, r in enumerate(rows)), "distinct")
    table = outcome_table(space, rule, 4)
    assert table.codes.dtype == np.uint16
    assert len(table.values) == 6**4
    assert list(table) == oracle.outcome_list(space, rule, 4)


def test_nearest_neighbor_correction_snaps_only_outputs_seen():
    # 2**40 hypercube points: a correction table over all of them is hopeless
    m = 40
    space = EvaluationSpace(m, [0, (1 << 20) - 1, ((1 << 20) - 1) << 20, (1 << m) - 1, 0x5555555555, 0xAAAAAAAAAA])
    rule = NearestNeighborRule(space, IiaStage.majority(2, m))
    start = time.perf_counter()
    with spy_corrections() as spy, mock.patch.object(
        aggregators, "_correction_table", side_effect=AssertionError("correction table built")
    ):
        find_witness(space, rule, 2, "full")
    assert time.perf_counter() - start < 0.5
    corrected = corrected_points(spy)
    assert len(corrected) <= space.size**2 and any(p not in space for p in corrected)


def spy_corrections():
    """Patch the rules' first-nearest kernel with a spy that records the points they correct one by one."""
    return mock.patch.object(aggregators, "_first_nearest", wraps=aggregators._first_nearest)


def corrected_points(spy) -> set[int]:
    """The points a :func:`spy_corrections` spy was handed, each call's distinct."""
    calls = [c.args[1].tolist() for c in spy.call_args_list]
    assert all(len(set(points)) == len(points) for points in calls)
    return set().union(*calls)


def recording_keyed_contexts(lattice):
    """Make the lattice's lie map record the context ids of each call that takes a column of ids by
    all S lies: ``keyed`` those of ``engine.context_types`` keying fresh contexts, ``read`` those of
    its reads of flagged pairs' rows."""
    keyed, read, lied = [], [], lattice.lied

    def recorded(ids, lies):
        if np.ndim(ids) == 2 and np.size(lies) == lattice.S:
            caller = sys._getframe(1).f_code.co_name
            (keyed if caller == "context_types" else read).append(np.ravel(ids).tolist())
        return lied(ids, lies)

    lattice.lied = recorded
    return keyed, read


def assert_each_context_keyed_once(lattice, calls):
    # every call keys distinct contexts, no context is keyed twice, and a
    # scan without an early exit keys every context
    assert calls and all(len(set(ids)) == len(ids) for ids in calls)
    keyed = [c for ids in calls for c in ids]
    assert sorted(keyed) == list(range(lattice.context_count))


def context_scan(lattice, table, hit):
    return engine.scan(lattice, engine.context_types(lattice, table, hit), hit)


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_scan_tests_each_distinct_context_row_once(block_elements):
    # the FREE full hunt of nn(majority) on pref4 with four voters: 17,550
    # multisets * 4 voters * 24 lies = 1,684,800 probes, over 2,600
    # contexts holding 295 distinct rows
    space, n = builtin_space("pref4"), 4
    S = space.size
    rule = NearestNeighborRule(space, IiaStage.majority(n, space.m))
    lattice = engine.MultisetLattice(S, n)
    table = aggregators.lattice_table(space, rule, lattice)
    full = manipulation._hit_fn(space, table.values, "full", None)
    cells = 0

    def counting(z, w, x, y):
        nonlocal cells
        hits = full(z, w, x, y)
        cells += hits.size
        return hits

    keyed, read = recording_keyed_contexts(lattice)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        assert list(context_scan(lattice, table, counting)) == []
    assert_each_context_keyed_once(lattice, keyed)
    # no pair is flagged, so no row is read again
    assert read == []
    _, _, add = lattice._tables
    rows = {tuple(row) for row in table.codes[add].tolist()}
    assert (lattice.context_count, len(rows)) == (2600, 295)
    assert 0 < cells <= len(rows) * S * S < lattice.size * n * S // 9
    # the ordered lattice with pinned voters: every partial-manipulation hit
    # of a two-owner partition on pref3 with four voters, voters 1 and 3 pinned
    rule = Partition(builtin_space("pref3"), [set(), {1, 2}, set(), {3}])
    lattice = engine.ProfileLattice(6, 4, rule.influential(4))
    table = aggregators.lattice_table(rule.space, rule, lattice)
    hit = manipulation._hit_fn(rule.space, table.values, "partial", None)
    keyed, read = recording_keyed_contexts(lattice)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        hits = list(context_scan(lattice, table, hit))
    assert_each_context_keyed_once(lattice, keyed)
    X = rule.space.feasible
    found = [
        (tuple(X[r] for r in lattice.rows(pid, pid + 1)[0]), voter + 1, X[lie])
        for block in hits
        for pid, voter, lie, _, _ in zip(*(a.tolist() for a in block))
    ]
    expected = [
        (w.profile, w.voter, w.lie)
        for w in oracle.iter_witnesses(rule.space, rule, 4, "partial")
        if w.profile[0] == w.profile[2] == X[0]
    ]
    assert found and found == expected
    # rows are read again only for flagged pairs, the (profile, voter) pairs with a hit
    flagged = {(pid, voter) for pid, voter, _ in found}
    assert sum(len(ids) for ids in read) == len(flagged)


def monotone_violations(space, rule, n):
    """(profile, voter, lie) of every probe where the voter flips an issue, society flips it too, and
    ends opposite to where the voter went, in canonical order."""
    X = space.feasible
    for profile in itertools.product(X, repeat=n):
        z = oracle.outcome(rule, profile)
        for i, y in itertools.product(range(n), X):
            w = oracle.outcome(rule, profile[:i] + (y,) + profile[i + 1 :])
            if (profile[i] ^ y) & (z ^ w) & (y ^ w):
                yield profile, i + 1, y


def _hit_cases():
    """(rule, lattice, kind, hunt weights) of each scan input.  Partial hunts of context rows on the
    full, pinned and multiset lattices; hunts of nn(majority) through its pivot types, walked
    throughout (hamming, weighed unlike the rule, so the type table does not apply) or read off
    the type table from the first block (partial: pref3's table costs less than any walk); and the
    monotone check's predicate on a rule that breaks monotonicity where voter 2 holds X[0]."""
    pref3 = builtin_space("pref3")
    X = pref3.feasible
    plurality = Plurality(pref3)
    partition = Partition(pref3, [set(), {1, 2}, set(), {3}])
    nn = NearestNeighborRule(pref3, IiaStage.majority(3, 3), (1, 2, 3))
    # the reverse of a transitive order is transitive
    reverser = TableRule(pref3, lambda rows: rows[0] ^ 7 if rows[1] == X[0] else rows[0], "reverser")
    return {
        "full": (plurality, engine.ProfileLattice(6, 3), "partial", None),
        "pinned": (partition, engine.ProfileLattice(6, 4, partition.influential(4)), "partial", None),
        "multiset": (plurality, engine.MultisetLattice(6, 3), "partial", None),
        "nn-walked": (nn, engine.MultisetLattice(6, 3), "hamming", (3, 2, 1)),
        "nn-table": (nn, engine.MultisetLattice(6, 3), "partial", None),
        "monotone": (reverser, engine.ProfileLattice(6, 3), "monotone", None),
    }


def scan_input(rule, lattice, kind, weights):
    """(outcome values, type source, predicate) of a scan case: an nn(...) rule's pivot types, or
    the context rows of the rule's outcome table under a hunt's test or the monotone check's own."""
    space = rule.space
    if isinstance(rule, NearestNeighborRule):
        hit = manipulation._hit_fn(space, space.feasible, kind, weights)
        return space.feasible, manipulation._pivot_types(space, rule, lattice, kind, weights, hit), hit
    table = aggregators.lattice_table(space, rule, lattice)
    if kind == "monotone":
        with mock.patch.object(aggregators, "scan", wraps=engine.scan) as scanned:
            check_structural(space, rule, lattice.n, "monotone")
        hit = scanned.call_args.args[2]
    else:
        hit = manipulation._hit_fn(space, table.values, kind, weights)
    return table.values, engine.context_types(lattice, table, hit), hit


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
@pytest.mark.parametrize("case", ("full", "pinned", "multiset", "nn-walked", "nn-table", "monotone"))
def test_hit_blocks_list_the_scan_hits_in_order(case, block_elements):
    """The scan's blocks are non-empty, list the oracle's probes in order, and hold the outcome codes at
    each profile and at the profile its voter's lie reaches."""
    rule, lattice, kind, weights = _hit_cases()[case]
    space, n = rule.space, lattice.n
    X = space.feasible
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements), mock.patch(
        "binagg.manipulation._type_table", wraps=manipulation._type_table
    ) as table_read:
        values, typed, hit = scan_input(rule, lattice, kind, weights)
        blocks = list(engine.scan(lattice, typed, hit))
    assert table_read.called == (case == "nn-table")
    assert all(len(pids) for pids, _, _, _, _ in blocks)
    pids, voters, lies, truthful, lied = (np.concatenate(column).tolist() for column in zip(*blocks))
    rows = [lattice.rows(pid, pid + 1)[0].tolist() for pid in pids]
    found = [(tuple(X[r] for r in row), i + 1, X[y]) for row, i, y in zip(rows, voters, lies)]
    # the oracle walks every ordered profile: keep those the lattice names
    index = {tuple(row) for row in lattice.rows(0, lattice.size).tolist()}
    if kind == "monotone":
        probes = monotone_violations(space, rule, n)
    else:
        probes = ((w.profile, w.voter, w.lie) for w in oracle.iter_witnesses(space, rule, n, kind, weights))
    expected = [probe for probe in probes if tuple(X.index(x) for x in probe[0]) in index]
    assert found and found == expected
    for (profile, voter, lie), z, w in zip(found, truthful, lied):
        other = profile[: voter - 1] + (lie,) + profile[voter:]
        assert (values[z], values[w]) == (oracle.outcome(rule, profile), oracle.outcome(rule, other))


def test_pivot_walk_flags_each_type_it_meets_once():
    """The pivot source files the types its blocks meet in one memo for the whole walk: however the
    walk is chunked, it flags as many rows, one per distinct type, and lists the same hits."""
    rule, lattice, kind, weights = _hit_cases()["nn-walked"]
    walks = set()
    for block_elements in (engine.BLOCK_ELEMENTS, 97, 1):
        with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements), mock.patch.object(
            engine, "type_hits", wraps=engine.type_hits
        ) as flagged:
            _, typed, hit = scan_input(rule, lattice, kind, weights)
            hits = tuple(tuple(np.concatenate(column).tolist()) for column in zip(*engine.scan(lattice, typed, hit)))
        walks.add((sum(len(call.args[0]) for call in flagged.call_args_list), hits))
    assert len(walks) == 1


@st.composite
def type_cases(draw):
    """An explicit space of 1-5 issues, outcome masks, rows of codes into them, and weights."""
    m = draw(st.integers(1, 5))
    top = (1 << m) - 1
    space = EvaluationSpace(m, draw(st.sets(st.integers(0, top), min_size=1, max_size=8)))
    outcomes = sorted(draw(st.sets(st.integers(0, top), min_size=1, max_size=8)))
    row = st.lists(st.integers(0, len(outcomes) - 1), min_size=space.size, max_size=space.size)
    rows = np.array(draw(st.lists(row, min_size=1, max_size=30)), dtype=draw(st.sampled_from((np.uint8, np.intp))))
    weights = draw(st.none() | st.tuples(*[st.integers(1, 4) | st.integers(2**31, 2**40)] * m))
    return space, outcomes, rows, weights


@settings(max_examples=100, deadline=None)
@given(type_cases(), st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)))
def test_type_step_matches_classify_deviation(case, block_elements):
    """[t, x] is flagged exactly when opinion x gains by some lie in row t, judged one move at a time."""
    space, outcomes, rows, weights = case
    m, X = space.m, space.feasible
    # moves[t][x][y]: how the lie y moves opinion x's outcome in row t
    moves = [
        [[classify_deviation(x, outcomes[row[i]], outcomes[lied], weights, m) for lied in row] for i, x in enumerate(X)]
        for row in rows.tolist()
    ]
    for kind in KINDS:
        hit = manipulation._hit_fn(space, outcomes, kind, manipulation._validate_kind(kind, weights, m))
        with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
            flags = engine.type_hits(rows, hit)
        expected = [[any(getattr(move, kind) for move in lies) for lies in row] for row in moves]
        assert flags.tolist() == expected, kind


# ---------------------------------------------------------------------------
# outcome tables coded by feasible index


def feasible_rules(space, n, weights, tie):
    """One rule of each class whose outcomes are feasible; plurality with and without a tie order."""
    m = space.m
    return (
        Dictator(space, n),
        Plurality(space),
        Plurality(space, tie),
        Partition(space, [{j + 1 for j in range(m) if j % n == v} for v in range(n)]),
        WelfareMaximizer(space, weights, tie),
        NearestNeighborRule(space, IiaStage.majority(n, m), weights, tie),
    )


def lattice_outcomes(full, lattice):
    """The entries of a full-lattice outcome list at the profiles of ``lattice``, in its id order."""
    pids = lattice.rows(0, lattice.size) @ engine.strides(lattice.S, lattice.n)
    return [full[pid] for pid in pids.tolist()]


def assert_indexed_tables(space, rule, n):
    """The full, pinned and multiset tables of a feasible-valued rule hold the oracle's outcomes as feasible indices."""
    full = oracle.outcome_list(space, rule, n)
    S = space.size
    tables = [(engine.ProfileLattice(S, n), outcome_table(space, rule, n))]
    for lattice in (engine.ProfileLattice(S, n, (0, n - 1)), engine.MultisetLattice(S, n)):
        tables.append((lattice, aggregators.lattice_table(space, rule, lattice)))
    for lattice, table in tables:
        assert table.values is space.feasible and table.codes.dtype == np.uint8, (rule, lattice)
        assert list(table) == lattice_outcomes(full, lattice), (rule, lattice)


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_feasible_rules_write_feasible_indices(block_elements):
    one_block = block_elements == engine.BLOCK_ELEMENTS
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        for name, weights in (("pref3", (1, 2, 3)), ("doctrinal", None), ("cycle6", (2, 1, 1))):
            space = builtin_space(name)
            for rule in feasible_rules(space, 3, weights, TieOrder.shuffled(space, 7)):
                with spy_corrections() as spy:
                    assert_indexed_tables(space, rule, 3)
                if isinstance(rule, NearestNeighborRule):
                    # no infeasible stage output is corrected point by point; at the default size each
                    # table is one block of at least 2**3 profiles, so the correction table serves it all
                    assert all(p in space for p in corrected_points(spy))
                    assert not (one_block and spy.called)


SNAPPED_SPACES = (
    EvaluationSpace(40, [0, (1 << 20) - 1, ((1 << 20) - 1) << 20, (1 << 40) - 1, 0x5555555555, 0xAAAAAAAAAA]),
    EvaluationSpace(12, [0xF0F, 0x0FF, 0xFF0, 0xAAA, 0x555, 0xCCC]),
)


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
@pytest.mark.parametrize("space", SNAPPED_SPACES, ids=("m40", "m12"))
def test_nearest_neighbor_snap_path_writes_feasible_indices(space, block_elements):
    # 2**m hypercube points against at most 36 profiles: only the stage outputs seen are snapped
    for tie in (None, TieOrder.descending(space)):
        rule = NearestNeighborRule(space, IiaStage.majority(2, space.m), None, tie)
        with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements), mock.patch.object(
            aggregators, "_correction_table", side_effect=AssertionError("correction table built")
        ), spy_corrections() as spy:
            assert_indexed_tables(space, rule, 2)
        corrected = corrected_points(spy)
    assert len(corrected) <= space.size**2 and any(p not in space for p in corrected)


#: stages of three voters on pref3 whose corrections never reach some
#: feasible evaluation: issue 2 fixed at 0, or issue 1 fixed at 1 and issue 3 at 0
UNREACHING_STAGES = (IiaStage.quota(3, (2, 4, 2)), IiaStage(3, [0xFF, IiaStage.majority(3, 1).tables[0], 0]))


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_feasible_indices_never_reached(pref3, block_elements):
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        for stage, weights, tie in itertools.product(
            UNREACHING_STAGES, (None, (1, 2, 3)), (None, TieOrder.shuffled(pref3, 3))
        ):
            rule = NearestNeighborRule(pref3, stage, weights, tie)
            table = outcome_table(pref3, rule, 3)
            assert set(table.codes.tolist()) < set(range(pref3.size))
            assert list(table) == oracle.outcome_list(pref3, rule, 3)
            for kind in KINDS:
                expected = next(oracle.iter_witnesses(pref3, rule, 3, kind, weights), None)
                assert find_witness(pref3, rule, 3, kind, weights) == expected, (stage, kind)
            for property in ("iia", "monotone", "anonymous", "dictatorial"):
                assert check_structural(pref3, rule, 3, property) == oracle.check_structural(pref3, rule, 3, property)


def test_rule_calls_return_masks(pref4):
    tie = TieOrder.shuffled(pref4, 11)
    rows = [tuple(pref4.feasible[(7 * k + 5 * i) % pref4.size] for i in range(3)) for k in range(40)]
    # 40 one-row calls per rule, fewer than the 2**6 points of a correction table
    with mock.patch.object(aggregators, "_correction_table", side_effect=AssertionError("correction table built")):
        for rule in feasible_rules(pref4, 3, (3, 1, 2, 2, 1, 3), tie):
            for profile in rows:
                outcome = rule(profile)
                assert outcome in pref4 and outcome == oracle.outcome(rule, profile), rule


@pytest.mark.parametrize("weights", [(2**64 + 1, 2**64, 2**64 + 2), (2**60 + 1, 2**60, 2**59 + 2)])
def test_weights_past_int64_stay_exact(pref3, weights):
    # distances near 2**65, or welfare totals past 2**63, differ in their low
    # bits only; floats or int64 would tie or wrap them
    tie = TieOrder.descending(pref3)
    for rule in (WelfareMaximizer(pref3, weights, tie), NearestNeighborRule(pref3, IiaStage.majority(2, 3), weights, tie)):
        assert list(outcome_table(pref3, rule, 2)) == oracle.outcome_list(pref3, rule, 2)
        expected = next(oracle.iter_witnesses(pref3, rule, 2, "hamming", weights), None)
        assert find_witness(pref3, rule, 2, "hamming", weights) == expected
