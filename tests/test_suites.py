"""Every named suite passes and renders deterministically."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np
import oracle
from binagg import engine, fixtures, manipulation, suites
from binagg.aggregators import IiaStage, NearestNeighborRule, Plurality, StructuralReport
from binagg.cli import main
from binagg.fastsweep import all_stage_products_hamming_free
from binagg.manipulation import find_witness
from binagg.metric import TieOrder, _correction_table, _feasible_distances
from binagg.spaces import EvaluationSpace, builtin_space, to_bits
from binagg.suites import format_report, run_suite, suite_names

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


def test_catalog():
    assert suite_names() == (
        "tables",
        "prop4.1",
        "thm3.1",
        "thm4.2",
        "thm4.3",
        "lemma5.4",
        "lemma5.5",
        "claim5.6",
        "claim5.7",
        "claim5.8",
    )


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", suite_names())
def test_suite_passes(name):
    report = run_suite(name)
    assert report.passed, format_report(report)
    assert report.checks
    # `binagg verify --suite` prints the report plus a newline; its digest pins
    # every rendered count, such as the lemma harvests' hit counts
    text = format_report(report) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[f"suite.{name}"]


@pytest.fixture(scope="module")
def witnesses():
    """Two real, distinct witnesses on pref3: plurality's and the corrected majority's first partial ones."""
    p3 = builtin_space("pref3")
    first = find_witness(p3, Plurality(p3), 3, "partial")
    later = find_witness(p3, NearestNeighborRule(p3, IiaStage.majority(3, 3)), 3, "partial")
    assert first is not None and later is not None and first != later
    return first, later


class _ForcedHunts:
    """A ``find_witness`` stand-in for a battery.  ``position(space, rule, n)`` numbers the chosen
    check's configurations in the suite's order, None for every other hunt.  Configuration ``at``
    finds the first witness and every later one the other; the rest find none.  ``hunted`` lists
    the chosen check's configurations hunted, in order."""

    def __init__(self, position, at, witnesses):
        self.position, self.at, self.witnesses = position, at, witnesses
        self.hunted = []

    def __call__(self, space, rule, n, kind):
        k = self.position(space, rule, n)
        if k is None:
            return None
        self.hunted.append(k)
        return None if k < self.at else self.witnesses[k > self.at]


def _failed_report(name, **patches):
    """The rendered report of suite ``name`` with the given ``suites`` names patched, as lines."""
    with mock.patch.multiple(suites, **patches):
        return format_report(run_suite(name)).splitlines()


def test_prop41_fails_at_the_first_witness_and_hunts_no_further(witnesses):
    space = builtin_space("doctrinal")
    names = [rule.name for rule in fixtures.partition_battery(space, 3)]
    hunts = _ForcedHunts(lambda s, rule, n: names.index(rule.name) if (s, n) == (space, 3) else None, 1, witnesses)
    lines = _failed_report("prop4.1", find_witness=hunts)
    assert f"  [FAIL] partition rules on doctrinal, n=3: {names[1]}: {suites._witness_line(witnesses[0])}" in lines
    assert hunts.hunted == [0, 1]
    assert lines[-1] == "result: FAIL (9/10 checks)"


def test_thm42_hunts_the_first_flagged_configuration_alone(witnesses):
    space = builtin_space("classifier4")
    stages = (IiaStage.majority(3, space.m),) + fixtures.sampled_stages(3, space.m, 5)
    configurations = [
        (stage.tables, tie.name, wv)
        for stage in stages
        for tie in fixtures.tie_battery(space)
        for wv in fixtures.weight_battery(space.m)
    ]

    def position(s, rule, n):
        return configurations.index((rule.stage.tables, rule.tie.name, rule.weights)) if s is space else None

    at = 7
    hunts = _ForcedHunts(position, at, witnesses)
    lines = _failed_report("thm4.2", find_witness=hunts)
    _, tie, wv = configurations[at]
    line = suites._witness_line(witnesses[0])
    assert f"  [FAIL] corrected stages on classifier4: tie={tie} weights={wv}: {line}" in lines
    assert hunts.hunted == list(range(at + 1))
    assert lines[-1] == "result: FAIL (4/5 checks)"


def test_thm43_fails_at_the_first_witness_and_hunts_no_further(witnesses):
    space = builtin_space("cycle6")
    configurations = [(wv, tie) for wv in fixtures.weight_battery(space.m) for tie in ("ascending", "descending")]

    def position(s, rule, n):
        return configurations.index((rule.weights, rule.tie.name)) if s is space else None

    hunts = _ForcedHunts(position, 2, witnesses)
    lines = _failed_report("thm4.3", find_witness=hunts)
    wv, tie = configurations[2]
    assert f"  [FAIL] welfare maximizer on cycle6: tie={tie} weights={wv}: {suites._witness_line(witnesses[0])}" in lines
    assert hunts.hunted == [0, 1, 2]
    assert lines[-1] == "result: FAIL (9/10 checks)"


def test_thm43_anonymity_failure_counts_its_violations():
    # a 5-voter evaluator that reads each row's position, not its rows: every permutation moves the outcome
    evaluator = suites.WelfareMaximizer.block_evaluator

    def by_position(rule, n):
        return (lambda rows: np.arange(len(rows))) if n == 5 else evaluator(rule, n)

    with mock.patch.object(suites.WelfareMaximizer, "block_evaluator", by_position):
        lines = format_report(run_suite("thm4.3")).splitlines()
    assert "  [FAIL] welfare maximizer anonymity on pref3: exhaustive n=3 plus 200 random 5-voter permutations, 200 violations" in lines
    assert lines[-1] == "result: FAIL (5/10 checks)"


def test_claim58_fails_with_the_witness(witnesses):
    space = builtin_space("choose4-2")
    hunts = _ForcedHunts(lambda s, rule, n: 0 if s is space else None, 0, witnesses)
    lines = _failed_report("claim5.8", find_witness=hunts)
    assert f"  [FAIL] welfare maximizer on choose4-2 is hamming-free: {suites._witness_line(witnesses[0])}" in lines
    assert hunts.hunted == [0]
    assert lines[-1] == "result: FAIL (3/4 checks)"


def test_claim56_fails_with_the_sweeps_first_manipulable_stage(capsys):
    # a real sweep hit: the first manipulable stage on a four-point space, reported for one configuration
    found = all_stage_products_hamming_free(EvaluationSpace(4, [4, 9, 12, 14]), 3)
    space = builtin_space("pref3")
    tie, wv = fixtures.tie_battery(space)[1], fixtures.weight_battery(space.m)[2]

    def sweep(s, n, weights, t):
        return found if (weights, t.name) == (wv, tie.name) else None

    with mock.patch.object(suites, "all_stage_products_hamming_free", sweep):
        code = main(["verify", "--suite", "claim5.6"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert f"  [FAIL] all stages, tie={tie.name}, weights={wv}: stage #8000 tables=(128, 0, 0, 0) has a witness at probe (22, 2, 0)" in lines
    assert lines[-1] == "result: FAIL (8/9 checks)"


@pytest.mark.parametrize(
    "name, evidence",
    (
        ("lemma5.4", "interval(v,u) avoids the space: 1 violations, first at v=001000 u=001000"),
        ("lemma5.5", "subcube types differ: 2 violations, first at v=000000 u=000000"),
    ),
)
def test_lemma_checks_fail_at_the_first_pair_that_breaks_them(capsys, name, evidence):
    # pref4's infeasible 000000 paired with itself keeps the interval empty but repeats its type;
    # its feasible 001000 paired with itself breaks both properties
    harvest = {"seeded harvest": ([(0b000000, 0b000000), (0b001000, 0b001000)], 2)}
    with mock.patch.object(suites, "_lemma_harvest", return_value=harvest):
        code = main(["verify", "--suite", name])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[1] == f"  [FAIL] seeded harvest: {evidence}"
    assert lines[-1] == "result: FAIL (0/1 checks)"


def test_thm31_partial_free_check_fails_with_its_witness(witnesses):
    def unanimity_manipulable(space, rule, n, kind):
        return witnesses[0] if rule.name == "quota:3,3,3" else find_witness(space, rule, n, kind)

    lines = _failed_report("thm3.1", find_witness=unanimity_manipulable)
    line = suites._witness_line(witnesses[0])
    assert lines[1] == f"  [FAIL] consistent unanimity stage is partial-free: {line}"
    assert lines[-1] == "result: FAIL (3/4 checks)"


def test_thm31_partial_free_check_fails_with_its_first_infeasible_output():
    doc = builtin_space("doctrinal")
    infeasible = [v for v in range(8) if v not in doc]
    lines = _failed_report("thm3.1", outcome_table=mock.Mock(return_value=[doc.feasible[0], *infeasible]))
    assert lines[1] == f"  [FAIL] consistent unanimity stage is partial-free: output {to_bits(infeasible[0], 3)} is infeasible"
    assert lines[-1] == "result: FAIL (3/4 checks)"


def test_thm31_names_a_structural_property_that_holds():
    # the witnesses stay; each property the check expects broken is reported to hold
    lines = _failed_report("thm3.1", check_structural=lambda space, rule, n, prop: StructuralReport(prop, True))
    assert lines[3].startswith("  [FAIL] corrected majority breaks issue-independence and partial-freeness: iia holds; profile ")
    assert lines[4].startswith("  [FAIL] anti-majority (non-monotone quota flip) is partially manipulable: monotone holds; profile ")
    assert lines[-1] == "result: FAIL (2/4 checks)"


@pytest.mark.parametrize("name, failed", (("thm3.1", "plurality (profile-global rule) is partially manipulable"), ("claim5.7", "corrected majority, worked-example tie order: witness exists")))
def test_an_expected_witness_that_is_missing_fails(name, failed):
    lines = _failed_report(name, find_witness=mock.Mock(return_value=None))
    assert f"  [FAIL] {failed}: no witness found" in lines
    assert lines[-1].startswith("result: FAIL")


def test_reports_byte_identical():
    for name in ("tables", "thm3.1", "claim5.8"):
        assert format_report(run_suite(name)) == format_report(run_suite(name))


def test_report_mentions_shuffle_seed():
    report = run_suite("claim5.6")
    assert "shuffled(seed=20180921)" in format_report(report)


def test_battery_fixtures_deterministic():
    from binagg.fixtures import sampled_stages, tie_battery, weight_battery
    from binagg.spaces import builtin_space

    assert sampled_stages(3, 6, 5) == sampled_stages(3, 6, 5)
    assert weight_battery(4) == ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2))
    space = builtin_space("pref3")
    assert [t.ranking for t in tie_battery(space)] == [t.ranking for t in tie_battery(space)]


# bound 1 rejects half the words (k = 1, and word >> 31 must be 0), as does
# every power of two; 2**32 - 1 rejects one word in 2**32
BOUNDS = st.one_of(st.sampled_from((1, 2, 3, 4, 20, 24, 2**31, 2**32 - 1)), st.integers(1, 2**32 - 1))
# one lemma-harvest configuration: six tables, tie, weights, three rows, liar and lie
HARVEST_BOUNDS = [20] * 6 + [4, 3, 24, 24, 24, 3, 24]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64),
    st.lists(BOUNDS, min_size=1, max_size=6),
    st.integers(0, 2500),
    st.sampled_from((engine.BLOCK_ELEMENTS, 1, 97)),
)
# about 18,000 words: past the first bulk at the default block size
@example(0, [1, 2**32 - 1, 3, 20, 24, 4], 2000, engine.BLOCK_ELEMENTS)
# the loosest threshold's run alone, first, last, and both first and last
@example(1, [24], 2000, engine.BLOCK_ELEMENTS)
@example(2, [24, 20, 4], 2000, engine.BLOCK_ELEMENTS)
@example(3, [20, 4, 24], 2000, engine.BLOCK_ELEMENTS)
@example(4, [24, 20, 3], 300, 97)
# every bound sharing one threshold: 3 << 30 == 6 << 29 == 12 << 28 == 24 << 27
@example(5, [3, 24, 24], 2000, engine.BLOCK_ELEMENTS)
@example(6, [3, 6, 12, 24, 3], 700, 97)
# fewer rounds than one bulk completes
@example(7, [20, 4, 24], 3, engine.BLOCK_ELEMENTS)
@example(8, [20] * 6 + [4, 3, 24, 24, 24, 3, 24], 1, engine.BLOCK_ELEMENTS)
# the harvest's own bounds over many bulks, a round spanning several at block size 1
@example(9, HARVEST_BOUNDS, 2500, 1)
@example(9, HARVEST_BOUNDS, 2500, 97)
# six distinct thresholds: the smallest group, four words
@example(10, [1, 3, 5, 7, 9, 11], 2000, engine.BLOCK_ELEMENTS)
# one word per bulk, never a whole group of eight: every round waits on carried words
@example(11, [24], 20, 1)
def test_bounded_draws_replay_randrange(seed, bounds, rounds, block_elements):
    ours, theirs = random.Random(seed), random.Random(seed)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        blocks = list(suites._bounded_draws(ours, bounds, rounds))
    values = [row for block in blocks for row in block.tolist()]
    assert values == [[theirs.randrange(b) for b in bounds] for _ in range(rounds)]
    assert all(block.shape[1] == len(bounds) for block in blocks)
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(BOUNDS, min_size=1, max_size=6, unique=True).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=13)
    )
)
# every bound at one threshold, 3 << 30: one class, every word accepted
@example([3, 24, 6, 12, 3])
@example(HARVEST_BOUNDS)
@example([1, 3, 5, 7, 9, 11])
def test_slot_automaton_matches_word_walk(bounds):
    thresholds = [b << (32 - b.bit_length()) for b in bounds]
    distinct = sorted(set(thresholds))
    d, width = len(distinct), len(bounds)
    g = suites._group_size(d)
    assert d**g <= 4096 and (g == 8 or d ** (g + 1) > 4096)
    nxt, accepted = suites._slot_automaton(tuple(distinct.index(t) for t in thresholds))
    nxt, accepted = nxt.tolist(), accepted.tolist()
    assert len(nxt) == len(accepted) == d**g * width
    # a word of class c, with c distinct thresholds at or below it
    word = [0] + distinct[:-1]
    for p in range(d**g):
        words = [word[p // d ** (g - 1 - j) % d] for j in range(g)]
        for s in range(width):
            flags = [bool(accepted[p * width + s] >> j & 1) for j in range(g)]
            assert (nxt[p * width + s], flags) == oracle.slot_walk(thresholds, words, s)


def _untempered(word):
    """The Mersenne Twister state word whose tempered output is ``word``."""
    y = word ^ (word >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def test_bounded_draws_reject_a_word_at_the_threshold():
    # a generator whose next words are chosen: bound b rejects the word
    # b << (32 - k) itself and accepts the word just below it
    bounds = (3, 20, 1, 2**32 - 1)
    thresholds = [b << (32 - b.bit_length()) for b in bounds]
    words = [w for t in thresholds for w in (t, t - 1)]
    key = [_untempered(w) for w in words] + [0x9E3779B9] * (624 - len(words))
    state = (3, (*key, 0), None)
    ours, theirs = random.Random(), random.Random()
    ours.setstate(state)
    theirs.setstate(state)
    assert [theirs.getrandbits(32) for _ in words] == words
    theirs.setstate(state)
    values = [row for block in suites._bounded_draws(ours, bounds, 1) for row in block.tolist()]
    assert values == [[theirs.randrange(b) for b in bounds]] == [[2, 19, 0, 2**32 - 2]]
    assert ours.getstate() == theirs.getstate()


def test_bounded_draws_edges():
    rng = random.Random(3)
    state = rng.getstate()
    assert list(suites._bounded_draws(rng, (20, 4), 0)) == []
    assert rng.getstate() == state
    for bounds in ((0,), (2**32,), (3, 0), ()):
        with pytest.raises(ValueError, match="bounds"):
            list(suites._bounded_draws(rng, bounds, 5))
    assert rng.getstate() == state


@pytest.mark.parametrize("block_elements", (engine.BLOCK_ELEMENTS, 1, 97))
def test_random_harvest_matches_oracle(block_elements):
    # the same draws in the same order: equal pairs and hits, and the
    # generators end in the same state
    for seed in (fixtures.RANDOM_SWEEP_SEED, 1):
        ours = random.Random(seed)
        theirs = random.Random(seed)
        with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
            assert suites._random_harvest(2000, ours) == oracle.random_harvest(2000, theirs)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("tie", ("worked example", "descending"))
def test_exhaustive_harvest_matches_oracle(pref4, tie):
    tie = fixtures.four_candidate_tie_order() if tie == "worked example" else TieOrder.descending(pref4)
    assert suites._exhaustive_harvest(pref4, tie) == oracle.exhaustive_harvest(pref4, tie)


def test_type_certificate_holds_both_lemma_harvests(pref4):
    """Every hamming hit of the harvest's 12 corrections over all 3^m pivot types (F, D), opinions x
    and lies y gives the stage-output pair (F | (x & D), F | (y & D)).  Constant and dictator deciders
    show every type in every context, so these pairs are exactly those of every monotone stage,
    profile, voter and lie, for any n: both lemmas hold on all of them, and both harvests are subsets."""
    S, m = pref4.size, pref4.m
    fixed, copied = manipulation._pivot_masks(np.arange(3**m), m)
    # v[t, y]: the stage output at type t when the voter reports feasible evaluation y
    v = fixed[:, None] | (np.array(pref4.feasible) & copied[:, None])
    opinions = np.arange(S)
    pairs, hits = set(), 0
    for tie in fixtures.tie_battery(pref4, extra=fixtures.four_candidate_tie_order()):
        for wv in fixtures.weight_battery(m):
            # far[x, p]: the distance from opinion x to the correction of point p
            far = _feasible_distances(pref4, wv)[:, _correction_table(pref4, wv, tie.ranking)]
            gap = far[opinions[:, None], v[:, None, :]]
            t, x, y = np.nonzero(gap < gap[:, opinions, opinions][:, :, None])
            hits += len(t)
            pairs.update(zip(v[t, x].tolist(), v[t, y].tolist()))
    assert (len(pairs), hits) == (210, 85_714)
    assert all(suites._interval_empty(pref4, a, b) and suites._types_differ(pref4, a, b) for a, b in pairs)
    harvested = [harvest for harvest, _ in suites._lemma_harvest().values()]
    assert [len(harvest) for harvest in harvested] == [112, 172]
    assert all(set(harvest) <= pairs for harvest in harvested)


def test_lemma_harvest_leaves_numpy_random_unimported():
    # importing numpy.random adds about 1.5 MB of peak RSS to every process that runs the suites
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys; from binagg import suites; suites.run_suite('lemma5.4'); print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_cli_import_builds_no_slot_automaton():
    # the draws' tables are built on first use, so no command's start-up pays for them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import binagg.cli; from binagg import suites; print(suites._slot_automaton.cache_info().misses)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_random_harvest_memory_is_chunked():
    # blocks trace about 0.7 MB here; all 40,000 configurations in one batch, over 13 MB
    tracemalloc.start()
    try:
        suites._random_harvest(40_000, random.Random(fixtures.RANDOM_SWEEP_SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_lemma_suites_share_one_harvest():
    suites._lemma_harvest.cache_clear()
    run_suite("lemma5.4")
    run_suite("lemma5.5")
    assert suites._lemma_harvest.cache_info().misses == 1
