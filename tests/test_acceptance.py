"""Acceptance gate: every shipping criterion, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``).
Runtime bounds are asserted where the criterion carries one; all
searches are exhaustive at the stated sizes, never sampled, except
where a criterion explicitly asks for a randomized sweep.
"""

import itertools
import random
import time

from binagg.aggregators import (
    IiaStage,
    NearestNeighborRule,
    Plurality,
    StageRule,
    TableRule,
    WelfareMaximizer,
    check_structural,
    committee_tie_order,
    outcome_table,
    swm_topk,
)
from binagg.fixtures import (
    battery_spaces,
    four_candidate_case,
    four_candidate_tie_order,
    partition_battery,
    sampled_stages,
    tie_battery,
    weight_battery,
)
from binagg.manipulation import classify_deviation, find_witness
from binagg.metric import TieOrder, nn_select, uniform_weights, weighted_hamming
from binagg.spaces import bit_at, builtin_space, choose_space, enumerate_mipes
from binagg.suites import format_report, run_suite
from oracle import iter_profiles


def report(criterion: int, passed: bool, detail: str):
    line = f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------


def test_criterion_01_table_fidelity():
    start = time.perf_counter()
    rep = run_suite("tables")
    elapsed = time.perf_counter() - start
    text = format_report(rep)
    exact = all(
        f"got {value}" in text
        for value in (
            "111",
            "110",
            "101",
            "111110",
            "110110",
            "111010",
            "011010",
            "000111",
            "001000",
            "000000",
        )
    )
    report(
        1,
        rep.passed and exact and elapsed < 1.0,
        f"published profiles reproduced byte-exactly in {elapsed:.2f}s",
    )


def test_criterion_02_partition_rules_full_free():
    start = time.perf_counter()
    hunted = 0
    for name, space in battery_spaces():
        for n in (2, 3):
            for rule in partition_battery(space, n):
                hunted += 1
                assert find_witness(space, rule, n, "full") is None, f"{name} n={n} {rule.name}"
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 10.0,
        f"{hunted} exhaustive partition hunts across 5 spaces, 0 witnesses, {elapsed:.2f}s",
    )


def test_criterion_03_corrected_stages_full_free():
    start = time.perf_counter()
    combos = 0
    anonymity = 0
    for name, space in battery_spaces():
        stages = (IiaStage.majority(3, space.m),) + sampled_stages(3, space.m, 5)
        for stage in stages:
            for tie in tie_battery(space):
                for wv in weight_battery(space.m):
                    rule = NearestNeighborRule(space, stage, wv, tie)
                    combos += 1
                    assert find_witness(space, rule, 3, "full") is None, f"{name} tie={tie.name} w={wv}"
                    if stage.is_anonymous:
                        assert check_structural(space, rule, 3, "anonymous").holds
                        anonymity += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 60.0,
        f"{combos} corrected-stage hunts, 0 witnesses; anonymity verified "
        f"{anonymity} times; {elapsed:.2f}s",
    )


def test_criterion_04_welfare_maximizer_full_free():
    start = time.perf_counter()
    combos = 0
    for name, space in battery_spaces():
        for wv in weight_battery(space.m):
            rule = WelfareMaximizer(space, wv, TieOrder.ascending(space))
            combos += 1
            assert find_witness(space, rule, 3, "full") is None, f"{name} w={wv}"
    # 1000 random profiles, row-permutation invariance
    rng = random.Random(404)
    spaces = [space for _, space in battery_spaces()]
    rules = {id(s): WelfareMaximizer(s) for s in spaces}
    for k in range(1000):
        space = spaces[k % len(spaces)]
        rule = rules[id(space)]
        rows = [rng.choice(space.feasible) for _ in range(rng.randint(2, 5))]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rule(rows) == rule(shuffled)
    elapsed = time.perf_counter() - start
    report(
        4,
        elapsed < 30.0,
        f"{combos} welfare-maximizer hunts, 0 witnesses; 1000 random "
        f"row-permutation checks, 0 violations; {elapsed:.2f}s",
    )


def test_criterion_05_all_stages_three_alternatives_hamming_free():
    start = time.perf_counter()
    rep = run_suite("claim5.6")
    elapsed = time.perf_counter() - start
    swept = sum("8000 corrected stages" in c.evidence for c in rep.checks)
    report(
        5,
        rep.passed and swept == 9 and elapsed < 120.0,
        f"9 battery combinations x 8000 stages, 0 hamming witnesses, {elapsed:.2f}s",
    )


def test_criterion_06_corrected_majority_four_alternatives_manipulable():
    start = time.perf_counter()
    case = four_candidate_case()
    space = case["space"]
    rule = NearestNeighborRule(space, IiaStage.majority(3, 6), tie=four_candidate_tie_order())
    witness = find_witness(space, rule, 3, "hamming")
    lied_rows = case["rows"][:1] + (case["lie"],) + case["rows"][2:]
    z, w = rule(case["rows"]), rule(lied_rows)
    x2 = case["rows"][1]
    dz, dw = weighted_hamming(x2, z), weighted_hamming(x2, w)
    dev = classify_deviation(x2, z, w)
    elapsed = time.perf_counter() - start
    report(
        6,
        witness is not None and dev.hamming and (dz, dw) == (3, 2) and elapsed < 60.0,
        f"hunt found a witness; quoted deviation moves distance {dz} -> {dw}; {elapsed:.2f}s",
    )


def test_criterion_07_committee_welfare_maximizer_hamming_free():
    start = time.perf_counter()
    compared = 0
    for name in ("choose4-2", "choose5-2"):
        space = builtin_space(name)
        rule = WelfareMaximizer(space, uniform_weights(space.m), committee_tie_order(space))
        assert find_witness(space, rule, 3, "hamming") is None, name
        for _, _, rows in iter_profiles(space, 3):
            assert rule(rows) == swm_topk(space, rows)
            compared += 1
    elapsed = time.perf_counter() - start
    report(
        7,
        elapsed < 10.0,
        f"0 hamming witnesses; top-approval agreement on {compared} profiles; {elapsed:.2f}s",
    )


def test_criterion_08_harvested_witnesses_satisfy_both_geometry_lemmas():
    rep54 = run_suite("lemma5.4")
    rep55 = run_suite("lemma5.5")
    harvested_something = all("0 violations" in c.evidence and " witnesses" in c.evidence for c in rep54.checks)
    nonzero = all(not c.evidence.startswith("0 witnesses") for c in rep54.checks)
    report(
        8,
        rep54.passed and rep55.passed and harvested_something and nonzero,
        "interval-emptiness and type-inequality hold on every harvested witness "
        "(exhaustive worked-example hunt plus 100000-configuration randomized sweep)",
    )


def test_criterion_09_partial_freeness_boundary():
    doc = builtin_space("doctrinal")
    unanimous = StageRule(doc, IiaStage.unanimity(3, 3))
    assert all(v in doc for v in outcome_table(doc, unanimous, 3))
    forward = find_witness(doc, unanimous, 3, "partial") is None

    p3 = builtin_space("pref3")
    converse = find_witness(p3, Plurality(p3), 3, "partial") is not None

    non_iia = NearestNeighborRule(p3, IiaStage.majority(3, 3))
    assert not check_structural(p3, non_iia, 3, "iia").holds
    non_iia_witness = find_witness(p3, non_iia, 3, "partial") is not None

    pick1 = choose_space(2, 1)

    def minority(rows):
        ones = sum(1 for r in rows if r == 0b10)
        return 0b10 if ones < len(rows) - ones else 0b01

    anti = TableRule(pick1, minority, "minority")
    assert not check_structural(pick1, anti, 3, "monotone").holds
    non_monotone_witness = find_witness(pick1, anti, 3, "partial") is not None

    report(
        9,
        forward and converse and non_iia_witness and non_monotone_witness,
        "consistent monotone stage partial-free; plurality, non-independent and "
        "non-monotone perturbations all partially manipulable",
    )


def test_criterion_10_oracle_equivalences():
    mipe_mismatch = 0
    nn_mismatch = 0
    for name in ("pref3", "pref4", "doctrinal", "classifier4", "cycle6", "choose4-2", "choose5-2"):
        space = builtin_space(name)

        def feasible_pattern(K, bits):
            return any(
                all(bit_at(x, j, space.m) == b for j, b in zip(K, bits)) for x in space.feasible
            )

        brute = set()
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
                        brute.add((K, bits))
        got = {(pe.support, pe.bits) for pe in enumerate_mipes(space)}
        mipe_mismatch += len(brute ^ got)

        ties = [None, TieOrder.descending(space), TieOrder.shuffled(space, 23)]
        for wv in (None, (2,) + (1,) * (space.m - 1)):
            for tie in ties:
                for p in space.infeasible():
                    ranked = sorted(
                        space.feasible,
                        key=lambda x: (
                            weighted_hamming(p, x, wv, space.m),
                            tie.rank(x) if tie else x,
                        ),
                    )
                    if nn_select(space, p, wv, tie) != ranked[0]:
                        nn_mismatch += 1
    report(
        10,
        mipe_mismatch == 0 and nn_mismatch == 0,
        "pattern enumeration and nearest-neighbor selection match brute-force "
        "oracles on every built-in space, 0 discrepancies",
    )
