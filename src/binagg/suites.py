"""Named verification suites with deterministic pass/fail reports.

Each suite re-derives one published result at desk scale: either an
exact reproduction of a worked example (``tables``) or an exhaustive
hunt whose expected outcome is "no witness exists" or "this specific
witness exists".  Reports are plain data; rendering them with
:func:`format_report` yields byte-identical output across runs, so
timing lives in the report object but never in the rendered text.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import engine, fixtures
from .aggregators import (
    IiaStage,
    NearestNeighborRule,
    Plurality,
    StageRule,
    StructuralReport,
    TableRule,
    WelfareMaximizer,
    _topk_block,
    check_structural,
    committee_tie_order,
    monotone_tables,
    outcome_table,
)
from .fastsweep import all_stage_products_hamming_free
from .manipulation import ManipulationWitness, _hit_fn, classify_deviation, find_witness
from .metric import TieOrder, _correction_table, _feasible_distances, uniform_weights, weighted_hamming
from .spaces import builtin_space, choose_space, is_between, mipe_type, to_bits


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    evidence: str


@dataclass
class SuiteReport:
    name: str
    checks: list[CheckResult] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def format_report(report: SuiteReport) -> str:
    """Deterministic text rendering (runtime intentionally omitted)."""
    lines = [f"suite {report.name}"]
    for c in report.checks:
        tag = "pass" if c.passed else "FAIL"
        lines.append(f"  [{tag}] {c.label}: {c.evidence}")
    good = sum(1 for c in report.checks if c.passed)
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"result: {verdict} ({good}/{len(report.checks)} checks)")
    return "\n".join(lines)


def _witness_line(w: ManipulationWitness) -> str:
    m = w.m
    rows = ",".join(to_bits(r, m) for r in w.profile)
    return (
        f"profile {rows}; voter {w.voter} lies {to_bits(w.lie, m)}: "
        f"outcome {to_bits(w.truthful, m)} -> {to_bits(w.lied, m)}"
    )


def _expect(label: str, expected: str, actual: str) -> CheckResult:
    return CheckResult(label, expected == actual, f"expected {expected}, got {actual}")


def _battery(label: str, hunts: Iterable[tuple[str, ManipulationWitness | None]], passed: str) -> CheckResult:
    """A check that no configuration has a witness.

    ``hunts`` yields (evidence prefix, ``find_witness`` result) per
    configuration, in order, each hunted as it is drawn.  The first
    witness fails the check, with its prefix and witness line as the
    evidence, and no later configuration is hunted.  With no witness
    the check passes, with ``passed`` as the evidence.
    """
    failed = next(((prefix, w) for prefix, w in hunts if w is not None), None)
    if failed is None:
        return CheckResult(label, True, passed)
    prefix, w = failed
    return CheckResult(label, False, prefix + _witness_line(w))


def _expect_witness(label: str, w: ManipulationWitness | None, broken: StructuralReport | None = None) -> CheckResult:
    """A check that a witness exists, and that the property of ``broken``, if given, fails."""
    held = f"{broken.property} holds; " if broken is not None and broken.holds else ""
    return CheckResult(label, w is not None and not held, held + (_witness_line(w) if w else "no witness found"))


# ---------------------------------------------------------------------------
# tables


def _suite_tables() -> list[CheckResult]:
    checks = []
    p3 = builtin_space("pref3")
    doc = builtin_space("doctrinal")
    maj3 = IiaStage.majority(3, 3)

    checks.append(
        _expect("three-alternative majority cycle", "111", to_bits(maj3.apply(fixtures.condorcet_rows()), 3))
    )
    checks.append(
        _expect(
            "conjunction-space majority paradox",
            "110",
            to_bits(maj3.apply(fixtures.conjunction_paradox_rows()), 3),
        )
    )

    plu = Plurality(p3)
    s1, s2, _s3 = fixtures.plurality_scenarios()
    lied_rows = s1["rows"][:1] + (s1["lie"],) + s1["rows"][2:]
    checks.append(_expect("plurality, cyclic profile", "110", to_bits(plu(s1["rows"]), 3)))
    checks.append(_expect("plurality, after the lie", "101", to_bits(plu(lied_rows), 3)))
    checks.append(_expect("plurality, second profile", "101", to_bits(plu(s2["rows"]), 3)))

    case = fixtures.four_candidate_case()
    space = case["space"]
    maj6 = IiaStage.majority(3, 6)
    tie = fixtures.four_candidate_tie_order()
    rule = NearestNeighborRule(space, maj6, tie=tie)
    lied_rows4 = case["rows"][:1] + (case["lie"],) + case["rows"][2:]
    checks.append(
        _expect("four-candidate majority, truthful", "111110", to_bits(maj6.apply(case["rows"]), 6))
    )
    checks.append(
        _expect("four-candidate corrected outcome, truthful", "110110", to_bits(rule(case["rows"]), 6))
    )
    checks.append(
        _expect("four-candidate majority, after the lie", "111010", to_bits(maj6.apply(lied_rows4), 6))
    )
    checks.append(
        _expect("four-candidate corrected outcome, after the lie", "011010", to_bits(rule(lied_rows4), 6))
    )

    sep = fixtures.welfare_separation_case()
    swm = WelfareMaximizer(sep["space"])
    checks.append(
        _expect("welfare maximizer, 3/2/4 profile", "000111", to_bits(swm(sep["rows_unbalanced"]), 6))
    )
    checks.append(
        _expect("welfare maximizer, 3/3/3 profile", "001000", to_bits(swm(sep["rows_balanced"]), 6))
    )
    for shape, rows in (("3/2/4", sep["rows_unbalanced"]), ("3/3/3", sep["rows_balanced"])):
        majority = IiaStage.majority(len(rows), 6).apply(rows)
        checks.append(_expect(f"issue-wise majority, {shape} profile", "000000", to_bits(majority, 6)))
    return checks


# ---------------------------------------------------------------------------
# partition rules are full-manipulation-free


def _suite_prop41() -> list[CheckResult]:
    checks = []
    for name, space in fixtures.battery_spaces():
        for n in (2, 3):
            rules = fixtures.partition_battery(space, n)
            hunts = ((f"{rule.name}: ", find_witness(space, rule, n, "full")) for rule in rules)
            checks.append(
                _battery(f"partition rules on {name}, n={n}", hunts, f"{len(rules)} partitions, 0 full-manipulation witnesses")
            )
    return checks


# ---------------------------------------------------------------------------
# partial manipulation: consistent monotone per-issue rules and nothing else


def _suite_thm31() -> list[CheckResult]:
    checks = []
    doc = builtin_space("doctrinal")
    unanimous = StageRule(doc, IiaStage.unanimity(3, 3), name="quota:3,3,3")
    outputs = outcome_table(doc, unanimous, 3)
    infeasible = next((v for v in outputs if v not in doc), None)
    label = "consistent unanimity stage is partial-free"
    if infeasible is None:
        hunts = (("", find_witness(doc, unanimous, 3, "partial")),)
        checks.append(_battery(label, hunts, f"all {len(outputs)} outputs feasible, 0 partial witnesses"))
    else:
        checks.append(CheckResult(label, False, f"output {to_bits(infeasible, doc.m)} is infeasible"))

    p3 = builtin_space("pref3")
    w = find_witness(p3, Plurality(p3), 3, "partial")
    checks.append(_expect_witness("plurality (profile-global rule) is partially manipulable", w))

    corrected = NearestNeighborRule(p3, IiaStage.majority(3, 3))
    iia_report = check_structural(p3, corrected, 3, "iia")
    w2 = find_witness(p3, corrected, 3, "partial")
    checks.append(
        _expect_witness("corrected majority breaks issue-independence and partial-freeness", w2, iia_report)
    )

    pick1 = choose_space(2, 1)

    def minority(rows):
        yes_first = sum(1 for r in rows if r == 0b10)
        return 0b10 if yes_first < len(rows) - yes_first else 0b01

    anti = TableRule(pick1, minority, "minority")
    mono_report = check_structural(pick1, anti, 3, "monotone")
    w3 = find_witness(pick1, anti, 3, "partial")
    checks.append(
        _expect_witness("anti-majority (non-monotone quota flip) is partially manipulable", w3, mono_report)
    )
    return checks


# ---------------------------------------------------------------------------
# corrected monotone stages are full-manipulation-free


def _suite_thm42() -> list[CheckResult]:
    checks = []
    for name, space in fixtures.battery_spaces():
        stages = (IiaStage.majority(3, space.m),) + fixtures.sampled_stages(3, space.m, 5)
        ties, weights = fixtures.tie_battery(space), fixtures.weight_battery(space.m)
        # each hunt reads its correction's cached type table before it sets up a walk (Theorem 4.2's certificate)
        hunts = (
            (f"tie={tie.name} weights={wv}: ", find_witness(space, NearestNeighborRule(space, stage, wv, tie), 3, "full"))
            for stage in stages
            for tie in ties
            for wv in weights
        )
        per_stage = len(ties) * len(weights)
        # a corrected anonymous stage is anonymous by construction (Rule.anonymous)
        anonymous = sum(stage.is_anonymous for stage in stages)
        passed = (
            f"{len(stages) * per_stage} stage/tie/weight configurations, 0 full witnesses; "
            f"anonymity verified for {anonymous * per_stage} anonymous-stage configurations"
        )
        checks.append(_battery(f"corrected stages on {name}", hunts, passed))
    return checks


# ---------------------------------------------------------------------------
# the welfare maximizer is full-manipulation-free and anonymous


def _suite_thm43() -> list[CheckResult]:
    checks = []
    rng = random.Random(fixtures.RANDOM_SWEEP_SEED + 1)
    for name, space in fixtures.battery_spaces():
        configurations = [
            (wv, tie) for wv in fixtures.weight_battery(space.m) for tie in (TieOrder.ascending(space), TieOrder.descending(space))
        ]
        hunts = (
            (f"tie={tie.name} weights={wv}: ", find_witness(space, WelfareMaximizer(space, wv, tie), 3, "full"))
            for wv, tie in configurations
        )
        passed = f"{len(configurations)} weight/tie configurations, 0 full witnesses"
        checks.append(_battery(f"welfare maximizer on {name}", hunts, passed))
        # row-permutation invariance: anonymous by construction (Rule.anonymous),
        # and 200 random permutations test the evaluator
        rule = WelfareMaximizer(space, uniform_weights(space.m), TieOrder.ascending(space))
        drawn, shuffles = [], []
        for _ in range(200):
            rows = [rng.randrange(space.size) for _ in range(5)]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            drawn.append(rows)
            shuffles.append(shuffled)
        # one (400, 5) block of feasible indices: the drawn profiles, then their permutations
        outcomes = rule.block_evaluator(5)(np.array(drawn + shuffles))
        bad = int(np.count_nonzero(outcomes[:200] != outcomes[200:]))
        checks.append(
            CheckResult(
                f"welfare maximizer anonymity on {name}",
                bad == 0,
                f"exhaustive n=3 plus 200 random 5-voter permutations, {bad} violations",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# harvested correction witnesses: interval emptiness and type inequality


def _interval_empty(space, v: int, u: int) -> bool:
    """No feasible evaluation lies between the stage outputs v and u."""
    return not any(is_between(v, x, u) for x in space.feasible)


def _types_differ(space, v: int, u: int) -> bool:
    """The stage outputs v and u are both infeasible, of different MIPE types."""
    if space.is_feasible(v) or space.is_feasible(u):
        return False
    return mipe_type(space, v) != mipe_type(space, u)


@lru_cache(maxsize=1)
def _lemma_harvest() -> dict[str, tuple[list[tuple[int, int]], int]]:
    """(sorted correction-witness stage-output pairs, witness count) of each harvest mode on pref4, by report label."""
    space = builtin_space("pref4")
    configs = 100_000
    # every hamming witness of the corrected majority under the worked example's tie order
    exhaustive = _exhaustive_harvest(space, fixtures.four_candidate_tie_order())
    # stage, tie, weights and deviation all sampled
    randomized = _random_harvest(configs, random.Random(fixtures.RANDOM_SWEEP_SEED))
    return {
        "every witness of the corrected majority, worked-example tie order": exhaustive,
        f"randomized correction sweep ({configs} configurations)": randomized,
    }


def _exhaustive_harvest(space, tie: TieOrder) -> tuple[list[tuple[int, int]], int]:
    """Sorted stage-output pairs and count of the hamming witnesses of the three-voter majority,
    corrected under uniform weights and ``tie``: the engine scans the stage's own outcome table,
    each code standing for its correction, and a hit's pair is the stage outputs of its truthful
    and lied codes, both read off the scan's block arrays."""
    uniform = uniform_weights(space.m)
    lattice = engine.ProfileLattice(space.size, 3)
    stage = engine.build_table(space, lattice, IiaStage.majority(3, space.m).block_evaluator(space, 3))
    correct = _correction_table(space, uniform, tie.ranking)[list(stage.values)].tolist()
    hit = _hit_fn(space, [space.feasible[i] for i in correct], "hamming", uniform)
    hits = engine.scan(lattice, engine.context_types(lattice, stage, hit), hit)
    pids, _, _, z, w = (np.concatenate(a) for a in zip(*hits))
    v, u = np.array(stage.values)[np.stack((z, w))]
    return sorted(set(zip(v.tolist(), u.tolist()))), len(pids)


def _group_size(distinct: int) -> int:
    """Words per automaton step: the most, up to 8, with at most 4096 patterns of ``distinct`` classes."""
    g = 1
    while g < 8 and distinct ** (g + 1) <= 4096:
        g += 1
    return g


@lru_cache(maxsize=16)
def _slot_automaton(ranks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The slot automaton of a round whose draw s is at distinct threshold ``ranks[s]``, tightest first.

    A word's class is the number of distinct thresholds at or below it,
    and slot s accepts it exactly when the class is at most ``ranks[s]``.
    The automaton reads g = :func:`_group_size` words at a time.  A
    pattern p = sum of class_j * d**(g - 1 - j), for d distinct
    thresholds, lists g classes, the first word most significant.  At
    index ``p * len(ranks) + s``, for pattern p read from slot s, the
    first table holds the slot that draws next and the second the g
    words' accepted flags, bit j for word j.  Both are narrow, and so
    are the temporaries that build them: the tables live as long as the
    process, and int64 temporaries raised a fresh process's peak RSS
    through ``lemma5.4`` by about 0.45 MB.
    """
    width, d = len(ranks), max(ranks) + 1
    g = _group_size(d)
    pattern = np.arange(d**g)
    rank = np.array(ranks, dtype=engine._unsigned(d - 1))
    slot = np.broadcast_to(np.arange(width, dtype=engine._unsigned(width)), (d**g, width))
    accepted = np.zeros((d**g, width), dtype=np.uint8)
    for j in range(g):
        ok = (pattern // d ** (g - 1 - j) % d)[:, None] <= rank[slot]
        accepted |= ok.view(np.uint8) << j
        slot = np.where(ok, (slot + 1) % width, slot)
    return slot.ravel(), accepted.ravel()


def _bounded_draws(rng: random.Random, bounds: Sequence[int], rounds: int) -> Iterator[np.ndarray]:
    """Blocks of (B, len(bounds)) values, B >= 0: ``rounds`` rounds of ``[rng.randrange(b) for b in bounds]``.

    The values are replayed from bulk 32-bit Mersenne Twister words, by
    the rule CPython's ``randrange(b)`` and ``choice`` of a length-b
    sequence both follow (``_randbelow_with_getrandbits``): draw
    ``getrandbits(k)`` with k = b.bit_length(), which is the top k bits
    of the next word, until it is below b.  So word w is accepted by
    bound b exactly when ``w < b << (32 - k)``, and the value is
    ``w >> (32 - k)``.  ``rng.randbytes(4 * N)`` is
    ``getrandbits(32 * N)`` in little-endian order, so its 4-byte groups
    are the next N words in order.

    Every draw takes a word below the loosest threshold, so a bulk is
    read among those words alone.  A round's draws are accepted in
    stream order, so the state before each such word is the slot that
    draws next, and :func:`_slot_automaton` reads the words g at a time:
    a walk over the groups' class patterns gives each group's start
    slot, and one gather of accepted flags lists the positions of the
    bulk's draws, round after round.  Words after the last complete
    round, whole groups or not, carry into the next bulk; once the
    generator is exhausted, ``rng`` is in the per-call loop's state.
    Bounds outside 1..2**32-1 raise ``ValueError``: a larger bound draws
    more than one word.
    """
    if not bounds or not all(1 <= b < 1 << 32 for b in bounds):
        raise ValueError(f"bounds must be 1..2**32-1, one word per draw, got {tuple(bounds)}")
    width = len(bounds)
    shifts = np.array([32 - b.bit_length() for b in bounds])
    thresholds = [b << (32 - b.bit_length()) for b in bounds]
    distinct = sorted(set(thresholds))
    nxt, accepted = _slot_automaton(tuple(distinct.index(t) for t in thresholds))
    nxt, g = memoryview(nxt), _group_size(len(distinct))
    # a group's pattern times `width`, the first word's class most significant
    place = len(distinct) ** np.arange(g - 1, -1, -1) * width
    # each bulk holds at least one round's words, each word about eight temporaries
    step = width * engine.block_size(8 * width)
    words = np.empty(0, dtype=np.uint32)
    # (state before the bulk draw, its word count) of every bulk with unconsumed words;
    # `spent` words of the first one are consumed
    held: list[tuple[object, int]] = []
    spent = 0
    while rounds:
        held.append((rng.getstate(), step))
        words = np.concatenate((words, np.frombuffer(rng.randbytes(4 * step), dtype="<u4")))
        # the words below the loosest threshold, at positions `where` among all words
        where = np.flatnonzero(words < distinct[-1])
        kept = words[where]
        groups = len(kept) // g
        # the class of every kept word in a whole group
        classes = np.zeros(groups * g, dtype=np.intp)
        for threshold in distinct[:-1]:
            classes += kept[: groups * g] >= threshold
        at = classes.reshape(groups, g) @ place
        # each group's end slot, which the next group starts at
        slot = 0
        ends = [slot := nxt[p + slot] for p in at.tolist()]
        # at[i]: the table index of group i, its pattern read from the slot it starts at
        at[1:] += np.array(ends[:-1], dtype=at.dtype)
        # taken[r, d]: the position among the kept words of round r's draw d
        taken = np.flatnonzero(np.unpackbits(accepted[at][:, None], axis=1, count=g, bitorder="little"))
        count = min(rounds, len(taken) // width)
        taken = taken[: count * width].reshape(count, width)
        rounds -= count
        yield kept[taken] >> shifts
        consumed = int(where[taken[-1, -1]]) + 1 if count else 0
        words = words[consumed:]
        spent += consumed
        while held and spent >= held[0][1]:
            spent -= held.pop(0)[1]
    if held:
        rng.setstate(held[0][0])
        rng.getrandbits(32 * spent)


def _random_harvest(configs: int, rng: random.Random) -> tuple[list[tuple[int, int]], int]:
    """Sorted stage-output pairs and hit count of the randomized correction sweep on pref4.

    Each configuration draws a monotone three-voter stage, a tie order,
    weights, a profile, a liar and a lie.  Its stage outputs are corrected
    by the sweeps' nearest-neighbour table under the drawn tie order and
    weights, and a hit is a lie whose corrected outcome is strictly
    closer, in those weights, to the liar's opinion.  The draws are those
    of the loop over single configurations that ``tests/oracle.py`` keeps,
    replayed by :func:`_bounded_draws`, and ``rng`` ends in that loop's
    state.  Each block of configurations stacks its truthful and lied
    profiles: one gather reads both profiles' issue columns off a table
    of all S**3 profiles, and one truth-table gather at those columns
    gives both stage outputs, v and u.  Their two distances to the
    liar's opinion are one gather from a table of the distance from
    every opinion to every correction of every point.
    """
    space = builtin_space("pref4")
    m, n = space.m, 3
    S = space.size
    tabs = monotone_tables(n)
    IiaStage(n, tabs)  # every table a configuration can draw is monotone
    ties = fixtures.tie_battery(space, extra=fixtures.four_candidate_tie_order())
    weight_options = fixtures.weight_battery(m)
    W = len(weight_options)
    # far[t * W + k, x, p]: the distance, in weights k, from feasible opinion x to the correction
    # of point p under tie t and weights k
    far = np.stack(
        [_feasible_distances(space, wv)[:, _correction_table(space, wv, t.ranking)] for t in ties for wv in weight_options]
    )
    # truth[t << n | c]: bit c of table tabs[t]
    truth = engine.truth_bits(tabs, n).ravel()
    # columns[pid, j]: issue j's bits in the profile with id pid, voter 1 most significant
    columns = bits = engine.issue_bits(space.feasible, m).T.astype(np.uint8)
    for _ in range(n - 1):
        columns = (columns[:, None] << 1 | bits).reshape(-1, m)
    # a stage output, below 2**m, sums in uint8
    place = (1 << np.arange(m - 1, -1, -1)).astype(np.uint8)
    stride = engine.strides(S, n)

    # one configuration's draws: m tables (``rng.choice(tabs)`` draws a
    # position below len(tabs)), then tie, weights, n rows, liar and lie
    bounds = (len(tabs),) * m + (len(ties), W) + (S,) * n + (n, S)
    pairs = set()
    hits = 0
    for drawn in _bounded_draws(rng, bounds, configs):
        tab = drawn[:, :m] << n
        correction = drawn[:, m] * W + drawn[:, m + 1]
        rows = drawn[:, m + 2 : m + 2 + n]
        voter, lie = drawn[:, -2], drawn[:, -1]
        truthful = rows[np.arange(len(drawn)), voter]
        pid = rows @ stride
        # the truthful and the lied profile, stacked, and their stage outputs v and u
        both = np.concatenate((pid, pid + (lie - truthful) * stride[voter])).reshape(2, -1)
        v, u = vu = truth[tab + columns[both]] @ place
        # a lie that leaves the opinion in place, or the corrected outcome, is never closer
        gap = far[correction, truthful, vu]
        hit = gap[1] < gap[0]
        hits += int(np.count_nonzero(hit))
        pairs.update(zip(v[hit].tolist(), u[hit].tolist()))
    return sorted(pairs), hits


def _lemma_checks(which: str) -> list[CheckResult]:
    space = builtin_space("pref4")
    checks = []
    for label, (pairs, hits) in _lemma_harvest().items():
        ok = _interval_empty if which == "interval" else _types_differ
        bad = [(v, u) for v, u in pairs if not ok(space, v, u)]
        prop = "interval(v,u) avoids the space" if which == "interval" else "subcube types differ"
        if bad:
            v, u = bad[0]
            checks.append(
                CheckResult(
                    f"{label}: {prop}",
                    False,
                    f"{len(bad)} violations, first at v={to_bits(v, space.m)} u={to_bits(u, space.m)}",
                )
            )
        else:
            checks.append(
                CheckResult(
                    f"{label}: {prop}",
                    True,
                    f"{hits} witnesses over {len(pairs)} distinct stage-output pairs, 0 violations",
                )
            )
    return checks


def _suite_lemma54() -> list[CheckResult]:
    return _lemma_checks("interval")


def _suite_lemma55() -> list[CheckResult]:
    return _lemma_checks("types")


# ---------------------------------------------------------------------------
# three alternatives: every corrected monotone stage is hamming-free


def _suite_claim56() -> list[CheckResult]:
    space = builtin_space("pref3")
    total = len(monotone_tables(3)) ** space.m
    checks = []
    for tie in fixtures.tie_battery(space):
        for wv in fixtures.weight_battery(space.m):
            found = all_stage_products_hamming_free(space, 3, wv, tie)
            if found is None:
                checks.append(
                    CheckResult(
                        f"all stages, tie={tie.name}, weights={wv}",
                        True,
                        f"{total} corrected stages exhaustively hunted, 0 hamming witnesses",
                    )
                )
            else:
                sid, tables, probe = found
                checks.append(
                    CheckResult(
                        f"all stages, tie={tie.name}, weights={wv}",
                        False,
                        f"stage #{sid} tables={tables} has a witness at probe {probe}",
                    )
                )
    return checks


# ---------------------------------------------------------------------------
# four alternatives: the corrected majority is hamming-manipulable


def _suite_claim57() -> list[CheckResult]:
    checks = []
    case = fixtures.four_candidate_case()
    space = case["space"]
    stage = IiaStage.majority(3, 6)
    quoted_tie = fixtures.four_candidate_tie_order()

    rule = NearestNeighborRule(space, stage, tie=quoted_tie)
    w = find_witness(space, rule, 3, "hamming")
    checks.append(_expect_witness("corrected majority, worked-example tie order: witness exists", w))

    lied_rows = case["rows"][:1] + (case["lie"],) + case["rows"][2:]
    z = rule(case["rows"])
    u = rule(lied_rows)
    x2 = case["rows"][1]
    dev = classify_deviation(x2, z, u)
    dz, dw = weighted_hamming(x2, z), weighted_hamming(x2, u)
    ok = (
        z == case["corrected_truthful"]
        and u == case["corrected_lied"]
        and dev.hamming
        and (dz, dw) == (3, 2)
    )
    checks.append(
        CheckResult(
            "the quoted deviation is a hamming witness",
            ok,
            f"outcome {to_bits(z, 6)} -> {to_bits(u, 6)}, distance {dz} -> {dw}",
        )
    )

    for tie in fixtures.tie_battery(space):
        w2 = find_witness(space, NearestNeighborRule(space, stage, tie=tie), 3, "hamming")
        outcome = _witness_line(w2) if w2 else "FREE"
        checks.append(
            CheckResult(f"hunt outcome under tie={tie.name}", True, outcome)
        )
    return checks


# ---------------------------------------------------------------------------
# committee selection: the welfare maximizer is hamming-free


def _suite_claim58() -> list[CheckResult]:
    checks = []
    for name in ("choose4-2", "choose5-2"):
        space = builtin_space(name)
        tie = committee_tie_order(space)
        rule = WelfareMaximizer(space, uniform_weights(space.m), tie)
        hunts = (("", find_witness(space, rule, 3, "hamming")),)
        checks.append(_battery(f"welfare maximizer on {name} is hamming-free", hunts, "exhaustive hunt, 0 witnesses"))
        table = outcome_table(space, rule, 3)
        count = len(table)
        # every ordered profile's rows as masks, in canonical id order
        profiles = engine.masks_array(space.feasible, space.m)[engine.ProfileLattice(space.size, 3).rows(0, count)]
        outcomes = engine.masks_array(table.values, space.m)[table.codes]
        mismatches = int(np.count_nonzero(outcomes != _topk_block(space, profiles)))
        checks.append(
            CheckResult(
                f"welfare maximizer matches top-approval selection on {name}",
                mismatches == 0,
                f"{count} profiles compared, {mismatches} mismatches",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# registry


_SUITES = {
    "tables": _suite_tables,
    "prop4.1": _suite_prop41,
    "thm3.1": _suite_thm31,
    "thm4.2": _suite_thm42,
    "thm4.3": _suite_thm43,
    "lemma5.4": _suite_lemma54,
    "lemma5.5": _suite_lemma55,
    "claim5.6": _suite_claim56,
    "claim5.7": _suite_claim57,
    "claim5.8": _suite_claim58,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str) -> SuiteReport:
    """Run one named suite and return its report."""
    try:
        fn = _SUITES[name]
    except KeyError:
        known = ", ".join(_SUITES)
        raise ValueError(f"unknown suite {name!r} (known: {known})") from None
    start = time.perf_counter()
    checks = fn()
    return SuiteReport(name, checks, time.perf_counter() - start)
