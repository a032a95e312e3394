"""Mutation check of the probe walk, the distance kernel, the structural checks and the suites' verdicts: each listed mutant must make its tests fail.

Run by hand from the root of a checkout (pytest does not collect this file):

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py unrank     # the mutants whose names contain "unrank"

A mutant replaces one exact text, which must occur once, in one file
under ``src/``.  Each one is applied to a fresh temporary copy of
``src/`` and ``tests/`` and the listed tests run there; the mutant is
killed when they fail.  The script prints each verdict and a summary,
and exits 1 when a mutant survives or its text is not found once.
Add the mutants of every new fast path here; ``tests/test_mutants.py``
holds each one's text and tests in step with the code on every tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


HIT_BLOCKS = "tests/test_engine.py::test_hit_blocks_list_the_scan_hits_in_order"
KEYED_ONCE = "tests/test_engine.py::test_scan_tests_each_distinct_context_row_once"
PIVOT_ONCE = "tests/test_engine.py::test_pivot_walk_flags_each_type_it_meets_once"
GATE = "tests/test_manipulation.py::test_full_hunts_of_corrected_stages_match_the_oracle"
EVERY_KIND = "tests/test_manipulation.py::test_hunts_of_corrected_stages_of_every_kind_match_the_oracle"
CERTIFIED_RAISES = "tests/test_manipulation.py::test_certified_full_hunt_raises_what_the_scan_raises"
CERTIFICATE_BAD = "tests/test_fastsweep.py::test_corrected_stage_screen_hunts_the_stage_when_a_type_is_bad"
CERTIFICATE_REJECTS = "tests/test_fastsweep.py::test_corrected_stage_screen_rejects_what_find_witness_rejects"
UNRANK = "tests/test_engine.py::test_multiset_rows_unrank_deep_in_a_large_lattice"
RANKS = "tests/test_engine.py::test_multiset_tables_rank_past_uint8"
KERNEL = "tests/test_metric.py::test_kernel_and_corrections_match_the_oracle"
PROP41_FAILS = "tests/test_suites.py::test_prop41_fails_at_the_first_witness_and_hunts_no_further"
THM42_FAILS = "tests/test_suites.py::test_thm42_hunts_the_first_flagged_configuration_alone"
THM43_FAILS = "tests/test_suites.py::test_thm43_fails_at_the_first_witness_and_hunts_no_further"
CLAIM58_FAILS = "tests/test_suites.py::test_claim58_fails_with_the_witness"
VERIFY_EXITS = "tests/test_cli.py::test_verify_exits_3_when_a_suite_fails"
MISSING_WITNESS = "tests/test_suites.py::test_an_expected_witness_that_is_missing_fails"
PROPERTY_HOLDS = "tests/test_suites.py::test_thm31_names_a_structural_property_that_holds"
ANONYMITY_FAILS = "tests/test_suites.py::test_thm43_anonymity_failure_counts_its_violations"
DEFAULTS = "tests/test_engine.py::test_rules_built_without_weights_or_tie_take_the_documented_defaults"
MALFORMED_WEIGHTS = "tests/test_manipulation.py::test_every_kind_refuses_malformed_weights"
IIA = "tests/test_aggregators.py::test_structural_iia"
ANONYMOUS = "tests/test_aggregators.py::test_structural_anonymous"
DICTATORIAL = "tests/test_aggregators.py::test_structural_dictatorial"

MUTANTS = (
    Mutant(
        "scan names the varying voter's index, not the voter",
        "src/binagg/engine.py",
        "yield start + b[f], voters[j[f]], lie",
        "yield start + b[f], j[f], lie",
        (HIT_BLOCKS,),
    ),
    Mutant(
        "scan reads lied codes at the lies in reverse",
        "src/binagg/engine.py",
        "z[f], row[f, lie]",
        "z[f], row[f, lattice.S - 1 - lie]",
        (HIT_BLOCKS,),
    ),
    Mutant(
        "the type table's switch line off by a factor of S",
        "src/binagg/manipulation.py",
        "line = 3**m * S * -(-S // 64) - 5000",
        "line = 3**m * -(-S // 64) - 5000",
        (GATE,),
    ),
    Mutant(
        "the type table's flags unpacked big-endian",
        "src/binagg/manipulation.py",
        'np.unpackbits(bad, axis=1, count=S, bitorder="little")',
        'np.unpackbits(bad, axis=1, count=S, bitorder="big")',
        (HIT_BLOCKS, EVERY_KIND),
    ),
    Mutant(
        "the full certificate answers FREE despite a bad type",
        "src/binagg/manipulation.py",
        "if not line and not _type_table(*key, kind).any():",
        "if not line:",
        (CERTIFICATE_BAD,),
    ),
    Mutant(
        "a full hunt below the line reads the type table mid-walk",
        "src/binagg/manipulation.py",
        "line = 0 if lattice.size * probes >= line else math.inf",
        "line = 0 if lattice.size * probes >= line else line",
        (GATE,),
    ),
    Mutant(
        "the full certificate read before the rule is checked",
        "src/binagg/manipulation.py",
        "    check_bound(space, rule)\n",
        '    if kind == "full" and not _type_table(space, rule.weights, rule.tie.ranking, kind).any():\n'
        "        return\n"
        "    check_bound(space, rule)\n",
        (CERTIFICATE_REJECTS, CERTIFIED_RAISES),
    ),
    Mutant(
        "the context memo rebuilt per block",
        "src/binagg/engine.py",
        "        ids, opinions = lattice.contexts(start, rows)\n",
        "        ids, opinions = lattice.contexts(start, rows)\n        file = type_memo(S, hit)\n",
        (KEYED_ONCE, HIT_BLOCKS),
    ),
    Mutant(
        "the pivot memo rebuilt per block",
        "src/binagg/manipulation.py",
        "        rows = lattice.rows(start, stop)\n",
        "        rows = lattice.rows(start, stop)\n        file = file and engine.type_memo(S, hit)\n",
        (PIVOT_ONCE,),
    ),
    Mutant(
        "_unrank searching left",
        "src/binagg/engine.py",
        'searchsorted(rank, "right")',
        'searchsorted(rank, "left")',
        (UNRANK,),
    ),
    Mutant(
        "the multiset recursion reads its shift off the wrong level",
        "src/binagg/engine.py",
        "-steps[j + 1, :S]",
        "-steps[j, :S]",
        (RANKS,),
    ),
    Mutant(
        "the multiset recursion's tail index off by one",
        "src/binagg/engine.py",
        "ids[tail : len(rows)]",
        "ids[tail + 1 : len(rows) + 1]",
        (RANKS,),
    ),
    Mutant(
        "the multiset recursion's shift wraps to a subtraction",
        "src/binagg/engine.py",
        "(-steps[j + 1, :S])",
        "(steps[j + 1, :S])",
        (RANKS,),
    ),
    Mutant(
        "the distance kernel drops its last chunk",
        "src/binagg/metric.py",
        "for k, table in enumerate(tables))",
        "for k, table in enumerate(tables[:-1]))",
        (KERNEL,),
    ),
    Mutant(
        "the distance kernel reads a chunk one issue off",
        "src/binagg/metric.py",
        "np.array(k * CHUNK, dtype=diff.dtype)",
        "np.array(k * CHUNK + 1, dtype=diff.dtype)",
        (KERNEL,),
    ),
    Mutant(
        "the first nearest taken in ascending mask order, not ranking order",
        "src/binagg/metric.py",
        "ranked = masks_array(ranking, m)",
        "ranked = masks_array(space.feasible, m)",
        (KERNEL,),
    ),
    Mutant(
        "plurality defaults to ascending tie order",
        "src/binagg/aggregators.py",
        "self.tie = TieOrder.descending(space) if tie is None else tie",
        "self.tie = TieOrder.ascending(space) if tie is None else tie",
        (DEFAULTS,),
    ),
    Mutant(
        "the welfare maximizer defaults to descending tie order",
        "src/binagg/aggregators.py",
        '        super().__init__(space, "swm")\n'
        "        self.weights = validate_weights(weights, space.m)\n"
        "        self.tie = TieOrder.ascending(space) if tie is None else tie\n",
        '        super().__init__(space, "swm")\n'
        "        self.weights = validate_weights(weights, space.m)\n"
        "        self.tie = TieOrder.descending(space) if tie is None else tie\n",
        (DEFAULTS,),
    ),
    Mutant(
        "full and partial hunts skip weight validation",
        "src/binagg/manipulation.py",
        "    w = validate_weights(weights, m)\n    return w if kind == \"hamming\" else None\n",
        "    return validate_weights(weights, m) if kind == \"hamming\" else None\n",
        (MALFORMED_WEIGHTS,),
    ),
    Mutant(
        "iia reads the partner with the opposite bit",
        "src/binagg/aggregators.py",
        "np.stack([bits.argmin(axis=1), bits.argmax(axis=1)], axis=1)",
        "np.stack([bits.argmax(axis=1), bits.argmin(axis=1)], axis=1)",
        (IIA,),
    ),
    Mutant(
        "anonymity compares a block with itself",
        "src/binagg/aggregators.py",
        "evaluate(rows) != evaluate(np.sort(rows, axis=1))",
        "evaluate(rows) != evaluate(rows)",
        (ANONYMOUS,),
    ),
    Mutant(
        "dictatorship compares against the wrong voter's row",
        "src/binagg/aggregators.py",
        "overruled = xs[rows] != outcomes(rows)[:, None]",
        "overruled = xs[np.roll(rows, 1, axis=1)] != outcomes(rows)[:, None]",
        (DICTATORIAL,),
    ),
    Mutant(
        "the distance kernel keeps int64 past 2^63",
        "src/binagg/metric.py",
        "dtype = exact_array([sum(weights)]).dtype",
        "dtype = exact_array([min(sum(weights), 2**63 - 1)]).dtype",
        (KERNEL,),
    ),
    Mutant(
        "a battery reports its last witness, not its first",
        "src/binagg/suites.py",
        "next(((prefix, w) for prefix, w in hunts if w is not None), None)",
        "([(prefix, w) for prefix, w in hunts if w is not None] or [None])[-1]",
        (PROP41_FAILS, THM43_FAILS),
    ),
    Mutant(
        "a battery hunts on past its first witness",
        "src/binagg/suites.py",
        "for prefix, w in hunts if",
        "for prefix, w in list(hunts) if",
        (PROP41_FAILS, THM42_FAILS, THM43_FAILS),
    ),
    Mutant(
        "a battery passes at a witness",
        "src/binagg/suites.py",
        "return CheckResult(label, False, prefix + _witness_line(w))",
        "return CheckResult(label, True, prefix + _witness_line(w))",
        (PROP41_FAILS, CLAIM58_FAILS, VERIFY_EXITS),
    ),
    Mutant(
        "an expected witness passes when missing",
        "src/binagg/suites.py",
        "w is not None and not held",
        "not held",
        (MISSING_WITNESS,),
    ),
    Mutant(
        "an expected witness's check drops the structural verdict",
        "src/binagg/suites.py",
        "held + (_witness_line(w)",
        "(_witness_line(w)",
        (PROPERTY_HOLDS,),
    ),
    Mutant(
        "the anonymity check reports 0 violations whatever it counts",
        "src/binagg/suites.py",
        "permutations, {bad} violations",
        "permutations, 0 violations",
        (ANONYMITY_FAILS,),
    ),
)


def run(mutant: Mutant, scratch: str) -> tuple[bool, str]:
    """(killed, note) of one mutant, tested in a fresh copy of src/ and tests/ under ``scratch``.

    It is killed when a listed test fails; an error, such as one in
    collection, kills nothing.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(scratch, part), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), scratch)
    # tests/test_suites.py reads the suites' digests
    os.mkdir(os.path.join(scratch, "bench"))
    shutil.copy(os.path.join(ROOT, "bench", "digests.json"), os.path.join(scratch, "bench"))
    target = os.path.join(scratch, mutant.path)
    with open(target) as f:
        text = f.read()
    if text.count(mutant.old) != 1:
        return False, f"its text occurs {text.count(mutant.old)} times in {mutant.path}"
    with open(target, "w") as f:
        f.write(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(scratch, "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    result = subprocess.run(command, cwd=scratch, env=env, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    # pytest exits 1 when a test fails, 2 on an error in collection
    return result.returncode == 1, lines[-1] if lines else result.stderr.strip()[-200:]


def main(patterns: list[str]) -> int:
    chosen = [m for m in MUTANTS if not patterns or any(p in m.name for p in patterns)]
    survivors = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="binagg-mutants-") as scratch:
        for mutant in chosen:
            killed, note = run(mutant, os.path.join(scratch, "tree"))
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name} ({note})", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
