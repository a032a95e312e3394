"""The benchmark's workloads: seed-drawn inputs, timed operations, output checks.

Each workload is a list of operations run back to back by one client in
one fresh process.  The seed draws every input binagg receives; binagg
never sees the seed itself.  Checks run after the timed operations and
return the logical probes an operation covered plus a list of problems.

A probe is one (stage, profile, voter, lie) in canonical order.  An
operation covers the probes up to and including its first witness, or
all of them when there is none, so the count depends on the inputs only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import binagg.cli
import binagg.fastsweep
from binagg import (
    IiaStage,
    NearestNeighborRule,
    TieOrder,
    builtin_space,
    classify_deviation,
    find_witness,
    from_bits,
    monotone_tables,
    parse_rule,
    search_size,
    suite_names,
    to_bits,
)

DEFAULT_SEED = 0

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as fh:
    DIGESTS: dict[str, str] = json.load(fh)


@dataclass
class Op:
    """One timed operation and the check of its output."""

    name: str
    group: str  # hunt, check, sweep or suite
    run: Callable[[], tuple[int, object]]  # -> (exit status, output)
    check: Callable[[object], tuple[int, list[str]]]  # output -> (probes, problems)
    seeded: bool  # the output depends on the seed


def digest(output) -> str:
    text = output if isinstance(output, str) else repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


def witness_probes(space, n: int, rows, voter: int, lie: int) -> int:
    """Probes covered up to and including the witness (rows, voter from 1, lie)."""
    S = space.size
    pid = 0
    for row in rows:
        pid = pid * S + space.index(row)
    return (pid * n + voter - 1) * S + space.index(lie) + 1


def sweep_probes(space, n: int, found) -> tuple[int, int]:
    """(stages, probes) covered by a batch sweep that returned ``found``."""
    stages = len(monotone_tables(n)) ** space.m
    size = search_size(space, n)
    if found is None:
        return stages, stages * size
    sid, _, (pid, voter, lie) = found
    return sid + 1, sid * size + (pid * n + voter) * space.size + lie + 1


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = binagg.cli.main(argv)
    return status, out.getvalue()


# ---------------------------------------------------------------------------
# hunt: four CLI commands, each on one large lattice


def _parse_witness(text: str, m: int):
    """(voter, kind, rows, lie, truthful, lied) from a hunt's witness report."""
    lines = text.splitlines()
    head = lines[0].split()
    voter, kind = int(head[1]), head[4]
    rows = []
    for line in lines[2:]:
        if not line.startswith("  voter "):
            break
        rows.append(from_bits(line.split(":")[1].split()[0]))
    fields = {}
    for line in lines[2 + len(rows) :]:
        key, _, value = line.partition(":")
        fields[key] = value.split()[0] if value.strip() else ""
    bits = [fields["lie"], fields["truthful outcome"], fields["lied outcome"]]
    if any(len(b) != m for b in bits):
        raise ValueError("witness rows do not match the space's issue count")
    return voter, kind, tuple(rows), *(from_bits(b) for b in bits)


def _hunt_check(space, spec: str, n: int, kind: str, weights, tie, free_probes: int):
    """Re-verify a hunt's witness through the public API and count its probes."""

    def check(text: str) -> tuple[int, list[str]]:
        if text == "FREE\n":
            return free_probes, []
        try:
            voter, got_kind, rows, lie, z, w = _parse_witness(text, space.m)
        except (IndexError, KeyError, ValueError) as e:
            return 0, [f"unreadable witness report: {e}"]
        problems = []
        if got_kind != kind or len(rows) != n or not 1 <= voter <= n:
            return 0, [f"witness does not match the command: {text.splitlines()[0]!r}"]
        if any(r not in space for r in rows + (lie,)) or lie == rows[voter - 1]:
            return 0, ["witness rows or lie are not feasible distinct evaluations"]
        rule = parse_rule(spec).build(space, n, weights, tie)
        lied_rows = rows[: voter - 1] + (lie,) + rows[voter:]
        if rule(rows) != z or rule(lied_rows) != w:
            problems.append("recomputed outcomes differ from the reported ones")
        dev = classify_deviation(rows[voter - 1], z, w, weights if kind == "hamming" else None, space.m)
        if not getattr(dev, kind):
            problems.append(f"the reported move is not a {kind} manipulation")
        return witness_probes(space, n, rows, voter, lie), problems

    return check


def _check_holds(free_probes: int):
    def check(text: str) -> tuple[int, list[str]]:
        if text.startswith("property monotone: HOLDS"):
            return free_probes, []
        return 0, ["monotone check did not hold"]

    return check


def _hunt_ops(rng: random.Random, tmpdir: str) -> list[Op]:
    pref4 = builtin_space("pref4")
    pref3 = builtin_space("pref3")
    weights = tuple(rng.randint(1, 3) for _ in range(pref4.m))
    ranking = list(pref4.feasible)
    rng.shuffle(ranking)
    tie = TieOrder(pref4, ranking)
    wpath = os.path.join(tmpdir, "weights.txt")
    tpath = os.path.join(tmpdir, "tieorder.txt")
    with open(wpath, "w") as fh:
        fh.write(" ".join(map(str, weights)) + "\n")
    with open(tpath, "w") as fh:
        fh.write("\n".join(to_bits(x, pref4.m) for x in ranking) + "\n")

    def hunt(space_name, spec, n, kind, files=()):
        argv = ["hunt", "--space", space_name, "--aggregator", spec, "-n", str(n), "--kind", kind, *files]
        return lambda: _cli(argv)

    nn_files = ("--weights", wpath, "--tieorder", tpath)
    # hand-computed S^n * n * S: 24^4*4*24 and 6^7*7*6
    pref4_n4, pref3_n7 = 31_850_496, 11_757_312
    return [
        Op(
            "hunt.pref4-n4-nn-full", "hunt",
            hunt("pref4", "nn(majority)", 4, "full", nn_files),
            _hunt_check(pref4, "nn(majority)", 4, "full", weights, tie, pref4_n4),
            seeded=True,
        ),
        Op(
            "hunt.pref4-n4-nn-hamming", "hunt",
            hunt("pref4", "nn(majority)", 4, "hamming", nn_files),
            _hunt_check(pref4, "nn(majority)", 4, "hamming", weights, tie, pref4_n4),
            seeded=True,
        ),
        Op(
            "hunt.pref3-n7-partition-full", "hunt",
            hunt("pref3", "partition:1;2;3", 7, "full"),
            _hunt_check(pref3, "partition:1;2;3", 7, "full", None, None, pref3_n7),
            seeded=False,
        ),
        Op(
            "check.pref3-n7-plurality-monotone", "check",
            lambda: _cli(["check", "--space", "pref3", "--aggregator", "plurality", "-n", "7", "--property", "monotone"]),
            _check_holds(pref3_n7),
            seeded=False,
        ),
    ]


# ---------------------------------------------------------------------------
# sweep: batch stage sweeps through the numpy layer


def _sweep_check(space, weights, tie):
    """Confirm a sweep hit with the single-rule scanner and count probes."""
    tabs = monotone_tables(3)

    def check(found) -> tuple[int, list[str]]:
        probes = sweep_probes(space, 3, found)[1]
        if found is None:
            return probes, []
        sid, tables, (pid, voter, lie) = found
        digits, rest = [], sid
        for _ in range(space.m):
            digits.append(tabs[rest % len(tabs)])
            rest //= len(tabs)
        if tuple(reversed(digits)) != tables:
            return 0, [f"stage #{sid} does not have tables {tables}"]
        rule = NearestNeighborRule(space, IiaStage(3, tables), weights, tie)
        witness = find_witness(space, rule, 3, "hamming", weights)
        within_stage = (pid * 3 + voter) * space.size + lie + 1
        if witness is None or witness_probes(space, 3, witness.profile, witness.voter, witness.lie) != within_stage:
            return 0, [f"stage #{sid}: the single-rule scanner's first witness is not at probe {within_stage}"]
        return probes, []

    return check


def _sweep_ops(rng: random.Random) -> list[Op]:
    ops = []
    for name in ("pref3", "cycle6", "doctrinal"):
        space = builtin_space(name)
        for k in range(1, 5):
            weights = tuple(rng.randint(1, 3) for _ in range(space.m))
            ranking = list(space.feasible)
            rng.shuffle(ranking)
            tie = TieOrder(space, ranking)

            def run(space=space, weights=weights, tie=tie):
                return 0, binagg.fastsweep.all_stage_products_hamming_free(space, 3, weights, tie)

            ops.append(Op(f"sweep.{name}-{k}", "sweep", run, _sweep_check(space, weights, tie), seeded=True))
    return ops


# ---------------------------------------------------------------------------
# suites: every verification suite, in registry order, through the CLI


def _suite_ops() -> list[Op]:
    return [
        Op(f"suite.{name}", "suite", lambda name=name: _cli(["verify", "--suite", name]), lambda _: (0, []), seeded=False)
        for name in suite_names()
    ]


def build(workload: str, seed: int, tmpdir: str) -> list[Op]:
    """The workload's operations, with every input drawn from ``seed``."""
    rng = random.Random(seed)
    if workload == "hunt":
        return _hunt_ops(rng, tmpdir)
    if workload == "sweep":
        return _sweep_ops(rng)
    if workload == "suites":
        return _suite_ops()
    raise ValueError(f"unknown workload {workload!r}")


def verify(op: Op, status: int, output, seed: int) -> tuple[int, list[str]]:
    """Logical probes covered and every problem found in one operation's result."""
    if status != 0:
        return 0, [f"exit status {status}"]
    probes, problems = op.check(output)
    if not op.seeded or seed == DEFAULT_SEED:
        expected = DIGESTS.get(op.name)
        if expected is None:
            problems.append("no committed digest")
        elif digest(output) != expected:
            problems.append("output differs from the committed digest")
    return probes, problems
